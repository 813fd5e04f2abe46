"""Tests for the hot-path profiling subsystem (repro.runtime.profile)."""

import json

import numpy as np
import pytest

from repro.events import EventStream, SyntheticDVSGesture
from repro.hw import PAPER_CONFIG, SNE, HardwareEvaluator, SNEConfig, compile_network
from repro.runtime import (
    Profiler,
    render_profile,
    run_jobs,
)
from repro.runtime.cli import main
from repro.snn import build_small_network

#: Every profile-span record must carry exactly this shape (the JSON
#: contract the CLI, job results and aggregator all share).
SPAN_KEYS = {"count", "wall_s", "events", "events_per_s"}


def small_deployment(n_per_class=1, slices=2):
    data = SyntheticDVSGesture(size=16, n_steps=4).generate(
        n_per_class=n_per_class, seed=5
    )
    net = build_small_network(input_size=16, n_classes=data.n_classes,
                              channels=2, hidden=8, seed=5)
    programs = compile_network(net, (2, 16, 16))
    return data, HardwareEvaluator(programs, PAPER_CONFIG.with_slices(slices))


class TestProfiler:
    def test_add_accumulates_count_wall_events(self):
        p = Profiler()
        p.add("stage", 0.5, events=10)
        p.add("stage", 0.25, count=3, events=5)
        span = p.spans["stage"]
        assert span.count == 4
        assert span.wall_s == pytest.approx(0.75)
        assert span.events == 15
        assert span.events_per_s == pytest.approx(20.0)

    def test_zero_wall_time_has_zero_throughput(self):
        p = Profiler()
        p.add("idle", 0.0, events=100)
        assert p.spans["idle"].events_per_s == 0.0

    def test_span_context_manager_measures(self):
        p = Profiler()
        with p.span("work", events=4):
            pass
        assert p.spans["work"].count == 1
        assert p.spans["work"].wall_s >= 0.0
        assert p.spans["work"].events == 4

    def test_summary_shape_and_ordering(self):
        p = Profiler()
        p.add("fast", 0.1, events=1)
        p.add("slow", 0.9, events=2)
        summary = p.summary()
        assert set(summary) == {"total_s", "spans"}
        assert summary["total_s"] >= 0.0
        assert list(summary["spans"]) == ["slow", "fast"]  # wall-time descending
        for span in summary["spans"].values():
            assert set(span) == SPAN_KEYS
        json.dumps(summary)  # the summary must be pure JSON

    def test_merge_profiler_and_summary_dict(self):
        a, b = Profiler(), Profiler()
        a.add("stage", 0.5, events=5)
        b.add("stage", 0.5, events=5)
        b.add("other", 0.1)
        a.merge(b)
        assert a.spans["stage"].wall_s == pytest.approx(1.0)
        assert a.spans["stage"].events == 10
        c = Profiler()
        c.merge(a.summary())
        assert c.spans["stage"].count == a.spans["stage"].count
        assert c.spans["other"].wall_s == pytest.approx(0.1)

    def test_render_mentions_every_span(self):
        p = Profiler()
        p.add("sne.update", 0.2, count=7, events=70)
        text = render_profile(p.summary(), title="t")
        assert "sne.update" in text and "7" in text


class TestSNEProfileSpans:
    def make_run(self, **kwargs):
        data, evaluator = small_deployment()
        profiler = Profiler()
        sne = SNE(evaluator.config)
        sne.run_network(evaluator.programs, data.samples[0].stream,
                        profiler=profiler, **kwargs)
        return profiler

    def test_run_network_emits_stage_spans(self):
        profiler = self.make_run()
        names = set(profiler.spans)
        assert {"sne.update", "sne.fire", "sne.reset", "sne.assemble"} <= names
        assert any(n.startswith("sne.layer.") for n in names)
        for span in profiler.spans.values():
            assert set(span.as_dict()) == SPAN_KEYS

    def test_reference_loop_profiles_too(self):
        profiler = self.make_run(kernel="reference")
        assert profiler.spans["sne.update"].count > 0

    def test_pipelined_mode_emits_stage_spans(self):
        data, evaluator = small_deployment(slices=8)
        profiler = Profiler()
        SNE(evaluator.config).run_network_pipelined(
            evaluator.programs, data.samples[0].stream, profiler=profiler
        )
        assert {"sne.update", "sne.fire", "sne.reset", "sne.assemble"} <= set(
            profiler.spans
        )
        assert profiler.spans["sne.update"].events > 0

    def test_update_span_counts_events(self):
        data, evaluator = small_deployment()
        stream = data.samples[0].stream
        profiler = Profiler()
        SNE(evaluator.config).run_layer(evaluator.programs[0], stream,
                                        profiler=profiler)
        assert profiler.spans["sne.update"].events == len(stream)

    def test_no_profiler_no_spans_no_crash(self):
        data, evaluator = small_deployment()
        out = evaluator.run_sample(data.samples[0].stream, data.samples[0].label)
        assert out.cycles > 0


class TestProfiledJobs:
    def test_profile_flag_changes_job_hash_only_when_set(self):
        data, evaluator = small_deployment()
        plain_a = evaluator.sample_jobs(data)[0]
        plain_b = evaluator.sample_jobs(data, profile=False)[0]
        profiled = evaluator.sample_jobs(data, profile=True)[0]
        assert plain_a.job_hash == plain_b.job_hash
        assert profiled.job_hash != plain_a.job_hash
        assert profiled.params["profile"] is True
        assert "profile" not in plain_a.params

    def test_profiled_results_carry_span_json(self):
        data, evaluator = small_deployment()
        run = run_jobs(evaluator.sample_jobs(data, max_samples=2, profile=True))
        for result in run.results:
            summary = result.unwrap()["profile"]
            assert set(summary) == {"total_s", "spans"}
            assert "runner.sample" in summary["spans"]
            assert set(summary["spans"]["sne.update"]) == SPAN_KEYS

    def test_plain_results_carry_no_profile(self):
        data, evaluator = small_deployment()
        run = run_jobs(evaluator.sample_jobs(data, max_samples=1))
        assert "profile" not in run.results[0].unwrap()

    def test_aggregator_merges_across_process_backend(self, tmp_path, capsys):
        """``repro profile`` folds every worker's job profile into one."""
        out_path = tmp_path / "profile.json"
        rc = main(["profile", "--size", "16", "--steps", "4", "--per-class", "1",
                   "--max-samples", "4", "--slices", "2", "--backend", "process",
                   "--workers", "2", "--quiet", "--json", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["workload"]["samples"] == 4
        assert doc["spans"]["runner.sample"]["count"] == 4
        assert set(doc["spans"]["sne.update"]) == SPAN_KEYS

    def test_aggregator_ignores_plain_jobs(self):
        """Only profiled results carry a summary to merge; plain ones
        in the same run add nothing."""
        data, evaluator = small_deployment()
        jobs = (evaluator.sample_jobs(data, max_samples=2)
                + evaluator.sample_jobs(data, max_samples=1, profile=True))
        run = run_jobs(jobs)
        profiler = Profiler()
        for result in run.results:
            if "profile" in result.unwrap():
                profiler.merge(result.value["profile"])
        assert profiler.spans["runner.sample"].count == 1


class TestProfileCLI:
    def test_profile_command_prints_table_and_json(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        rc = main(["profile", "--size", "16", "--steps", "4", "--per-class", "1",
                   "--max-samples", "2", "--slices", "2", "--quiet",
                   "--json", str(out_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "sne.update" in captured.out
        doc = json.loads(out_path.read_text())
        assert doc["workload"]["samples"] == 2
        assert set(doc["spans"]["sne.update"]) == SPAN_KEYS

    def test_profile_command_per_event_mode(self, capsys):
        # The per-event reference loop is profiled through the job path
        # like every other kernel, with the same stage and layer spans.
        rc = main(["profile", "--size", "16", "--steps", "4", "--per-class", "1",
                   "--max-samples", "1", "--slices", "2", "--kernel", "reference",
                   "--quiet", "--json", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reference-kernel event loop" in out
        doc = json.loads(out[out.index("\n{") + 1:])
        assert doc["workload"]["mode"] == "reference-kernel"
        assert "sne.update" in doc["spans"]
        assert any(name.startswith("sne.layer.") for name in doc["spans"])


class TestVectorizedParity:
    """The vectorised event loop must be bit-identical to the reference."""

    @pytest.mark.filterwarnings(
        "ignore:kernel 'numba' unavailable:RuntimeWarning")
    @pytest.mark.parametrize("kernel", ["reference", "numpy", "numba"])
    def test_random_layers_match_reference(self, kernel):
        import dataclasses

        from repro.hw.fuzz import random_case

        for seed in range(12):
            case = random_case(seed)
            out_vec, stats_vec = SNE(SNEConfig(n_slices=case.n_slices)).run_layer(
                case.program, case.stream, kernel=kernel
            )
            out_ref, stats_ref = SNE(SNEConfig(n_slices=case.n_slices)).run_layer(
                case.program, case.stream, kernel="reference"
            )
            assert out_vec == out_ref, f"outputs diverged (seed {seed})"
            d_vec = dataclasses.asdict(stats_vec)
            d_ref = dataclasses.asdict(stats_ref)
            assert d_vec == d_ref, f"stats diverged (seed {seed})"
            # Counter types must stay plain ints (JSON/cache contract).
            assert all(type(v) is type(d_ref[k]) for k, v in d_vec.items())

    @pytest.mark.filterwarnings(
        "ignore:kernel 'numba' unavailable:RuntimeWarning")
    @pytest.mark.parametrize("kernel", ["reference", "numpy", "numba"])
    def test_saturating_updates_match_reference(self, kernel):
        """Force mid-step saturation: per-event clipping must survive
        the batched prefix-sum fast path on every kernel."""
        import dataclasses

        from repro.hw import LayerGeometry, LayerKind, LayerProgram

        g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 32, 1, 1)
        # Constant +-7 weights drive every membrane monotonically into
        # the 8-bit rails, clipping mid-step (4 events x 7 per step).
        w = np.full((32, 4), 7, dtype=np.int64)
        w[16:] = -7
        prog = LayerProgram(g, w, threshold=1000, leak=0)  # never fire
        dense = np.ones((6, 1, 2, 2), dtype=np.uint8)  # 4 events per step
        stream = EventStream.from_dense(dense)
        cfg = SNEConfig(n_slices=1)
        sne_vec, sne_ref = SNE(cfg), SNE(cfg)
        out_vec, stats_vec = sne_vec.run_layer(prog, stream, kernel=kernel)
        out_ref, stats_ref = sne_ref.run_layer(prog, stream, kernel="reference")
        assert out_vec == out_ref
        assert dataclasses.asdict(stats_vec) == dataclasses.asdict(stats_ref)
        for sl_vec, sl_ref in zip(sne_vec.slices, sne_ref.slices):
            assert np.array_equal(sl_vec.membrane_snapshot(),
                                  sl_ref.membrane_snapshot())
