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
from repro.runtime.cli import _build_deployment, build_parser, main
from repro.snn import build_small_network

#: Every profile-span record must carry exactly this shape (the JSON
#: contract of Profiler.summary and the CLI's --json document).
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
    """Profiling is in-process only: job results carry no profile."""

    def test_plain_results_carry_no_profile(self):
        data, evaluator = small_deployment()
        run = run_jobs(evaluator.sample_jobs(data, max_samples=1))
        assert "profile" not in run.results[0].unwrap()


class TestProfiledEvaluate:
    def test_evaluate_profiler_records_batched_spans(self):
        data, evaluator = small_deployment(n_per_class=1)
        profiler = Profiler()
        report = evaluator.evaluate(data, max_samples=3, profiler=profiler)
        summary = profiler.summary()
        assert set(summary) == {"total_s", "spans"}
        # Equal envelopes run as one stacked batch: one runner.sample
        # span counting every sample, one fire scan per layer and step.
        assert summary["spans"]["runner.sample"]["count"] == len(report.results) == 3
        n_steps = data.samples[0].stream.n_steps
        assert profiler.spans["sne.fire"].count == n_steps * len(evaluator.programs)
        assert set(summary["spans"]["sne.update"]) == SPAN_KEYS

    @pytest.mark.parametrize("kw", [{"executor": "serial"}, {"cache": object()}])
    def test_profiler_refuses_executor_and_cache(self, kw):
        data, evaluator = small_deployment()
        with pytest.raises(ValueError, match="in-process loop only"):
            evaluator.evaluate(data, profiler=Profiler(), **kw)


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

    def test_profile_command_times_the_batched_path(self, capsys):
        """`repro profile` runs the samples in one stacked batch under one
        profiler: the total spans the batch, and the fire scans are those
        of a single run_samples call over the same streams."""
        argv = ["profile", "--per-class", "1", "--max-samples", "4",
                "--quiet", "--json", "-"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("\n{") + 1:])
        runner = doc["spans"]["runner.sample"]
        assert doc["total_s"] >= runner["wall_s"]
        row = next(line for line in out.splitlines() if line.startswith("runner.sample"))
        assert float(row.split()[3].rstrip("%")) <= 100.0

        data, evaluator = _build_deployment(build_parser().parse_args(argv))
        samples = data.samples[:4]
        expected = Profiler()
        evaluator.run_samples([s.stream for s in samples], [s.label for s in samples],
                              profiler=expected)
        assert doc["spans"]["sne.fire"]["count"] == expected.spans["sne.fire"].count
        assert runner["count"] == 4

    def test_profile_command_has_no_backend_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--backend", "process"])
        assert exc.value.code == 2

    def test_profile_command_per_event_mode(self, capsys):
        # The per-event reference loop is profiled like every other
        # kernel, with the same stage and layer spans.
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
