"""Runtime subsystem: job hashing, cache determinism, executor parity.

The contracts under test are the ones every later scaling PR relies on:

* same spec -> same hash; different spec -> different hash;
* serial and multiprocessing backends produce bit-identical, ordered
  results (including the per-sample hardware evaluation path);
* cache round-trips are deterministic (same spec -> hit) and corrupted
  entries degrade to recomputation, never to wrong results;
* failures are captured as structured records, not crashes.
"""

import json

import pytest

from repro.events import SyntheticDVSGesture
from repro.hw import (
    PAPER_CONFIG,
    HardwareEvaluator,
    compile_network,
    report_from_job_results,
)
from repro.runtime import (
    ConsoleProgress,
    ProcessBackend,
    Progress,
    ResultStore,
    SerialBackend,
    SweepAxis,
    SweepGrid,
    baseline_compare_job,
    canonical_json,
    dse_grid,
    dse_jobs,
    dse_point_job,
    execute_job,
    run_dse_sweep,
    run_jobs,
)
from repro.snn import build_small_network


class RecordingProgress(Progress):
    """Keeps every ``on_job`` result, in callback order."""

    def __init__(self):
        self.results = []

    def on_job(self, done, total, result):
        self.results.append(result)


@pytest.fixture(scope="module")
def tiny_eval():
    """A compiled 16x16 deployment plus a 4-sample dataset slice."""
    data = SyntheticDVSGesture(size=16, n_steps=6).generate(n_per_class=1, seed=3)
    net = build_small_network(input_size=16, n_classes=11, channels=4, hidden=16, seed=1)
    programs = compile_network(net, (2, 16, 16))
    evaluator = HardwareEvaluator(programs, PAPER_CONFIG.with_slices(2))
    return evaluator, data


class TestJobSpecs:
    def test_hash_is_stable_and_hex(self):
        a = dse_point_job(8)
        b = dse_point_job(8)
        assert a == b
        assert a.job_hash == b.job_hash
        assert len(a.job_hash) == 64
        int(a.job_hash, 16)

    def test_hash_distinguishes_parameters(self):
        hashes = {
            dse_point_job(8).job_hash,
            dse_point_job(4).job_hash,
            dse_point_job(8, voltage=0.9).job_hash,
            dse_point_job(8, utilization=0.5).job_hash,
            baseline_compare_job("Tianjic").job_hash,
        }
        assert len(hashes) == 5

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": (2, 3.5)}) == canonical_json(
            {"a": [2, 3.5], "b": 1}
        )

    def test_sample_job_hash_ignores_payload_tracks_content(self, tiny_eval):
        evaluator, data = tiny_eval
        j1 = evaluator.sample_jobs(data, max_samples=2)
        j2 = evaluator.sample_jobs(data, max_samples=2)
        assert [a.job_hash for a in j1] == [a.job_hash for a in j2]
        assert j1[0] == j2[0]  # payload excluded from equality
        assert j1[0].job_hash != j1[1].job_hash  # different streams

    def test_calibration_change_invalidates_analytic_hashes(self, monkeypatch):
        import repro.energy.power as power_mod

        before = dse_point_job(8).job_hash
        monkeypatch.setitem(power_mod.FIG5A_TOTAL_MW, 8, 99.9)
        assert dse_point_job(8).job_hash != before

    def test_dse_runner_matches_direct_models(self):
        from repro.energy import AreaModel, EfficiencyModel

        value = execute_job(dse_point_job(4))
        assert value["area_kge"] == pytest.approx(AreaModel().total_kge(4))
        assert value["efficiency_tsops_w"] == pytest.approx(
            EfficiencyModel().efficiency_tsops_w(PAPER_CONFIG.with_slices(4))
        )
        assert value["synthesised"] is True
        assert execute_job(dse_point_job(3))["synthesised"] is False


class TestExecutors:
    def test_serial_and_process_results_identical(self):
        jobs = dse_jobs(dse_grid(slices=(1, 2, 3, 4, 6, 8), voltages=(None, 0.9)))
        serial = SerialBackend().run(jobs)
        parallel = ProcessBackend(workers=2, chunk_size=3).run(jobs)
        assert [r.job_hash for r in serial] == [r.job_hash for r in parallel]
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert all(r.ok for r in parallel)

    def test_failure_is_structured_not_fatal(self):
        # Dynapsel publishes no efficiency figure -> the comparison raises.
        jobs = [
            dse_point_job(8),
            baseline_compare_job("Dynapsel"),
            baseline_compare_job("Tianjic"),
        ]
        results = SerialBackend().run(jobs)
        assert [r.ok for r in results] == [True, False, True]
        assert "ValueError" in results[1].error
        assert results[2].value["improvement_x"] == pytest.approx(3.55, abs=0.05)
        with pytest.raises(RuntimeError, match="failed"):
            results[1].unwrap()

    def test_process_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)
        with pytest.raises(ValueError):
            ProcessBackend(chunk_size=0)

    def test_run_jobs_preserves_order_with_partial_cache(self, tmp_path):
        cache = ResultStore(tmp_path)
        first = run_jobs([dse_point_job(2), dse_point_job(4)], cache=cache)
        assert first.stats.misses == 2
        jobs = [dse_point_job(n) for n in (1, 2, 4, 8)]
        mixed = run_jobs(jobs, cache=cache)
        assert [r.value["n_slices"] for r in mixed.results] == [1, 2, 4, 8]
        assert [r.cached for r in mixed.results] == [False, True, True, False]
        assert mixed.stats.hits == 2 and mixed.stats.misses == 2


class TestCache:
    def test_roundtrip_is_deterministic(self, tmp_path):
        cache = ResultStore(tmp_path)
        jobs = dse_jobs(dse_grid(slices=(1, 8)))
        cold = run_jobs(jobs, cache=cache)
        warm = run_jobs(jobs, cache=ResultStore(tmp_path))  # fresh instance
        assert warm.stats.hits == len(jobs) and warm.stats.misses == 0
        assert [r.value for r in warm.results] == [r.value for r in cold.results]
        assert all(r.cached for r in warm.results)

    def test_corrupted_entry_recomputed(self, tmp_path):
        cache = ResultStore(tmp_path)
        spec = dse_point_job(8)
        run_jobs([spec], cache=cache)
        cache.path(spec.job_hash).write_text("{ not json")
        again = run_jobs([spec], cache=cache)
        assert cache.stats.corrupt == 1
        assert again.stats.misses == 1 and again.results[0].ok
        # The recomputed entry is persisted again and valid.
        assert run_jobs([spec], cache=cache).stats.hits == 1

    def test_tampered_envelope_rejected(self, tmp_path):
        cache = ResultStore(tmp_path)
        spec = dse_point_job(4)
        run_jobs([spec], cache=cache)
        path = cache.path(spec.job_hash)
        entry = json.loads(path.read_text())
        entry["key"] = canonical_json({"n_slices": 999, "voltage": None, "utilization": 1.0})
        path.write_text(json.dumps(entry))
        assert cache.get(spec) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # corrupt file evicted

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        spec = dse_point_job(2)
        ResultStore(tmp_path).put(spec, execute_job(spec), 0.0)
        newer = ResultStore(tmp_path, schema_version=99)
        assert newer.get(spec) is None
        assert newer.stats.corrupt == 1

    def test_unremovable_corrupt_entry_degrades_to_miss(self, tmp_path, monkeypatch):
        import pathlib

        cache = ResultStore(tmp_path)
        spec = dse_point_job(8)
        run_jobs([spec], cache=cache)
        cache.path(spec.job_hash).write_text("{ not json")

        def broken_unlink(self, missing_ok=False):
            raise PermissionError("read-only cache")

        monkeypatch.setattr(pathlib.Path, "unlink", broken_unlink)
        assert cache.get(spec) is None  # miss, not a crash
        assert cache.stats.corrupt == 1

    def test_write_failure_degrades_to_uncached_results(self, tmp_path, monkeypatch):
        cache = ResultStore(tmp_path)

        def broken_put(spec, value, duration_s):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "put", broken_put)
        run = run_jobs([dse_point_job(n) for n in (1, 8)], cache=cache)
        assert all(r.ok for r in run.results)
        assert run.stats.cache_errors == 2
        assert "could not be cached" in run.stats.summary()
        assert len(cache) == 0

    def test_size_bytes_skips_entries_evicted_mid_scan(self, tmp_path, monkeypatch):
        # Regression: on a shared store another process can evict an
        # entry between the directory glob and the stat; size_bytes must
        # count the survivors instead of raising FileNotFoundError.
        import pathlib

        cache = ResultStore(tmp_path)
        specs = [dse_point_job(n) for n in (1, 2, 4)]
        run_jobs(specs, cache=cache)
        victim = cache.path(specs[1].job_hash)
        survivor_bytes = sum(
            cache.path(s.job_hash).stat().st_size for s in (specs[0], specs[2])
        )
        real_stat = pathlib.Path.stat

        def racing_stat(self, **kwargs):
            if self == victim:
                self.unlink(missing_ok=True)  # concurrent evictor wins the race
                raise FileNotFoundError(self)
            return real_stat(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racing_stat)
        assert cache.size_bytes() == survivor_bytes

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultStore(tmp_path)
        specs = [dse_point_job(n) for n in (1, 2)]
        run_jobs(specs, cache=cache)
        assert len(cache) == 2 and cache.size_bytes() > 0
        assert cache.invalidate(specs[0]) is True
        assert cache.invalidate(specs[0]) is False
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_invalidate_reports_false_when_a_concurrent_evictor_won(
        self, tmp_path, monkeypatch
    ):
        # An evictor that removes the entry while invalidate runs must
        # leave invalidate reporting False: True means this call removed it.
        import pathlib

        cache = ResultStore(tmp_path)
        spec = dse_point_job(2)
        run_jobs([spec], cache=cache)
        victim = cache.path(spec.job_hash)
        real_exists = pathlib.Path.exists
        evicted = []

        def racing_exists(self, *args, **kwargs):
            if self == victim and real_exists(self):
                self.unlink()  # the concurrent evictor wins the race
                evicted.append(self)
                return True
            return real_exists(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "exists", racing_exists)
        removed = cache.invalidate(spec)
        assert not real_exists(victim)
        assert removed == (not evicted)

    def test_invalidate_reports_false_when_entry_vanishes_before_unlink(
        self, tmp_path, monkeypatch
    ):
        import pathlib

        cache = ResultStore(tmp_path)
        spec = dse_point_job(2)
        run_jobs([spec], cache=cache)
        victim = cache.path(spec.job_hash)
        real_unlink = pathlib.Path.unlink

        def racing_unlink(self, missing_ok=False):
            if self == victim:
                real_unlink(self, missing_ok=True)  # the evictor got there first
            return real_unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(pathlib.Path, "unlink", racing_unlink)
        assert cache.invalidate(spec) is False


class TestSweep:
    def test_grid_enumeration_order(self):
        grid = SweepGrid([SweepAxis("a", (1, 2)), SweepAxis("b", ("x", "y"))])
        assert len(grid) == 4
        assert grid.points() == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid([])
        with pytest.raises(ValueError):
            SweepGrid([SweepAxis("a", (1,)), SweepAxis("a", (2,))])
        with pytest.raises(ValueError):
            SweepAxis("empty", ())

    def test_dse_sweep_rows_and_csv(self):
        report = run_dse_sweep(slices=(1, 8), voltages=(None, 0.9))
        assert report.ok
        assert len(report.rows) == 4
        rendered = report.render(title="t")
        assert "eff [TSOP/s/W]" in rendered and "nom" in rendered
        csv = report.to_csv()
        assert csv.splitlines()[0].startswith("slices,")
        assert len(csv.splitlines()) == 5

    def test_sweep_serial_parallel_cached_all_identical(self, tmp_path):
        kwargs = dict(slices=(1, 2, 4, 8), voltages=(None, 0.9))
        serial = run_dse_sweep(**kwargs)
        parallel = run_dse_sweep(executor=ProcessBackend(workers=2), **kwargs)
        cache = ResultStore(tmp_path)
        run_dse_sweep(cache=cache, **kwargs)
        cached = run_dse_sweep(cache=cache, **kwargs)
        assert serial.rows == parallel.rows == cached.rows
        assert cached.run.stats.hit_rate == 1.0


class TestProgress:
    def test_telemetry_records_every_job(self, tmp_path):
        cache = ResultStore(tmp_path)
        progress = RecordingProgress()
        jobs = [dse_point_job(n) for n in (1, 2, 4)]
        run_jobs(jobs, cache=cache, progress=progress)
        run_jobs(jobs, cache=cache, progress=progress)
        assert len(progress.results) == 6
        assert all(r.ok for r in progress.results)
        assert [r.cached for r in progress.results] == [False] * 3 + [True] * 3
        assert {r.kind for r in progress.results} == {"dse_point"}

    def test_console_progress_reports_failures(self, capsys):
        import io

        stream = io.StringIO()
        progress = ConsoleProgress(stream=stream)
        run_jobs([dse_point_job(8), baseline_compare_job("Dynapsel")], progress=progress)
        text = stream.getvalue()
        assert "2 job(s) queued" in text
        assert "FAILED baseline_compare" in text
        assert "1 failed" in text


class TestHardwareEvaluatorRuntime:
    def test_parallel_evaluate_matches_serial(self, tiny_eval):
        evaluator, data = tiny_eval
        serial = evaluator.evaluate(data, max_samples=4)
        parallel = evaluator.evaluate(
            data, max_samples=4, executor=ProcessBackend(workers=2, chunk_size=1)
        )
        assert serial.results == parallel.results
        assert serial.accuracy == parallel.accuracy

    def test_sample_cache_roundtrip(self, tiny_eval, tmp_path):
        evaluator, data = tiny_eval
        cache = ResultStore(tmp_path)
        jobs = evaluator.sample_jobs(data, max_samples=3)
        cold = run_jobs(jobs, cache=cache)
        warm = run_jobs(evaluator.sample_jobs(data, max_samples=3), cache=cache)
        assert cold.stats.misses == 3
        assert warm.stats.hits == 3 and warm.stats.misses == 0
        assert report_from_job_results(warm.results) == report_from_job_results(
            cold.results
        )
        # Cached evaluation through the evaluator front door agrees too.
        assert evaluator.evaluate(data, max_samples=3, cache=cache).results == (
            report_from_job_results(cold.results).results
        )

    def test_progress_only_evaluate_stays_inline_and_reports(self, tiny_eval):
        evaluator, data = tiny_eval
        progress = RecordingProgress()
        report = evaluator.evaluate(data, max_samples=2, progress=progress)
        assert len(progress.results) == 2
        assert all(r.ok and not r.cached for r in progress.results)
        assert report.results == evaluator.evaluate(data, max_samples=2).results

    def test_max_samples_zero_rejected(self, tiny_eval):
        evaluator, data = tiny_eval
        with pytest.raises(ValueError, match="max_samples"):
            evaluator.evaluate(data, max_samples=0)
        with pytest.raises(ValueError, match="max_samples"):
            evaluator.sample_jobs(data, max_samples=0)

    def test_config_change_invalidates_sample_hash(self, tiny_eval):
        evaluator, data = tiny_eval
        other = HardwareEvaluator(evaluator.programs, PAPER_CONFIG.with_slices(4))
        a = evaluator.sample_jobs(data, max_samples=1)[0]
        b = other.sample_jobs(data, max_samples=1)[0]
        assert a.job_hash != b.job_hash

    def test_precomputed_deployment_fingerprint_matches_inline(self, tiny_eval):
        from repro.runtime import deployment_fingerprint, sample_eval_job

        evaluator, data = tiny_eval
        sample = data.samples[0]
        inline = sample_eval_job(
            evaluator.programs, evaluator.config, sample.stream, sample.label,
            power=evaluator.power,
        )
        shared = deployment_fingerprint(
            evaluator.programs, evaluator.config, evaluator.power
        )
        hoisted = sample_eval_job(
            evaluator.programs, evaluator.config, sample.stream, sample.label,
            power=evaluator.power, deployment=shared,
        )
        assert inline.job_hash == hoisted.job_hash
