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
import pickle

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
    JobResult,
    JobSpec,
    MetricsRegistry,
    ProcessBackend,
    Progress,
    ResultStore,
    RunReport,
    SerialBackend,
    SweepAxis,
    SweepGrid,
    baseline_compare_job,
    calibration_fingerprint,
    canonical_json,
    dse_grid,
    dse_jobs,
    dse_point_job,
    execute_job,
    obs,
    register_runner,
    run_dse_sweep,
    run_jobs,
    spec_from_doc,
    spec_to_doc,
)
from repro.snn import build_small_network


@register_runner("runtime_returns_list")
def _run_returns_list(params, payload):
    return [1, 2, 3]


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


#: ``calibration_fingerprint()`` and ``dse_point_job(8).job_hash`` of the
#: shipped calibration tables (unchanged since before the memo).
PINNED_CALIBRATION = "5ece49786aa99281"
PINNED_DSE8_HASH = "456537df570f4b49b376dfbd54315aca59e008fd28b3df4f1ba5d04887aa99f9"


class TestJobIdentityOnce:
    """A job's identity costs one computation per distinct input: the
    calibration digest is memoised on the exact table content, and a
    spec hashes its key once."""

    def test_fingerprint_and_hash_are_pinned(self):
        assert calibration_fingerprint() == PINNED_CALIBRATION
        assert dse_point_job(8).job_hash == PINNED_DSE8_HASH

    def test_equal_but_differently_encoded_edits_change_the_fingerprint(
            self, monkeypatch):
        import repro.energy.area as area_mod
        import repro.energy.power as power_mod

        # (30, ...) == (30.0, ...) and 0.0 == -0.0, but the canonical
        # encoding tells each pair apart, so the memo must as well.
        monkeypatch.setitem(area_mod.FIG4_ANCHORS, "streamers", (30, 30, 30, 30))
        assert calibration_fingerprint() != PINNED_CALIBRATION
        monkeypatch.undo()
        assert calibration_fingerprint() == PINNED_CALIBRATION

        monkeypatch.setitem(power_mod.FIG5B_PJ_PER_SOP, 8, 0.0)
        positive_zero = calibration_fingerprint()
        monkeypatch.setitem(power_mod.FIG5B_PJ_PER_SOP, 8, -0.0)
        negative_zero = calibration_fingerprint()
        assert len({positive_zero, negative_zero, PINNED_CALIBRATION}) == 3
        monkeypatch.undo()
        assert calibration_fingerprint() == PINNED_CALIBRATION

    def test_rebound_tables_change_the_fingerprint(self, monkeypatch):
        import repro.energy.power as power_mod
        import repro.energy.technology as tech_mod

        monkeypatch.setattr(power_mod, "FIG5A_TOTAL_MW",
                            {**power_mod.FIG5A_TOTAL_MW, 8: 99.9})
        assert calibration_fingerprint() != PINNED_CALIBRATION
        monkeypatch.undo()
        assert calibration_fingerprint() == PINNED_CALIBRATION

        monkeypatch.setattr(tech_mod, "GF22FDX",
                            tech_mod.TechnologyParams(nd2_area_um2=0.2))
        assert calibration_fingerprint() != PINNED_CALIBRATION
        monkeypatch.setattr(power_mod.PowerModel, "gating_residual", 0.25)
        assert calibration_fingerprint() != PINNED_CALIBRATION
        monkeypatch.undo()
        assert calibration_fingerprint() == PINNED_CALIBRATION

    def test_unmarshalable_tables_skip_the_memo(self, monkeypatch):
        import numpy as np

        import repro.energy.area as area_mod

        # numpy scalars canonicalise like Python floats but have no
        # memo key: every call digests the live content.
        monkeypatch.setitem(area_mod.FIG4_ANCHORS, "streamers",
                            tuple(np.float32(30.0) for _ in range(4)))
        assert calibration_fingerprint() == PINNED_CALIBRATION
        monkeypatch.setitem(area_mod.FIG4_ANCHORS, "streamers",
                            tuple(np.float32(31.0) for _ in range(4)))
        assert calibration_fingerprint() != PINNED_CALIBRATION
        monkeypatch.undo()
        assert calibration_fingerprint() == PINNED_CALIBRATION

    def test_requests_digest_the_calibration_once(self, monkeypatch):
        import repro.energy.power as power_mod
        from repro.runtime import jobs as jobs_mod
        from repro.runtime.serve import request_to_spec

        digested = []
        real = jobs_mod.canonical_json

        def counting(obj):
            if isinstance(obj, dict) and "fig4_anchors" in obj:
                digested.append(obj)
            return real(obj)

        monkeypatch.setattr(jobs_mod, "canonical_json", counting)
        # New table content, so the first request cannot hit a memo.
        monkeypatch.setitem(power_mod.FIG5B_PJ_PER_SOP, 8, 0.25)
        specs = [request_to_spec({"id": i, "kind": "dse_point",
                                  "params": {"n_slices": 8}})
                 for i in range(100)]
        assert len(digested) == 1
        assert len({spec.job_hash for spec in specs}) == 1
        assert specs[0].job_hash != PINNED_DSE8_HASH

    def test_job_hash_is_computed_once_per_spec(self, monkeypatch):
        import hashlib

        key = dse_point_job(8).key
        hashed = []
        real = hashlib.sha256

        def counting(*args):
            hashed.append(args)
            return real(*args)

        monkeypatch.setattr(hashlib, "sha256", counting)
        spec = JobSpec(kind="dse_point", key=key)
        assert {spec.job_hash for _ in range(10)} == {PINNED_DSE8_HASH}
        assert len(hashed) == 1
        assert "job_hash" not in repr(spec)
        with pytest.raises(TypeError):
            JobSpec(kind="dse_point", key=key, job_hash="0" * 64)

    def test_copies_carry_the_same_hash(self, tiny_eval):
        evaluator, data = tiny_eval
        for spec in [dse_point_job(8), *evaluator.sample_jobs(data, max_samples=2)]:
            for copy in (pickle.loads(pickle.dumps(spec)),
                         spec_from_doc(spec_to_doc(spec))):
                assert copy == spec
                assert copy.job_hash == spec.job_hash

    def test_numpy_floats_hash_like_builtin_floats(self):
        import numpy as np

        # np.float64 subclasses float; its numpy-2 repr is not a float
        # literal, so canonicalisation must not round-trip through repr.
        assert canonical_json(np.float64(0.5)) == canonical_json(0.5) == "0.5"
        assert (dse_point_job(8, voltage=np.float64(0.9)).job_hash
                == dse_point_job(8, voltage=0.9).job_hash)
        voltages = np.linspace(0.6, 0.9, 4)
        jobs = dse_jobs(dse_grid(slices=(8,), voltages=voltages))
        assert [j.job_hash for j in jobs] == [
            dse_point_job(8, voltage=float(v)).job_hash for v in voltages]
        assert canonical_json(np.float64(-0.0)) == canonical_json(-0.0) == "-0.0"
        assert (dse_point_job(8, voltage=0.0).job_hash
                != dse_point_job(8, voltage=-0.0).job_hash)
        assert dse_point_job(8).job_hash == PINNED_DSE8_HASH


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
        assert first.misses == 2
        jobs = [dse_point_job(n) for n in (1, 2, 4, 8)]
        mixed = run_jobs(jobs, cache=cache)
        assert [r.value["n_slices"] for r in mixed.results] == [1, 2, 4, 8]
        assert [r.cached for r in mixed.results] == [False, True, True, False]
        assert mixed.hits == 2 and mixed.misses == 2


    def test_run_jobs_rejects_a_short_result_list(self):
        class Lossy:
            name = "lossy"
            workers = 1

            def run(self, specs, on_result=None):
                return []

        with pytest.raises(RuntimeError, match=r"'lossy' returned 0 results for 2 specs"):
            run_jobs([dse_point_job(1), dse_point_job(2)], executor=Lossy())


class TestRunReport:
    """The report's counts are derived from its results alone."""

    @staticmethod
    def _result(ok=True, cached=False):
        return JobResult(job_hash="h", kind="k", ok=ok, value={} if ok else None,
                         error=None if ok else "boom", duration_s=0.0, cached=cached)

    def test_summary_text_is_pinned(self):
        r = self._result
        report = RunReport(results=(r(cached=True), r(cached=True), r(), r(ok=False)),
                           backend="process", workers=2, elapsed_s=1.25,
                           cache_errors=1)
        assert report.summary() == (
            "4 job(s) via processx2 in 1.250s — 2 cache hit(s), 1 computed, "
            "1 failed (hit rate 50%); 1 result(s) could not be cached")

    def test_job_counter_equals_the_derived_counts(self, tmp_path):
        cache = ResultStore(tmp_path)
        run_jobs([dse_point_job(2), dse_point_job(4)], cache=cache)
        jobs = [dse_point_job(n) for n in (1, 2, 4)] + [baseline_compare_job("Dynapsel")]
        old = obs.set_registry(MetricsRegistry())
        try:
            run = run_jobs(jobs, cache=cache)
            series = obs.get_registry().snapshot()["metrics"]["repro_jobs_total"]["series"]
        finally:
            obs.set_registry(old)
        counted = {}
        for s in series:
            status = s["labels"]["status"]
            counted[status] = counted.get(status, 0) + s["value"]
        assert (run.hits, run.misses, len(run.failures())) == (2, 1, 1)
        assert counted == {"cached": run.hits, "ok": run.misses,
                           "failed": len(run.failures())}


@pytest.fixture
def store_events():
    """A fresh process-wide obs registry; ``store_events(op)`` reads its
    ``repro_store_events_total{op=…}``."""
    old = obs.set_registry(MetricsRegistry())
    try:
        counter = obs.get_registry().counter("repro_store_events_total")
        yield lambda op: counter.value(op=op)
    finally:
        obs.set_registry(old)


class TestCache:
    def test_roundtrip_is_deterministic(self, tmp_path):
        cache = ResultStore(tmp_path)
        jobs = dse_jobs(dse_grid(slices=(1, 8)))
        cold = run_jobs(jobs, cache=cache)
        warm = run_jobs(jobs, cache=ResultStore(tmp_path))  # fresh instance
        assert warm.hits == len(jobs) and warm.misses == 0
        assert [r.value for r in warm.results] == [r.value for r in cold.results]
        assert all(r.cached for r in warm.results)

    def test_corrupted_entry_recomputed(self, tmp_path, store_events):
        cache = ResultStore(tmp_path)
        spec = dse_point_job(8)
        run_jobs([spec], cache=cache)
        cache.path(spec.job_hash).write_text("{ not json")
        again = run_jobs([spec], cache=cache)
        assert store_events("corrupt") == 1
        assert again.misses == 1 and again.results[0].ok
        # The recomputed entry is persisted again and valid.
        assert run_jobs([spec], cache=cache).hits == 1

    def test_tampered_envelope_rejected(self, tmp_path, store_events):
        cache = ResultStore(tmp_path)
        spec = dse_point_job(4)
        run_jobs([spec], cache=cache)
        path = cache.path(spec.job_hash)
        entry = json.loads(path.read_text())
        entry["key"] = canonical_json({"n_slices": 999, "voltage": None, "utilization": 1.0})
        path.write_text(json.dumps(entry))
        assert cache.get(spec) is None
        assert store_events("corrupt") == 1
        assert not path.exists()  # corrupt file evicted

    def test_schema_version_mismatch_is_a_miss(self, tmp_path, store_events):
        spec = dse_point_job(2)
        ResultStore(tmp_path).put(spec, JobResult(
            spec.job_hash, spec.kind, True, execute_job(spec), None, 0.0))
        newer = ResultStore(tmp_path, schema_version=99)
        assert newer.get(spec) is None
        assert store_events("corrupt") == 1

    def test_unremovable_corrupt_entry_degrades_to_miss(self, tmp_path, monkeypatch,
                                                        store_events):
        import pathlib

        cache = ResultStore(tmp_path)
        spec = dse_point_job(8)
        run_jobs([spec], cache=cache)
        cache.path(spec.job_hash).write_text("{ not json")

        def broken_unlink(self, missing_ok=False):
            raise PermissionError("read-only cache")

        monkeypatch.setattr(pathlib.Path, "unlink", broken_unlink)
        assert cache.get(spec) is None  # miss, not a crash
        assert store_events("corrupt") == 1

    def test_write_failure_degrades_to_uncached_results(self, tmp_path, monkeypatch):
        import tempfile

        cache = ResultStore(tmp_path)

        def full_disk(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(tempfile, "mkstemp", full_disk)
        old = obs.set_registry(MetricsRegistry())
        try:
            run = run_jobs([dse_point_job(n) for n in (1, 8)], cache=cache)
            put_errors = obs.get_registry().counter(
                "repro_store_events_total").value(op="put_error")
        finally:
            obs.set_registry(old)
        assert all(r.ok for r in run.results)
        assert run.cache_errors == 2
        assert put_errors == 2
        assert "could not be cached" in run.summary()
        assert len(cache) == 0

    def test_non_dict_runner_value_fails_and_is_never_stored(self, tmp_path,
                                                             store_events):
        cache = ResultStore(tmp_path)
        spec = JobSpec(kind="runtime_returns_list", key=canonical_json({}))
        for _ in range(3):
            run = run_jobs([spec], cache=cache)
            (result,) = run.results
            assert not result.ok and result.value is None
            assert result.error == "TypeError: result must be a dict, not list"
            assert len(run.failures()) == 1 and run.cache_errors == 0
        assert (store_events("hit"), store_events("corrupt")) == (0, 0)
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
        assert cached.run.hit_rate == 1.0


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
        assert cold.misses == 3
        assert warm.hits == 3 and warm.misses == 0
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

    def test_run_samples_equals_run_sample(self, tiny_eval):
        evaluator, data = tiny_eval
        streams = [s.stream for s in data.samples[:4]]
        labels = [s.label for s in data.samples[:4]]
        batch = evaluator.run_samples(streams, labels)
        assert batch == [evaluator.run_sample(s, y) for s, y in zip(streams, labels)]

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
