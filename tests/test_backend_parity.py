"""Cross-backend differential parity harness.

Every backend registered in :mod:`repro.runtime.backends` must be a
drop-in replacement for ``serial``: same ordered results (byte-identical
payloads), same structured failures in the same positions, same
hit/miss statistics when replayed against a shared store, same
progress-callback sequence.  The harness below runs one *mixed* job
list — design-space points, Table I energy queries, Table II baseline
comparisons including two that raise — through every registered
backend and diffs everything against the serial reference, so a new
backend (a cluster dispatcher, a mock) is automatically held to the
contract the moment it is registered.
"""

import json

import numpy as np
import pytest

from repro.runtime import (
    JobSpec,
    Progress,
    ResultStore,
    available_backends,
    baseline_compare_job,
    canonical_json,
    dse_point_job,
    inference_energy_job,
    make_backend,
    register_backend,
    register_runner,
    run_jobs,
)
from repro.runtime.backends import _BACKENDS, SerialBackend
from repro.runtime.jobs import calibration_fingerprint


class RecordingProgress(Progress):
    """Keeps every ``on_job`` result, in callback order."""

    def __init__(self):
        self.results = []

    def on_job(self, done, total, result):
        self.results.append(result)


# Registered at import time so fork-started pool and fleet workers
# inherit it.
@register_runner("parity_numpy_scalar")
def _run_numpy_scalar(params, payload):
    return {"x": np.int64(params["x"])}


def mixed_jobs():
    """DSE + energy + baseline jobs, with three deliberate failures.

    ``Dynapsel`` publishes no efficiency figure (ValueError inside the
    runner), ``NoSuchChip`` is an unknown platform (KeyError) and the
    ``parity_numpy_scalar`` runner returns a value JSON cannot encode,
    so the list exercises all three failure shapes in fixed positions.
    ``baseline_compare_job`` refuses unknown platforms, so the
    ``NoSuchChip`` spec is built from its key, as a spool document
    would carry it.
    """
    return [
        dse_point_job(1),
        baseline_compare_job("Dynapsel"),        # fails: no efficiency figure
        dse_point_job(8, voltage=0.9),
        inference_energy_job("ibm_dvs_gesture", n_slices=8),
        dse_point_job(4, utilization=0.5),
        JobSpec(kind="baseline_compare",         # fails: unknown platform
                key=canonical_json({"platform": "NoSuchChip", "n_slices": 8,
                                    "calibration": calibration_fingerprint()})),
        inference_energy_job("nmnist", n_slices=4),
        JobSpec(kind="parity_numpy_scalar",      # fails: np.int64 value
                key=canonical_json({"x": 1})),
        baseline_compare_job("Tianjic"),
        dse_point_job(2, voltage=0.7, utilization=0.25),
    ]


FAILING_POSITIONS = (1, 5, 7)


def payload_bytes(report):
    """The run's ordered results as canonical bytes (sans timings)."""
    return json.dumps(
        [
            {"hash": r.job_hash, "kind": r.kind, "ok": r.ok,
             "value": r.value, "error": r.error}
            for r in report.results
        ],
        sort_keys=True,
    ).encode()


@pytest.fixture(scope="module")
def serial_reference():
    return run_jobs(mixed_jobs(), executor="serial")


class TestBackendParity:
    @pytest.mark.parametrize("name", available_backends())
    def test_payloads_byte_identical_to_serial(self, name, serial_reference):
        run = run_jobs(mixed_jobs(), executor=make_backend(name, workers=3))
        assert payload_bytes(run) == payload_bytes(serial_reference)

    @pytest.mark.parametrize("name", available_backends())
    def test_failure_positions_and_structure(self, name):
        run = run_jobs(mixed_jobs(), executor=make_backend(name, workers=2))
        assert tuple(i for i, r in enumerate(run.results) if not r.ok) == (
            FAILING_POSITIONS
        )
        assert "ValueError" in run.results[FAILING_POSITIONS[0]].error
        assert "KeyError" in run.results[FAILING_POSITIONS[1]].error
        assert run.results[FAILING_POSITIONS[2]].error == (
            "TypeError: result not JSON-serialisable: "
            "Object of type int64 is not JSON serializable")
        assert run.stats.failures == len(FAILING_POSITIONS)
        for r in run.results:
            assert r.ok == (r.value is not None)
            assert r.ok == (r.error is None)

    @pytest.mark.parametrize("name", available_backends())
    def test_replay_stats_identical_on_shared_store(self, name, tmp_path):
        jobs = mixed_jobs()
        store = ResultStore(tmp_path / name)
        cold = run_jobs(jobs, executor=make_backend(name, workers=2), cache=store)
        assert (cold.stats.hits, cold.stats.misses, cold.stats.failures) == (
            0, len(jobs) - len(FAILING_POSITIONS), len(FAILING_POSITIONS)
        )
        warm = run_jobs(jobs, executor=make_backend(name, workers=2), cache=store)
        # Successes replay from the store; failures are never cached and
        # recompute — identically — on every backend.
        assert (warm.stats.hits, warm.stats.misses, warm.stats.failures) == (
            len(jobs) - len(FAILING_POSITIONS), 0, len(FAILING_POSITIONS)
        )
        assert payload_bytes(warm) == payload_bytes(cold)

    def test_cross_backend_store_reuse(self, tmp_path):
        """A store filled by one backend serves every other backend."""
        jobs = mixed_jobs()
        store = ResultStore(tmp_path)
        run_jobs(jobs, executor="serial", cache=store)
        for name in available_backends():
            warm = run_jobs(jobs, executor=make_backend(name, workers=2), cache=store)
            assert warm.stats.misses == 0
            assert warm.stats.hits == len(jobs) - len(FAILING_POSITIONS)

    @pytest.mark.parametrize("name", available_backends())
    def test_progress_callback_sequence_is_serial_order(self, name):
        progress = RecordingProgress()
        run_jobs(mixed_jobs(), executor=make_backend(name, workers=3),
                 progress=progress)
        assert [r.kind for r in progress.results] == [
            s.kind for s in mixed_jobs()
        ]
        assert [r.ok for r in progress.results] == [
            i not in FAILING_POSITIONS for i in range(len(mixed_jobs()))
        ]

    @pytest.mark.parametrize("name", available_backends())
    def test_empty_job_list(self, name):
        run = run_jobs([], executor=make_backend(name, workers=2))
        assert run.results == () and run.stats.total == 0


class TestSampleEvalParity:
    """sample_eval is the one job kind with a live payload (shared
    compiled programs, event streams) driving the cycle-level SNE
    simulator — the path where a thread-unsafety bug would hide, since
    the thread backend shares those payload objects across workers."""

    @pytest.fixture(scope="class")
    def hw_jobs(self):
        from repro.events import SyntheticDVSGesture
        from repro.hw import PAPER_CONFIG, HardwareEvaluator, compile_network
        from repro.snn import build_small_network

        data = SyntheticDVSGesture(size=16, n_steps=6).generate(n_per_class=1, seed=5)
        net = build_small_network(input_size=16, n_classes=11, channels=4,
                                  hidden=16, seed=4)
        evaluator = HardwareEvaluator(
            compile_network(net, (2, 16, 16)), PAPER_CONFIG.with_slices(2)
        )
        return evaluator.sample_jobs(data, max_samples=4)

    @pytest.mark.parametrize("name", available_backends())
    def test_simulator_results_identical_across_backends(self, name, hw_jobs):
        from repro.hw import report_from_job_results

        reference = run_jobs(hw_jobs, executor="serial")
        run = run_jobs(hw_jobs, executor=make_backend(name, workers=2))
        assert payload_bytes(run) == payload_bytes(reference)
        assert report_from_job_results(run.results).accuracy == (
            report_from_job_results(reference.results).accuracy
        )


class TestRegistry:
    def test_shipped_backends_registered(self):
        assert {"serial", "thread", "process"} <= set(available_backends())

    def test_unknown_backend_is_a_clean_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("warp-drive")
        with pytest.raises(ValueError, match="unknown backend"):
            run_jobs([dse_point_job(1)], executor="warp-drive")

    def test_nonpositive_workers_rejected_everywhere(self):
        for name in available_backends():
            with pytest.raises(ValueError):
                make_backend(name, workers=0)

    def test_duplicate_registration_rejected_without_override(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_backend("serial")
            class Impostor:
                pass
        assert isinstance(make_backend("serial"), SerialBackend)

    def test_custom_backend_joins_the_contract(self):
        """A newly registered backend is resolvable by name and is held
        to the same parity expectations as the shipped ones."""

        @register_backend("reversing")
        class ReversingBackend:
            # Deliberately runs specs back-to-front but returns results
            # in input order — the ordering contract is on the output.
            name = "reversing"

            def __init__(self, workers=None):
                self.workers = workers or 1

            def run(self, specs, on_result=None):
                by_spec = {id(s): None for s in specs}
                for spec in reversed(list(specs)):
                    by_spec[id(spec)] = SerialBackend().run([spec])[0]
                out = list(by_spec.values())
                if on_result is not None:
                    for r in out:
                        on_result(r)
                return out

        try:
            assert "reversing" in available_backends()
            reference = run_jobs(mixed_jobs(), executor="serial")
            run = run_jobs(mixed_jobs(), executor="reversing")
            assert payload_bytes(run) == payload_bytes(reference)
        finally:
            _BACKENDS.pop("reversing", None)

    def test_canonical_key_equality_underpins_parity(self):
        # Two independently built identical specs — the property that
        # lets different backends and processes share one store.
        a, b = dse_point_job(6, voltage=0.85), dse_point_job(6, voltage=0.85)
        assert a.job_hash == b.job_hash
        assert canonical_json({"x": (1, 2)}) == canonical_json({"x": [1, 2]})


class TestSampleBatchGrouping:
    """Backends run consecutive compatible sample_eval jobs as one stacked
    batch.  A mixed list — two deployments, a dse_point between them, a
    kernel-pinned job and one sample job that raises inside a batch —
    must give the values of running every job alone, on every backend,
    with the one failure in place and carrying its own traceback."""

    FAILING = 2

    @pytest.fixture(scope="class")
    def grouped_jobs(self):
        from repro.events import SyntheticDVSGesture
        from repro.hw import PAPER_CONFIG, HardwareEvaluator, compile_network
        from repro.runtime import JobSpec
        from repro.snn import build_small_network

        data = SyntheticDVSGesture(size=16, n_steps=6).generate(n_per_class=1, seed=5)
        net = build_small_network(input_size=16, n_classes=11, channels=4,
                                  hidden=16, seed=4)
        programs = compile_network(net, (2, 16, 16))
        one = HardwareEvaluator(programs, PAPER_CONFIG.with_slices(2))
        two = HardwareEvaluator(programs, PAPER_CONFIG.with_slices(4))
        a = one.sample_jobs(data, max_samples=5)
        b = two.sample_jobs(data, max_samples=3)
        # Same key (so same batch), but a stream whose envelope the
        # network does not accept: the batch raises, this job alone fails.
        bad = JobSpec(a[2].kind, a[2].key, {
            **a[2].payload, "stream": a[2].payload["stream"].pad_spatial(18, 18)})
        # Sample 0 again, but pinned to a kernel: a batch of its own that
        # splits the run of `one`'s jobs around it.
        pinned = one.sample_jobs(data, max_samples=1, kernel="numpy")[0]
        return [a[0], a[1], bad, a[3], dse_point_job(4), b[0], b[1], b[2], pinned, a[4]]

    @staticmethod
    def comparable(results):
        return [(r.job_hash, r.ok, r.value) for r in results]

    def test_runs_split_on_deployment_kind_and_kernel(self, grouped_jobs):
        from repro.runtime.backends import _batches

        assert [len(run) for run in _batches(grouped_jobs)] == [4, 1, 3, 1, 1]

    @pytest.mark.parametrize("name", ["serial", "thread", "process", "cluster"])
    def test_backends_match_running_each_job_alone(self, name, grouped_jobs):
        from repro.runtime.backends import _execute_one

        alone = [_execute_one(spec) for spec in grouped_jobs]
        run = run_jobs(grouped_jobs, executor=make_backend(name, workers=2))
        assert self.comparable(run.results) == self.comparable(alone)
        assert [i for i, r in enumerate(run.results) if not r.ok] == [self.FAILING]
        error = run.results[self.FAILING].error
        assert error.startswith("ValueError: stream envelope") and "Traceback" in error
        assert run.results[8].value == run.results[0].value

    def test_batch_members_share_the_batch_wall_time(self, grouped_jobs):
        results = SerialBackend().run(grouped_jobs)
        batch = [r.duration_s for r in results[5:8]]
        assert batch[0] > 0 and batch.count(batch[0]) == 3
        # The batch that raised re-ran job by job: own timings.
        assert len({r.duration_s for r in results[:4]}) == 4

    def test_on_result_fires_once_per_job_in_order(self, grouped_jobs):
        seen = []
        SerialBackend().run(grouped_jobs, on_result=seen.append)
        assert [r.job_hash for r in seen] == [s.job_hash for s in grouped_jobs]
