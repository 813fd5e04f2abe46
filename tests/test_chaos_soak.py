"""Chaos-soak harness: seeded fault scheduler and the soak scenario.

The fast tests pin what CI relies on — a fixed seed yields a fixed
fault plan, faults land in place without planting phantom spool files,
traffic jobs are pure functions of their key.  The scenario tests run
the real supervised fleet under fire: a short smoke (``slow``) in
tier-1 and the full acceptance soak behind ``--run-soak``
(``make test-soak``), which asserts the ISSUE gate: >=3 kills, >=2
corrupt-spool injections and a forced eviction, with merged results
bit-identical to serial and no chunk lost or double-counted.
"""

import time

import pytest

from repro.runtime import JobResult, ResultStore
from repro.runtime.chaos import (
    _GARBAGE,
    ChaosScheduler,
    SoakReport,
    chaos_job,
    run_chaos_soak,
)


def make_spool(tmp_path):
    spool = tmp_path / "spool"
    for sub in ("chunks", "claims", "results"):
        (spool / sub).mkdir(parents=True)
    return spool


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSchedule:
    def test_fixed_seed_fixes_the_fault_plan(self, tmp_path):
        spool = make_spool(tmp_path)
        kw = dict(duration_s=6.0, kills=3, chunk_corruptions=2,
                  result_corruptions=1, evictions=1)
        a = ChaosScheduler(spool, seed=42, **kw)
        b = ChaosScheduler(spool, seed=42, **kw)
        c = ChaosScheduler(spool, seed=43, **kw)
        plan = [(f.kind, f.at_s) for f in a.faults]
        assert plan == [(f.kind, f.at_s) for f in b.faults]
        assert plan != [(f.kind, f.at_s) for f in c.faults]

    def test_plan_counts_and_timeline_bounds(self, tmp_path):
        sched = ChaosScheduler(make_spool(tmp_path), seed=7, duration_s=10.0,
                               kills=3, chunk_corruptions=2,
                               result_corruptions=1, evictions=1)
        kinds = [f.kind for f in sched.faults]
        assert kinds.count("kill_worker") == 3
        assert kinds.count("corrupt_chunk") == 2
        assert kinds.count("corrupt_result") == 1
        assert kinds.count("evict_store") == 1
        assert all(0.0 < f.at_s < 10.0 for f in sched.faults)
        assert [f.at_s for f in sched.faults] == sorted(
            f.at_s for f in sched.faults)

    def test_duration_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ChaosScheduler(make_spool(tmp_path), duration_s=0)


class TestFaultApplication:
    def _scheduler(self, spool, **kw):
        base = dict(seed=1, duration_s=0.05, kills=0, chunk_corruptions=0,
                    result_corruptions=0, evictions=0, retry_s=0.002)
        base.update(kw)
        return ChaosScheduler(spool, **base)

    def test_corrupt_chunk_overwrites_in_place(self, tmp_path):
        spool = make_spool(tmp_path)
        path = spool / "chunks" / "c0.chunk"
        path.write_text('{"jobs": []}')
        sched = self._scheduler(spool, chunk_corruptions=1).start()
        try:
            assert wait_for(sched.done)
        finally:
            sched.stop()
        assert sched.applied("corrupt_chunk") == 1
        assert path.read_bytes() == _GARBAGE
        # In place: nothing new appeared in the spool.
        assert [p.name for p in (spool / "chunks").iterdir()] == ["c0.chunk"]

    def test_corrupt_result_tears_the_file(self, tmp_path):
        spool = make_spool(tmp_path)
        path = spool / "results" / "c0.json"
        path.write_text('{"chunk": "c0"}')
        sched = self._scheduler(spool, result_corruptions=1).start()
        try:
            assert wait_for(sched.done)
        finally:
            sched.stop()
        assert sched.applied("corrupt_result") == 1
        assert path.read_bytes() == _GARBAGE

    def test_fault_without_target_waits_never_fabricates(self, tmp_path):
        # No chunk exists: the fault must hunt, not plant a phantom file.
        spool = make_spool(tmp_path)
        sched = self._scheduler(spool, chunk_corruptions=1).start()
        time.sleep(0.15)  # well past the planned fault time
        assert sched.applied() == 0
        assert list((spool / "chunks").iterdir()) == []
        # A target appears; the pending fault lands on it.
        (spool / "chunks" / "late.chunk").write_text("{}")
        try:
            assert wait_for(sched.done)
        finally:
            sched.stop()
        assert sched.applied("corrupt_chunk") == 1

    def test_stop_abandons_pending_faults(self, tmp_path):
        spool = make_spool(tmp_path)
        sched = self._scheduler(spool, kills=1).start()  # no victims ever
        time.sleep(0.1)
        sched.stop()
        assert sched.applied() == 0
        assert sched.done()
        sched.stop()  # idempotent

    def test_evict_store_forces_a_full_eviction(self, tmp_path):
        spool = make_spool(tmp_path)
        store = ResultStore(tmp_path / "cache")
        for i in range(4):
            spec = chaos_job(seed=1, round_no=0, i=i)
            store.put(spec, JobResult(spec.job_hash, spec.kind, True,
                                      {"x": i, "squared": i * i, "round": 0},
                                      None, 0.0))
        sched = self._scheduler(spool, evictions=1, store=store).start()
        try:
            assert wait_for(sched.done)
        finally:
            sched.stop()
        assert sched.applied("evict_store") == 1
        assert all(store.get(chaos_job(seed=1, round_no=0, i=i)) is None
                   for i in range(4))


class TestTrafficAndReport:
    def test_chaos_job_is_deterministic_per_key(self):
        a = chaos_job(seed=3, round_no=1, i=5)
        b = chaos_job(seed=3, round_no=1, i=5)
        assert a.job_hash == b.job_hash
        assert chaos_job(seed=3, round_no=1, i=6).job_hash != a.job_hash
        assert chaos_job(seed=4, round_no=1, i=5).job_hash != a.job_hash

    def test_summary_carries_the_verdict(self):
        report = SoakReport(
            ok=False, mismatch="round 1: values diverged", rounds=2, jobs=48,
            kills=3, chunk_corruptions=2, result_corruptions=1, evictions=1,
            chunks_submitted=24, chunks_completed=23, requeues=5,
            chunk_failures=1, recoveries=[0.2, 0.4], workers_peak=3,
            elapsed_s=7.5)
        line = report.summary()
        assert "FAILED" in line and "values diverged" in line
        assert "3 kill(s)" in line and "3 corruption(s)" in line
        assert "worst 0.40s" in line
        report.ok, report.mismatch = True, None
        assert "OK" in report.summary()


@pytest.mark.slow
class TestSoakSmoke:
    def test_short_soak_is_bit_identical(self, tmp_path):
        """Tier-1 smoke: one round, one kill, one corrupt chunk."""
        report = run_chaos_soak(
            tmp_path / "spool", cache_dir=None, seed=11, rounds=1,
            jobs_per_round=12, chunk_size=2, job_sleep_s=0.02,
            min_workers=1, max_workers=2, lease_ttl_s=1.0,
            kills=1, chunk_corruptions=1, result_corruptions=0,
            evictions=0, duration_s=1.0)
        assert report.ok, report.summary()
        assert report.kills == 1
        assert report.chunk_corruptions == 1
        assert report.chunk_failures == 0
        assert report.chunks_completed == report.chunks_submitted


@pytest.mark.soak
class TestAcceptanceSoak:
    def test_full_fault_budget_lands_and_results_stay_identical(self, tmp_path):
        """The ISSUE acceptance gate: >=3 kills, >=2 corrupt-spool
        injections and a forced eviction under sustained traffic, with
        every round bit-identical to serial and zero lost or
        double-counted chunks."""
        rounds_seen = []
        report = run_chaos_soak(
            tmp_path / "spool", cache_dir=tmp_path / "cache", seed=20220322,
            rounds=3, jobs_per_round=24, chunk_size=2, job_sleep_s=0.02,
            min_workers=1, max_workers=3, lease_ttl_s=1.5,
            kills=3, chunk_corruptions=2, result_corruptions=1, evictions=1,
            duration_s=6.0,
            on_round=lambda n, ok: rounds_seen.append((n, ok)))
        assert report.ok, report.summary()
        assert report.mismatch is None
        assert report.kills >= 3
        assert report.chunk_corruptions >= 2
        assert report.result_corruptions >= 1
        assert report.evictions >= 1
        # No chunk lost or double-counted: every submitted chunk
        # completed exactly once (requeues re-execute, never re-merge).
        assert report.chunks_completed == report.chunks_submitted
        assert report.chunk_failures == 0
        assert all(ok for _, ok in rounds_seen)
        # The supervisor measured at least one crash-to-restored episode
        # for the SIGKILLed workers, and the fleet really scaled.
        assert report.recoveries, "kills landed but no recovery episode"
        assert report.workers_peak >= 1
