"""Distributed work-queue subsystem: broker, workers, cluster backend.

The cross-backend parity harness (``test_backend_parity.py``) already
holds the registered ``cluster`` backend to the ordered/bit-identical/
structured-failure contract; this suite covers what parity cannot see:
the spool protocol itself (atomic claims, duplicate-claim races, lease
expiry and takeover), fault injection (a worker SIGKILLed mid-chunk, a
corrupt spool entry, a corrupt result file, a poison job that keeps
killing its workers) and worker-side store read/write-through.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.runtime import (
    Broker,
    ClusterBackend,
    MetricsRegistry,
    ResultStore,
    available_backends,
    canonical_json,
    make_backend,
    obs,
    register_runner,
    run_jobs,
    spec_from_doc,
    spec_to_doc,
    worker_loop,
)
from repro.runtime.backends import SerialBackend
from repro.runtime.dist import claim_chunk, claim_state, release_claim
from repro.runtime.jobs import JobSpec


@pytest.fixture()
def registry():
    """A fresh process-wide obs registry, so the broker's event
    counters start from zero in each test that reads them."""
    old = obs.set_registry(MetricsRegistry())
    try:
        yield obs.get_registry()
    finally:
        obs.set_registry(old)


def broker_count(registry, op: str) -> float:
    """The broker events of one ``op`` counted on ``registry``."""
    return registry.counter("repro_broker_events_total").value(op=op)


# Registered at import time so fork-started worker processes inherit
# them (the same rule the production runners follow).


@register_runner("dist_sleep")
def _run_dist_sleep(params, payload):
    time.sleep(params.get("sleep_s", 0.0))
    return {"echo": params["x"], "squared": params["x"] ** 2}


@register_runner("dist_die")
def _run_dist_die(params, payload):
    os._exit(3)  # simulates a worker hard-crash mid-job


def sleep_job(x: int, sleep_s: float = 0.0) -> JobSpec:
    return JobSpec(kind="dist_sleep",
                   key=canonical_json({"x": x, "sleep_s": sleep_s}))


def die_job(x: int) -> JobSpec:
    return JobSpec(kind="dist_die", key=canonical_json({"x": x}))


def payload_bytes(results) -> bytes:
    return json.dumps(
        [{"hash": r.job_hash, "kind": r.kind, "ok": r.ok,
          "value": r.value, "error": r.error} for r in results],
        sort_keys=True,
    ).encode()


def drain_worker(spool, **kwargs):
    return worker_loop(spool, drain=True, poll_s=0.01, **kwargs)


def spawn_worker(spool, worker_id, lease_ttl_s=30.0):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(
        target=worker_loop, args=(str(spool),),
        kwargs=dict(worker_id=worker_id, poll_s=0.01,
                    lease_ttl_s=lease_ttl_s, drain=False),
        daemon=True,
    )
    proc.start()
    return proc


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class FakeClock:
    """Injectable wall clock: lease-expiry tests advance time instantly
    instead of sleeping real fractions of the TTL (the deflake seam
    threaded through ``claim_chunk``/``Broker``/``_Heartbeat``)."""

    def __init__(self, now: float = 1_000_000.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestSpoolProtocol:
    def test_submit_writes_one_chunk_file_per_chunk(self, tmp_path):
        broker = Broker(tmp_path)
        ids = broker.submit([sleep_job(i) for i in range(6)], chunk_size=2)
        assert len(ids) == 3
        files = sorted(p.stem for p in (tmp_path / "chunks").glob("*.chunk"))
        assert files == sorted(ids)
        # Chunk ids are self-identifying: run nonce, index, content digest.
        for i, chunk_id in enumerate(ids):
            nonce, index, digest = chunk_id.split("-")
            assert int(index) == i and len(digest) == 12

    def test_payload_free_chunks_are_inspectable_json(self, tmp_path):
        broker = Broker(tmp_path)
        (chunk_id,) = broker.submit([sleep_job(7)], chunk_size=4)
        doc = json.loads((tmp_path / "chunks" / f"{chunk_id}.chunk").read_text())
        assert doc["jobs"][0]["kind"] == "dist_sleep"
        assert spec_from_doc(doc["jobs"][0]).job_hash == sleep_job(7).job_hash

    def test_duplicate_claim_race_has_one_winner(self, tmp_path):
        broker = Broker(tmp_path)
        (chunk_id,) = broker.submit([sleep_job(1)], chunk_size=1)
        assert claim_chunk(tmp_path, chunk_id, "worker-a", 30.0) is True
        assert claim_chunk(tmp_path, chunk_id, "worker-b", 30.0) is False
        assert claim_state(tmp_path, chunk_id)[1]["worker"] == "worker-a"
        release_claim(tmp_path, chunk_id)
        assert claim_chunk(tmp_path, chunk_id, "worker-b", 30.0) is True

    def test_many_threads_racing_one_claim(self, tmp_path):
        broker = Broker(tmp_path)
        (chunk_id,) = broker.submit([sleep_job(1)], chunk_size=1)
        wins = []
        barrier = threading.Barrier(8)

        def racer(name):
            barrier.wait()
            if claim_chunk(tmp_path, chunk_id, name, 30.0):
                wins.append(name)

        threads = [threading.Thread(target=racer, args=(f"w{i}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_expired_claim_is_taken_over(self, tmp_path):
        clock = FakeClock()
        broker = Broker(tmp_path)
        (chunk_id,) = broker.submit([sleep_job(1)], chunk_size=1)
        assert claim_chunk(tmp_path, chunk_id, "dead-worker", 30.0, clock=clock)
        # Live lease: a rival is refused without any wall-clock waiting.
        assert claim_chunk(tmp_path, chunk_id, "live-worker", 30.0,
                           clock=clock) is False
        clock.advance(30.1)
        assert claim_chunk(tmp_path, chunk_id, "live-worker", 30.0,
                           clock=clock) is True
        assert claim_state(tmp_path, chunk_id, clock=clock)[1]["worker"] == "live-worker"

    def test_claim_state_classifies_every_lease_shape(self, tmp_path):
        clock = FakeClock()
        broker = Broker(tmp_path)
        (chunk_id,) = broker.submit([sleep_job(1)], chunk_size=1)
        assert claim_state(tmp_path, chunk_id)[0] == "missing"
        assert claim_chunk(tmp_path, chunk_id, "w", 30.0, clock=clock)
        state, doc = claim_state(tmp_path, chunk_id, clock=clock)
        assert state == "live" and doc["worker"] == "w"
        clock.advance(31.0)
        state, doc = claim_state(tmp_path, chunk_id, clock=clock)
        assert state == "expired" and doc["worker"] == "w"
        claim_path = tmp_path / "claims" / f"{chunk_id}.claim"
        claim_path.write_bytes(b"{torn mid-wri")
        assert claim_state(tmp_path, chunk_id)[0] == "corrupt"
        claim_path.write_bytes(b"[1, 2]")  # JSON, but not a claim doc
        assert claim_state(tmp_path, chunk_id)[0] == "corrupt"

    def test_corrupt_claim_is_taken_over_atomically(self, tmp_path):
        """Regression: a torn (non-JSON) claim — a writer that died
        mid-replace — must be claimable like an expired lease, via an
        atomic replace that never leaves the file missing or torn."""
        broker = Broker(tmp_path)
        (chunk_id,) = broker.submit([sleep_job(1)], chunk_size=1)
        claim_path = tmp_path / "claims" / f"{chunk_id}.claim"
        claim_path.write_bytes(b"\x00torn claim bytes")
        assert claim_chunk(tmp_path, chunk_id, "heir", 30.0) is True
        state, doc = claim_state(tmp_path, chunk_id)
        assert state == "live" and doc["worker"] == "heir"
        # And the takeover produced a complete, schema-stamped document.
        assert json.loads(claim_path.read_bytes())["schema"] == 1

    def test_release_claim_drops_a_corrupt_claim(self, tmp_path):
        broker = Broker(tmp_path)
        (chunk_id,) = broker.submit([sleep_job(1)], chunk_size=1)
        (tmp_path / "claims" / f"{chunk_id}.claim").write_bytes(b"{garbage")
        release_claim(tmp_path, chunk_id)
        assert claim_state(tmp_path, chunk_id)[0] == "missing"
        release_claim(tmp_path, chunk_id)  # missing-ok, still

    def test_spec_doc_round_trip_and_payload_rejection(self):
        spec = sleep_job(3)
        assert spec_from_doc(spec_to_doc(spec)) == spec
        with pytest.raises(ValueError, match="payload"):
            spec_to_doc(JobSpec(kind="x", key="{}", payload=object()))
        with pytest.raises(ValueError):
            spec_from_doc({"kind": "x"})
        with pytest.raises(ValueError):
            spec_from_doc({"kind": "x", "key": "not json"})


class TestBrokerCollect:
    def test_in_thread_worker_produces_serial_results(self, tmp_path, registry):
        jobs = [sleep_job(i) for i in range(7)]
        reference = run_jobs(jobs, executor="serial")
        broker = Broker(tmp_path)
        broker.submit(jobs, chunk_size=3)
        thread = threading.Thread(target=drain_worker, args=(tmp_path,))
        thread.start()
        seen = []
        results = broker.collect(on_result=lambda r: seen.append(r.job_hash),
                                 timeout=30)
        thread.join()
        assert payload_bytes(results) == payload_bytes(reference.results)
        assert seen == [j.job_hash for j in jobs]  # parent-side, input order
        assert broker_count(registry, "complete") == 3
        # The spool is clean afterwards: no chunks, claims or results.
        for sub in ("chunks", "claims", "results"):
            assert list((tmp_path / sub).iterdir()) == []

    def test_corrupt_spool_chunk_heals_by_requeue(self, tmp_path, registry):
        """A corrupt spool entry is not terminal: the broker holds the
        authoritative specs, so it re-spools the chunk and the retry
        merges bit-identically to serial."""
        jobs = [sleep_job(i) for i in range(4)]
        reference = run_jobs(jobs, executor="serial")
        broker = Broker(tmp_path, poll_s=0.01)
        ids = broker.submit(jobs, chunk_size=2)
        path = tmp_path / "chunks" / f"{ids[1]}.chunk"
        path.write_bytes(b"\x00garbage not json nor pickle")
        # Daemon-mode worker: a draining one could exit after reporting
        # the corrupt chunk, before the broker re-spools it.
        stop = threading.Event()
        thread = threading.Thread(target=worker_loop, args=(tmp_path,),
                                  kwargs=dict(poll_s=0.01, stop=stop))
        thread.start()
        try:
            results = broker.collect(timeout=30)
        finally:
            stop.set()
            thread.join()
        assert payload_bytes(results) == payload_bytes(reference.results)
        assert broker_count(registry, "requeue") >= 1
        assert broker_count(registry, "chunk_failed") == 0

    def test_corrupt_spool_chunk_fails_fast_without_retry_budget(self, tmp_path,
                                                                 registry):
        """With max_attempts=1 the old semantics are pinned: the corrupt
        chunk's jobs resolve to structured failures, never a hang."""
        jobs = [sleep_job(i) for i in range(4)]
        broker = Broker(tmp_path, max_attempts=1)
        ids = broker.submit(jobs, chunk_size=2)
        path = tmp_path / "chunks" / f"{ids[1]}.chunk"
        path.write_bytes(b"\x00garbage not json nor pickle")
        thread = threading.Thread(target=drain_worker, args=(tmp_path,))
        thread.start()
        results = broker.collect(timeout=30)
        thread.join()
        assert [r.ok for r in results] == [True, True, False, False]
        for r in results[2:]:
            assert "corrupt spool chunk" in r.error
            assert r.job_hash in {j.job_hash for j in jobs[2:]}
        assert broker_count(registry, "chunk_failed") == 1

    def test_torn_claim_is_requeued_without_waiting_out_the_ttl(self, tmp_path,
                                                                registry):
        """Regression: a torn (non-JSON) claim file used to wedge its
        chunk forever — the broker skipped it as unreadable instead of
        treating a dead writer's claim as reclaimable."""
        clock = FakeClock()
        broker = Broker(tmp_path, lease_ttl_s=30.0, poll_s=0.01, clock=clock)
        (chunk_id,) = broker.submit([sleep_job(1)], chunk_size=1)
        (tmp_path / "claims" / f"{chunk_id}.claim").write_bytes(b"\x00torn")
        broker._expire_leases()
        assert broker_count(registry, "requeue") == 1
        assert claim_state(tmp_path, chunk_id)[0] == "missing"
        thread = threading.Thread(target=drain_worker, args=(tmp_path,))
        thread.start()
        results = broker.collect(timeout=30)
        thread.join()
        assert [r.ok for r in results] == [True]

    def test_expired_lease_requeues_without_sleeping(self, tmp_path, registry):
        clock = FakeClock()
        broker = Broker(tmp_path, lease_ttl_s=30.0, poll_s=0.01, clock=clock)
        (chunk_id,) = broker.submit([sleep_job(1)], chunk_size=1)
        assert claim_chunk(tmp_path, chunk_id, "doomed", 30.0, clock=clock)
        broker._expire_leases()
        assert broker_count(registry, "requeue") == 0  # live lease: untouched
        clock.advance(30.5)
        broker._expire_leases()
        assert broker_count(registry, "requeue") == 1
        assert broker_count(registry, "lease_expired") == 1
        assert claim_state(tmp_path, chunk_id)[0] == "missing"

    def test_corrupt_result_file_requeues_and_recomputes(self, tmp_path, registry):
        jobs = [sleep_job(i) for i in range(2)]
        broker = Broker(tmp_path, poll_s=0.01)
        (chunk_id,) = broker.submit(jobs, chunk_size=2)
        (tmp_path / "results" / f"{chunk_id}.json").write_text("{torn")
        # A daemon-mode worker: a draining one could scan before the
        # broker discards the corrupt result (nothing pending yet) and
        # exit without ever recomputing.
        stop = threading.Event()
        thread = threading.Thread(target=worker_loop, args=(tmp_path,),
                                  kwargs=dict(poll_s=0.01, stop=stop))
        thread.start()
        try:
            results = broker.collect(timeout=30)
        finally:
            stop.set()
            thread.join()
        reference = run_jobs(jobs, executor="serial")
        assert payload_bytes(results) == payload_bytes(reference.results)
        assert broker_count(registry, "requeue") >= 1
        assert broker_count(registry, "lease_expired") == 0

    def test_retry_budget_exhaustion_fails_the_chunk(self, tmp_path):
        jobs = [sleep_job(1)]
        broker = Broker(tmp_path, max_attempts=1, poll_s=0.01)
        (chunk_id,) = broker.submit(jobs, chunk_size=1)
        (tmp_path / "results" / f"{chunk_id}.json").write_text("{torn")
        results = broker.collect(timeout=30)  # no workers needed
        assert [r.ok for r in results] == [False]
        assert "gave up after 1 attempt" in results[0].error

    def test_collect_timeout_lists_outstanding_chunks(self, tmp_path):
        broker = Broker(tmp_path, poll_s=0.01)
        broker.submit([sleep_job(1)], chunk_size=1)
        with pytest.raises(TimeoutError, match="1 chunk\\(s\\) outstanding"):
            broker.collect(timeout=0.1)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Broker(tmp_path, lease_ttl_s=0)
        with pytest.raises(ValueError):
            Broker(tmp_path, max_attempts=0)
        with pytest.raises(ValueError):
            Broker(tmp_path).submit([sleep_job(1)], chunk_size=0)


class TestWorkerLoop:
    def test_drain_on_empty_spool_returns_zero(self, tmp_path):
        assert worker_loop(tmp_path, drain=True) == 0

    def test_max_chunks_bounds_one_worker(self, tmp_path):
        broker = Broker(tmp_path)
        broker.submit([sleep_job(i) for i in range(4)], chunk_size=1)
        assert worker_loop(tmp_path, drain=True, max_chunks=2) == 2
        assert worker_loop(tmp_path, drain=True) == 2  # the rest

    def test_store_read_and_write_through(self, tmp_path):
        jobs = [sleep_job(i) for i in range(3)]
        store = ResultStore(tmp_path / "store")
        # Pre-compute job 1 into the store: the worker must serve it as
        # a cache hit and compute only the other two.
        run_jobs([jobs[1]], executor="serial", cache=store)
        broker = Broker(tmp_path / "spool")
        broker.submit(jobs, chunk_size=3)
        worker_store = ResultStore(tmp_path / "store")
        thread = threading.Thread(
            target=drain_worker, args=(tmp_path / "spool",),
            kwargs=dict(store=worker_store),
        )
        thread.start()
        results = broker.collect(timeout=30)
        thread.join()
        assert [r.cached for r in results] == [False, True, False]
        assert [r.ok for r in results] == [True] * 3
        # Fresh successes were written through: a replay hits everything.
        replay = run_jobs(jobs, executor="serial", cache=ResultStore(tmp_path / "store"))
        assert replay.hits == 3 and replay.misses == 0

    def test_store_write_failure_costs_only_the_cached_copy(
            self, tmp_path, registry, monkeypatch):
        import pathlib
        import tempfile

        store_root = tmp_path / "store"
        real_mkstemp = tempfile.mkstemp

        def mkstemp(*args, dir=None, **kwargs):
            # The store's disk is full; the spool's is not.
            if dir is not None and store_root in pathlib.Path(dir).parents:
                raise OSError("disk full")
            return real_mkstemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        jobs = [sleep_job(i) for i in range(2)]
        broker = Broker(tmp_path / "spool")
        broker.submit(jobs, chunk_size=2)
        store = ResultStore(store_root)
        assert drain_worker(tmp_path / "spool", store=store) == 1
        results = broker.collect(timeout=30)
        assert [(r.ok, r.cached) for r in results] == [(True, False)] * 2
        assert registry.counter("repro_store_events_total").value(
            op="put_error") == 2
        assert len(store) == 0

    def test_corrupt_chunk_does_not_stall_the_worker(self, tmp_path):
        broker = Broker(tmp_path)
        ids = broker.submit([sleep_job(i) for i in range(2)], chunk_size=1)
        (tmp_path / "chunks" / f"{ids[0]}.chunk").write_bytes(b"junk")
        assert worker_loop(tmp_path, drain=True) == 2
        doc = json.loads((tmp_path / "results" / f"{ids[0]}.json").read_text())
        assert "corrupt spool chunk" in doc["chunk_error"]


@pytest.mark.slow
class TestKillRecovery:
    """A worker SIGKILLed mid-chunk must not cost results or order."""

    def test_lease_expiry_requeue_produces_identical_results(self, tmp_path,
                                                             registry):
        jobs = [sleep_job(i, sleep_s=0.3) for i in range(4)]
        reference = run_jobs(jobs, executor="serial")
        broker = Broker(tmp_path, lease_ttl_s=0.6, poll_s=0.02)
        broker.submit(jobs, chunk_size=2)
        victim = spawn_worker(tmp_path, "victim", lease_ttl_s=0.6)
        assert wait_for(lambda: list((tmp_path / "claims").glob("*.claim")))
        time.sleep(0.1)  # ensure the victim is inside a job, mid-chunk
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        rescuer = spawn_worker(tmp_path, "rescuer", lease_ttl_s=0.6)
        try:
            results = broker.collect(timeout=60)
        finally:
            rescuer.kill()
            rescuer.join()
        assert payload_bytes(results) == payload_bytes(reference.results)
        assert broker_count(registry, "requeue") >= 1

    def test_cluster_backend_survives_a_worker_kill(self, tmp_path, registry):
        """The acceptance bar: bit-identical ordered results from the
        registered backend even after one of its workers is SIGKILLed
        mid-chunk (the watchdog requeues and respawns)."""
        jobs = [sleep_job(i, sleep_s=0.25) for i in range(6)]
        reference = run_jobs(jobs, executor="serial")
        events = registry.counter("repro_broker_events_total")

        def requeues():
            # The broker runs in this process, so the fault injector
            # sees each requeue on the registry as it happens.
            return events.value(op="requeue")

        backend = ClusterBackend(workers=2, spool_dir=tmp_path,
                                 chunk_size=1, lease_ttl_s=30.0,
                                 timeout=120.0)

        def killer():
            # Kill lease-holding workers until one kill provably landed
            # mid-chunk (the broker requeued its chunk).  A kill that
            # slips between chunks just costs a respawn; retry.
            deadline = time.monotonic() + 30.0
            while not requeues() and time.monotonic() < deadline:
                for path in (tmp_path / "claims").glob("*.claim"):
                    try:
                        claim = json.loads(path.read_text())
                    except (OSError, ValueError):
                        continue
                    pid = claim.get("pid")
                    if pid and pid != os.getpid():
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:
                            continue
                        break
                wait_for(requeues, timeout=0.3)

        thread = threading.Thread(target=killer)
        thread.start()
        run = run_jobs(jobs, executor=backend)
        thread.join()
        assert requeues(), "the fault injector never landed a mid-chunk kill"
        assert payload_bytes(run.results) == payload_bytes(reference.results)
        assert broker_count(registry, "complete") == len(jobs)

    def test_poison_job_resolves_to_structured_failure(self, tmp_path):
        """A job that hard-kills every worker it touches must exhaust
        its retry budget and come back as ok=False in position — other
        jobs unaffected — instead of hanging or crashing the sweep."""
        jobs = [sleep_job(0), die_job(1), sleep_job(2)]
        backend = ClusterBackend(workers=2, spool_dir=tmp_path, chunk_size=1,
                                 lease_ttl_s=30.0, max_attempts=2,
                                 timeout=120.0)
        run = run_jobs(jobs, executor=backend)
        assert [r.ok for r in run.results] == [True, False, True]
        assert "gave up after 2 attempt" in run.results[1].error
        assert run.results[0].value == {"echo": 0, "squared": 0}


class TestClusterBackend:
    def test_registered_and_resolvable(self):
        assert "cluster" in available_backends()
        backend = make_backend("cluster", workers=2)
        assert isinstance(backend, ClusterBackend)
        assert backend.workers == 2

    def test_empty_job_list_short_circuits(self):
        assert ClusterBackend(workers=2).run([]) == []

    def test_external_fleet_mode(self, tmp_path):
        """spawn_workers=False: the backend only brokers; execution is
        done by externally attached agents (here: a worker thread)."""
        jobs = [sleep_job(i) for i in range(5)]
        reference = run_jobs(jobs, executor="serial")
        stop = threading.Event()
        agent = threading.Thread(
            target=worker_loop, args=(tmp_path,),
            kwargs=dict(poll_s=0.01, stop=stop),
        )
        agent.start()
        try:
            backend = ClusterBackend(workers=2, spool_dir=tmp_path,
                                     spawn_workers=False, timeout=60.0)
            run = run_jobs(jobs, executor=backend)
        finally:
            stop.set()
            agent.join()
        assert payload_bytes(run.results) == payload_bytes(reference.results)

    def test_worker_store_hits_count_as_cached(self, tmp_path, registry):
        """A result a worker served from its own store is a hit on the
        registry too, as in the run's report: ``status=cached``, and no
        job-duration sample."""
        jobs = [sleep_job(i) for i in range(3)]
        store = ResultStore(tmp_path / "store")
        for spec, result in zip(jobs[:2], SerialBackend().run(jobs[:2])):
            store.put(spec, result)
        stop = threading.Event()
        agent = threading.Thread(
            target=worker_loop, args=(tmp_path / "spool",),
            kwargs=dict(store=store, poll_s=0.01, stop=stop),
        )
        agent.start()
        try:
            backend = ClusterBackend(spool_dir=tmp_path / "spool",
                                     spawn_workers=False, timeout=60.0)
            run = run_jobs(jobs, executor=backend)
        finally:
            stop.set()
            agent.join()
        assert (run.hits, run.misses) == (2, 1)
        jobs_total = registry.counter("repro_jobs_total")
        assert jobs_total.value(kind="dist_sleep", status="cached") == 2
        assert jobs_total.value(kind="dist_sleep", status="ok") == 1
        assert registry.histogram("repro_job_duration_seconds").count(
            kind="dist_sleep") == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ClusterBackend(workers=0)
        with pytest.raises(ValueError):
            ClusterBackend(chunk_size=0)


class TestResultSchemaDrift:
    def test_schema_drifted_result_reads_as_corrupt_not_crash(self, tmp_path):
        """A result envelope from a different DIST_SCHEMA (or with
        drifted record fields) must take the requeue/structured-failure
        path, never raise out of collect()."""
        jobs = [sleep_job(1)]
        broker = Broker(tmp_path, max_attempts=1, poll_s=0.01)
        (chunk_id,) = broker.submit(jobs, chunk_size=1)
        (tmp_path / "results" / f"{chunk_id}.json").write_text(json.dumps({
            "schema": 99, "chunk": chunk_id, "worker": "future",
            "records": [{"job_hash": jobs[0].job_hash, "kind": "dist_sleep",
                         "ok": True, "value": {}, "error": None,
                         "duration_s": 0.0}],
        }))
        results = broker.collect(timeout=30)
        assert [r.ok for r in results] == [False]
        assert "schema" in results[0].error

    def test_field_drifted_record_reads_as_corrupt_not_crash(self, tmp_path):
        jobs = [sleep_job(2)]
        broker = Broker(tmp_path, max_attempts=1, poll_s=0.01)
        (chunk_id,) = broker.submit(jobs, chunk_size=1)
        (tmp_path / "results" / f"{chunk_id}.json").write_text(json.dumps({
            "schema": 1, "chunk": chunk_id, "worker": "w",
            "records": [{"job_hash": jobs[0].job_hash, "ok": True}],
        }))
        results = broker.collect(timeout=30)  # must not raise KeyError
        assert [r.ok for r in results] == [False]


class TestTracePropagation:
    """One logical chunk = one trace, no matter how many workers die."""

    @pytest.fixture()
    def obs_dir(self, tmp_path):
        from repro.runtime import obs

        target = tmp_path / "obs"
        old = obs.set_registry(obs.MetricsRegistry())
        obs.configure(target)
        try:
            yield target
        finally:
            obs.configure(False)
            obs.set_registry(old)

    def test_kill_mid_chunk_requeue_keeps_one_trace(self, tmp_path, obs_dir):
        """The acceptance bar: a chunk SIGKILLed mid-flight and retried
        by another worker journals submit, requeue, claim and complete
        under a single trace ID."""
        from repro.runtime.obs import read_journal

        spool = tmp_path / "spool"
        jobs = [sleep_job(i, sleep_s=0.3) for i in range(4)]
        broker = Broker(spool, lease_ttl_s=0.6, poll_s=0.02)
        broker.submit(jobs, chunk_size=2)
        victim = spawn_worker(spool, "victim", lease_ttl_s=0.6)
        assert wait_for(lambda: list((spool / "claims").glob("*.claim")))
        time.sleep(0.1)  # ensure the victim is inside a job, mid-chunk
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        rescuer = spawn_worker(spool, "rescuer", lease_ttl_s=0.6)
        try:
            broker.collect(timeout=60)
        finally:
            rescuer.kill()
            rescuer.join()
        assert broker_count(obs.get_registry(), "requeue") >= 1

        events = read_journal(obs_dir / "journal.ndjson")
        by_chunk: dict = {}
        for e in events:
            if "chunk" in e and "trace_id" in e:
                by_chunk.setdefault(e["chunk"], []).append(e)
        requeued = [c for c, evs in by_chunk.items()
                    if any(e["event"] == "chunk.requeue" for e in evs)]
        assert requeued, "no chunk.requeue event journaled"
        for chunk_id in requeued:
            evs = by_chunk[chunk_id]
            names = {e["event"] for e in evs}
            assert {"chunk.submit", "chunk.requeue", "chunk.complete"} <= names
            traces = {e["trace_id"] for e in evs}
            assert len(traces) == 1, (
                f"chunk {chunk_id} spans traces {traces}")
            # Both attempts' workers adopted the chunk's context.
            claims = [e for e in evs if e["event"] == "worker.claim"]
            assert {e["worker"] for e in claims} >= {"victim", "rescuer"}
        # Every chunk of one submit call shares the run's trace.
        assert len({evs[0]["trace_id"] for evs in by_chunk.values()}) == 1

    def test_worker_telemetry_merges_broker_side(self, tmp_path, obs_dir):
        """Workers ship their chunk metrics in the result envelope; the
        broker folds them into the submitting process's registry."""
        from repro.runtime import obs

        jobs = [sleep_job(i) for i in range(4)]
        backend = ClusterBackend(workers=2, spool_dir=tmp_path / "spool",
                                 chunk_size=2, timeout=120.0)
        run = run_jobs(jobs, executor=backend)
        assert all(r.ok for r in run.results)
        chunks = obs.get_registry().counter("repro_worker_chunks_total")
        assert chunks.total() == 2
        seconds = obs.get_registry().histogram("repro_worker_chunk_seconds")
        assert sum(s["count"] for s in seconds._snapshot_series()) == 2
