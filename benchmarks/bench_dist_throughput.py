"""Distributed queue throughput — chunk rate, parity, requeue recovery.

Two claims the fleet layer must uphold before sweeps move off-machine:

1. the ``cluster`` backend is a *correct* transport: a sweep pushed
   through spool files and worker processes is bit-identical to the
   serial reference, and the queue overhead stays small enough that a
   two-worker fleet sustains a healthy chunk rate;
2. failure recovery is bounded: a worker SIGKILLed mid-chunk costs one
   lease expiry + requeue, after which a surviving worker finishes the
   sweep with identical results.

Gating policy: the deterministic counters are gated
(``chunks_completed`` and ``recovery_requeues`` must never drop — a
queue that stops chunking or a recovery path that stops requeueing is
a regression regardless of machine speed); the wall time and rates
(``spool_wall_s``, ``chunks_per_s``, ``jobs_per_s``) and the recovery
latency (``requeue_recovery_s``, dominated by the configured lease
TTL) are recorded as ``info`` — a ~50 ms fork-and-poll-bound wall is
bimodal run to run, which the same suite's scaling benchmark already
learned puts it past the 20% budget (its warm timings are info for the
same reason).  ``tools/bench_compare.py`` still fails the gate if this
record stops being emitted.
"""

import json
import multiprocessing
import os
import signal
import time

from repro.analysis import render_table
from repro.runtime import (
    Broker,
    ClusterBackend,
    canonical_json,
    dse_grid,
    dse_jobs,
    obs,
    register_runner,
    run_jobs,
    worker_loop,
)
from repro.runtime.jobs import JobSpec

SWEEP_JOBS = dse_jobs(
    dse_grid(slices=(1, 2, 3, 4, 5, 6, 7, 8), voltages=(None, 0.7, 0.9, 1.0))
)  # 32 design points


@register_runner("bench_dist_sleep")
def _run_bench_dist_sleep(params, payload):
    time.sleep(params["sleep_s"])
    return {"x": params["x"]}


def _sleep_job(x: int, sleep_s: float) -> JobSpec:
    return JobSpec(kind="bench_dist_sleep",
                   key=canonical_json({"x": x, "sleep_s": sleep_s}))


def _broker_count(op: str) -> int:
    """This process's ``repro_broker_events_total{op}`` so far."""
    return int(obs.get_registry().counter("repro_broker_events_total").value(op=op))


def _payload(results) -> bytes:
    return json.dumps(
        [{"hash": r.job_hash, "ok": r.ok, "value": r.value, "error": r.error}
         for r in results],
        sort_keys=True,
    ).encode()


def test_cluster_chunk_throughput(report, bench_json):
    reference = run_jobs(SWEEP_JOBS, executor="serial")
    backend = ClusterBackend(workers=2, chunk_size=2, timeout=300.0)
    # Best of three: one spooled run is ~50 ms and fork/poll jitter
    # would eat the gate's tolerance; the minimum is the stable
    # no-contention cost of the queue machinery.
    wall = float("inf")
    for _ in range(3):
        before = _broker_count("complete")
        start = time.perf_counter()
        run = run_jobs(SWEEP_JOBS, executor=backend)
        wall = min(wall, time.perf_counter() - start)
        assert _payload(run.results) == _payload(reference.results)
        chunks_completed = _broker_count("complete") - before
        assert chunks_completed == 16
    chunks_per_s = chunks_completed / wall
    jobs_per_s = len(SWEEP_JOBS) / wall

    report.add(
        render_table(
            ["path", "jobs", "chunks", "wall [s]", "chunks/s", "jobs/s"],
            [["cluster x2 (spool)", len(SWEEP_JOBS), chunks_completed,
              f"{wall:.3f}", f"{chunks_per_s:.1f}", f"{jobs_per_s:.1f}"]],
            title="dist throughput — 32-point DSE sweep over the spool queue",
        )
    )
    bench_json.metric("spool_wall_s", wall, direction="info", unit="s")
    bench_json.metric("chunks_completed", chunks_completed,
                      direction="higher")
    bench_json.metric("chunks_per_s", chunks_per_s, direction="info", unit="1/s")
    bench_json.metric("jobs_per_s", jobs_per_s, direction="info", unit="1/s")


def test_requeue_recovery_latency(report, bench_json, tmp_path):
    ttl = 0.5
    jobs = [_sleep_job(i, 0.15) for i in range(4)]
    reference = run_jobs(jobs, executor="serial")
    before = _broker_count("requeue")
    broker = Broker(tmp_path, lease_ttl_s=ttl, poll_s=0.01)
    broker.submit(jobs, chunk_size=1)

    ctx = multiprocessing.get_context("fork")
    victim = ctx.Process(
        target=worker_loop, args=(str(tmp_path),),
        kwargs=dict(worker_id="victim", poll_s=0.01, lease_ttl_s=ttl),
        daemon=True,
    )
    victim.start()
    while not list((tmp_path / "claims").glob("*.claim")):
        time.sleep(0.005)
    time.sleep(0.05)  # let the victim get mid-chunk
    os.kill(victim.pid, signal.SIGKILL)
    killed_at = time.perf_counter()
    victim.join()

    rescuer = ctx.Process(
        target=worker_loop, args=(str(tmp_path),),
        kwargs=dict(worker_id="rescuer", poll_s=0.01, lease_ttl_s=ttl,
                    drain=True),
        daemon=True,
    )
    rescuer.start()
    try:
        results = broker.collect(timeout=120)
    finally:
        rescuer.kill()
        rescuer.join()
    recovery = time.perf_counter() - killed_at
    requeues = _broker_count("requeue") - before

    assert _payload(results) == _payload(reference.results)
    assert requeues >= 1

    report.add(
        render_table(
            ["lease ttl [s]", "requeues", "kill -> done [s]"],
            [[f"{ttl:g}", requeues, f"{recovery:.3f}"]],
            title="dist recovery — worker SIGKILLed mid-chunk, sweep completes",
        )
    )
    bench_json.metric("requeue_recovery_s", recovery, direction="info", unit="s")
    bench_json.metric("recovery_requeues", requeues,
                      direction="higher")
