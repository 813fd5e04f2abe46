"""Chaos soak — seeded fault budget, bit-identity, recovery latency.

The claim under gate: the supervised fleet absorbs the full seeded
fault budget — worker SIGKILLs, in-place chunk/result corruption, a
forced store eviction — while every round of traffic merges
bit-identical to a serial run, and the supervisor restores the fleet
within a bounded crash-to-restored latency.

Gating policy: the fault counts are deterministic for the fixed seed
(the scheduler retries each fault until a target exists), so each is
asserted equal to the budget the soak requested and recorded as
``info``; a run that stops landing kills or corruptions means the
harness went soft, not that the machine got slow.  ``recovery_s``
(worst crash-to-restored episode) is tick-scale, a few milliseconds,
so it is asserted below one lease TTL — only a respawn that waits out
a lease fails it, not scheduler jitter — and recorded as ``info``, as
are requeues and wall time, which vary with interleaving (the gate's
rule: docs/ARCHITECTURE.md, "Profiling and the benchmark gate").
"""

from repro.analysis import render_table
from repro.runtime import run_chaos_soak

SEED = 20220322  # the paper's conference date; fixed in CI

#: The worker lease; a recovery must not take as long as one.
LEASE_TTL_S = 1.5

#: The fault budget the soak requests, and must land in full.
FAULTS = dict(kills=3, chunk_corruptions=2, result_corruptions=1, evictions=1)


def test_chaos_soak_budget_and_recovery(report, bench_json, tmp_path):
    soak = run_chaos_soak(
        tmp_path / "spool",
        cache_dir=tmp_path / "cache",
        seed=SEED,
        rounds=2,
        jobs_per_round=16,
        chunk_size=2,
        job_sleep_s=0.02,
        min_workers=1,
        max_workers=3,
        lease_ttl_s=LEASE_TTL_S,
        duration_s=4.0,
        **FAULTS,
    )
    assert soak.ok, soak.summary()
    assert {fault: getattr(soak, fault) for fault in FAULTS} == FAULTS
    assert soak.chunks_completed == soak.chunks_submitted
    assert soak.recoveries, "kills landed but no recovery episode measured"
    worst_recovery = max(soak.recoveries)
    assert worst_recovery < LEASE_TTL_S

    report.add(
        render_table(
            ["kills", "corrupt chunk", "corrupt result", "evictions",
             "requeues", "recoveries", "worst recovery [s]", "wall [s]"],
            [[soak.kills, soak.chunk_corruptions, soak.result_corruptions,
              soak.evictions, soak.requeues, len(soak.recoveries),
              f"{worst_recovery:.3f}", f"{soak.elapsed_s:.1f}"]],
            title=("chaos soak — supervised fleet under seeded faults, "
                   f"{soak.rounds} round(s) x {soak.jobs // max(soak.rounds, 1)}"
                   " jobs, bit-identical to serial"),
        )
    )
    for fault in FAULTS:
        bench_json.metric(fault, getattr(soak, fault))
    bench_json.metric("recovery_s", worst_recovery, unit="s")
    # Episodes coalesce when two kills land inside one deficit window,
    # so the count is interleaving-dependent: info, with non-emptiness
    # asserted above.
    bench_json.metric("recovery_episodes", len(soak.recoveries),
                      direction="info")
    bench_json.metric("requeues", soak.requeues, direction="info")
    bench_json.metric("soak_wall_s", soak.elapsed_s, direction="info", unit="s")
