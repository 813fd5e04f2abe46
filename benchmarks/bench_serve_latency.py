"""Serving latency/throughput — streaming front end vs batch mode.

Five claims the serving layer must uphold:

1. **cache-hit round trips collapse**: a repeat request answered from
   the shared result store is at least 5x faster than cold compute
   (acceptance bar; in practice it is orders of magnitude) — the
   serve path reads the store without ever touching the backend pool;
2. **streaming adds no wrong answers**: the streamed per-job results
   are value-identical to a batch ``run_jobs`` over the same specs,
   for every registered backend;
3. **micro-batching carries concurrent load**: many clients submitting
   at once coalesce into shared dispatches, and the p50/p99 latency
   telemetry reports the round-trip distribution;
4. **the broker plane holds the cache-hit SLO**: a server dispatching
   onto a spool-backed worker fleet answers warm requests within 2x of
   the local-dispatch leg (cache hits never cross the spool), stays
   value-identical to it cold, and both planes meet the p50/p99 SLO
   bars;
5. **admission control sheds, never corrupts**: past
   ``max_queue_depth`` the surplus is refused with a structured
   overload error while every accepted request completes
   bit-identically to a serial reference — none lost, none duplicated.

Wall-clock figures are machine-dependent and *reported*; determinism,
hit ratios, the 5x cache-hit bar, the 2x broker-vs-local bar and the
shed-losslessness invariant are *asserted*.
"""

import asyncio
import statistics
import threading
import time

from repro.analysis import render_table
from repro.events import SyntheticDVSGesture
from repro.hw import PAPER_CONFIG, HardwareEvaluator, compile_network
from repro.runtime import (
    AsyncServer,
    BrokerDispatcher,
    LocalDispatcher,
    ResultStore,
    ServerOverloadedError,
    available_backends,
    dse_grid,
    dse_jobs,
    run_jobs,
    worker_loop,
)
from repro.snn import build_small_network


def _hw_jobs():
    """Per-sample hardware-in-the-loop jobs: real compute (~0.1 s each),
    the workload where serving latency actually matters."""
    data = SyntheticDVSGesture(size=16, n_steps=8).generate(n_per_class=1, seed=11)
    net = build_small_network(input_size=16, n_classes=11, channels=4,
                              hidden=16, seed=3)
    evaluator = HardwareEvaluator(
        compile_network(net, (2, 16, 16)), PAPER_CONFIG.with_slices(2)
    )
    return evaluator.sample_jobs(data)


async def _serve_pass(server, jobs):
    """Submit every job concurrently; return (results, per-request RTs)."""
    loop = asyncio.get_running_loop()

    async def one(spec):
        start = loop.time()
        result = await server.submit(spec)
        return result, loop.time() - start

    pairs = await asyncio.gather(*(one(spec) for spec in jobs))
    return [r for r, _ in pairs], [lat for _, lat in pairs]


def _ms(seconds):
    return f"{seconds * 1e3:.2f}"


def test_cache_hit_roundtrip_5x_faster_than_cold_compute(benchmark, report, tmp_path,
                                                         bench_json):
    jobs = _hw_jobs()
    store = ResultStore(tmp_path / "serve")

    async def both_passes():
        async with AsyncServer(dispatcher=LocalDispatcher("thread", workers=4),
                               cache=store, batch_window_s=0.01, max_batch=8) as srv:
            cold = await _serve_pass(srv, jobs)
            warm = await _serve_pass(srv, jobs)
            return cold, warm, srv.stats()

    (cold_results, cold_lat), (warm_results, warm_lat), stats = asyncio.run(
        both_passes()
    )

    assert all(r.ok for r in cold_results)
    assert all(r.ok and r.cached for r in warm_results), "warm pass missed the store"
    assert [r.value for r in warm_results] == [r.value for r in cold_results]
    assert stats["cache_hits"] == len(jobs)

    cold_p50 = statistics.median(cold_lat)
    warm_p50 = statistics.median(warm_lat)
    speedup = cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
    # Acceptance bar: repeat-request round trip >= 5x faster than cold.
    assert speedup >= 5.0, (
        f"cache-hit round trip only {speedup:.1f}x faster "
        f"(cold p50 {cold_p50:.4f}s, warm p50 {warm_p50:.4f}s)"
    )

    # Steady-state warm timing for the benchmark record.
    async def warm_once():
        async with AsyncServer(dispatcher=LocalDispatcher("thread", workers=4),
                               cache=store, batch_window_s=0.01, max_batch=8) as srv:
            results, _ = await _serve_pass(srv, jobs)
            assert all(r.cached for r in results)

    benchmark(lambda: asyncio.run(warm_once()))

    bench_json.timing("cold_p50_s", cold_p50)
    # Sub-millisecond wall times are too noisy to gate at 20%; the
    # same-run speedup ratio is the stable regression signal.
    bench_json.metric("warm_p50_s", warm_p50, direction="info", unit="s")
    bench_json.metric("cache_hit_speedup_x", speedup, direction="info", unit="x")

    report.add(
        render_table(
            ["pass", "requests", "p50 RT [ms]", "max RT [ms]"],
            [
                ["cold (computed)", len(jobs), _ms(cold_p50), _ms(max(cold_lat))],
                ["warm (cache hit)", len(jobs), _ms(warm_p50), _ms(max(warm_lat))],
            ],
            title=(
                "serve latency — hardware-in-the-loop requests "
                f"(cache-hit speedup {speedup:.0f}x, bar: 5x)"
            ),
        )
    )


def test_streamed_results_match_batch_mode_across_backends(report, tmp_path):
    jobs = dse_jobs(dse_grid(slices=(1, 2, 3, 4, 5, 6, 7, 8),
                             voltages=(None, 0.7, 0.9, 1.0)))  # 32 points
    batch_start = time.perf_counter()
    reference = run_jobs(jobs, executor="serial")
    batch_elapsed = time.perf_counter() - batch_start
    rows = [["batch run_jobs", "serial", len(jobs), f"{batch_elapsed:.4f}", "-"]]

    for name in available_backends():
        async def streamed(backend_name=name):
            async with AsyncServer(
                dispatcher=LocalDispatcher(backend_name, workers=2),
                batch_window_s=0.005, max_batch=16,
            ) as srv:
                out = [None] * len(jobs)
                async for i, result in srv.stream(jobs):
                    out[i] = result
                return out, srv.stats()

        start = time.perf_counter()
        results, stats = asyncio.run(streamed())
        elapsed = time.perf_counter() - start
        assert [r.value for r in results] == [r.value for r in reference.results], (
            f"serve({name}) diverged from batch mode"
        )
        lat = stats["latency"]
        rows.append(["serve stream", name, len(jobs), f"{elapsed:.4f}",
                     f"p50 {_ms(lat['p50_s'])} / p99 {_ms(lat['p99_s'])} ms"])

    report.add(
        render_table(
            ["mode", "backend", "jobs", "total [s]", "request latency"],
            rows,
            title="serve vs batch — 32-point DSE sweep, value-identical",
        )
    )


def test_concurrent_clients_coalesce_into_micro_batches(report, tmp_path):
    jobs = dse_jobs(dse_grid(slices=tuple(range(1, 9)), voltages=(None, 0.9)))

    async def fan_in():
        async with AsyncServer(dispatcher=LocalDispatcher("serial"),
                               batch_window_s=0.05, max_batch=64) as srv:
            results, lat = await _serve_pass(srv, jobs)
            return results, lat, srv.stats()

    results, lat, stats = asyncio.run(fan_in())
    assert all(r.ok for r in results)
    assert stats["batches"] < len(jobs), "no coalescing happened at all"
    assert stats["mean_batch"] > 1.0
    assert stats["latency"]["p99_s"] >= stats["latency"]["p50_s"]

    report.add(
        render_table(
            ["requests", "batches", "mean batch", "p50 [ms]", "p99 [ms]"],
            [[stats["requests"], stats["batches"], f"{stats['mean_batch']:.1f}",
              _ms(stats["latency"]["p50_s"]), _ms(stats["latency"]["p99_s"])]],
            title="serve micro-batching — 16 concurrent requests, one server",
        )
    )


# -- dispatcher legs: local vs broker plane ---------------------------------

#: SLO bars both dispatcher modes must meet (generous by design — these
#: catch architectural regressions, not scheduler jitter).
SLO_COLD_P99_S = 10.0
SLO_WARM_P50_S = 0.050
SLO_WARM_P99_S = 0.250


def test_broker_dispatch_leg_holds_cache_hit_slo(report, tmp_path, bench_json):
    """The fleet-serving leg: one server per dispatcher mode, same
    workload, same store discipline.  Asserted: value-identical cold
    results across planes, warm passes fully cache-hit, warm p50 within
    2x of the local leg, and the p50/p99 SLO bars on both."""
    jobs = _hw_jobs()
    spool = tmp_path / "spool"
    stop = threading.Event()
    worker = threading.Thread(
        target=worker_loop,
        kwargs=dict(spool_dir=spool, worker_id="bench-w0", poll_s=0.005,
                    lease_ttl_s=30.0, stop=stop),
        daemon=True,
    )
    worker.start()

    async def run_leg(dispatcher, store):
        async with AsyncServer(dispatcher=dispatcher, cache=store,
                               batch_window_s=0.01, max_batch=8) as srv:
            cold = await _serve_pass(srv, jobs)
            warm = await _serve_pass(srv, jobs)
            stats = srv.stats()
        await dispatcher.aclose()
        return cold, warm, stats

    try:
        (lc_res, lc_lat), (lw_res, lw_lat), l_stats = asyncio.run(
            run_leg(LocalDispatcher("thread", workers=4),
                    ResultStore(tmp_path / "local-store")))
        (bc_res, bc_lat), (bw_res, bw_lat), b_stats = asyncio.run(
            run_leg(BrokerDispatcher(spool, poll_s=0.005),
                    ResultStore(tmp_path / "broker-store")))
    finally:
        stop.set()
        worker.join(timeout=30)

    assert all(r.ok for r in lc_res) and all(r.ok for r in bc_res)
    assert [r.value for r in bc_res] == [r.value for r in lc_res], (
        "broker plane diverged from local plane")
    assert all(r.cached for r in lw_res) and all(r.cached for r in bw_res)
    assert b_stats["backend"] == "broker" and l_stats["backend"] == "thread"

    rows = []
    legs = {}
    for name, cold_lat, warm_lat in (("local", lc_lat, lw_lat),
                                     ("broker", bc_lat, bw_lat)):
        figures = {
            "cold_p50": statistics.median(cold_lat),
            "cold_p99": max(cold_lat),
            "warm_p50": statistics.median(warm_lat),
            "warm_p99": max(warm_lat),
        }
        legs[name] = figures
        # The SLO gate, per dispatcher mode.
        assert figures["cold_p99"] <= SLO_COLD_P99_S, (
            f"{name} cold p99 {figures['cold_p99']:.3f}s over SLO")
        assert figures["warm_p50"] <= SLO_WARM_P50_S, (
            f"{name} warm p50 {figures['warm_p50']:.4f}s over SLO")
        assert figures["warm_p99"] <= SLO_WARM_P99_S, (
            f"{name} warm p99 {figures['warm_p99']:.4f}s over SLO")
        rows.append([name, len(jobs), _ms(figures["cold_p50"]),
                     _ms(figures["cold_p99"]), _ms(figures["warm_p50"]),
                     _ms(figures["warm_p99"])])

    # Acceptance bar: cache hits never cross the spool, so the broker
    # leg's warm p50 must sit within 2x of the local leg's.  The local
    # figure is floored at 2.5 ms: both legs are pure store reads in
    # the low-millisecond range where scheduler jitter alone swings the
    # raw ratio past 2x, while an accidental spool round trip would
    # cost a poll interval plus chunk I/O — well past the floored bar.
    warm_floor = max(legs["local"]["warm_p50"], 2.5e-3)
    warm_ratio = legs["broker"]["warm_p50"] / warm_floor
    assert legs["broker"]["warm_p50"] <= 2.0 * warm_floor, (
        f"broker warm p50 {legs['broker']['warm_p50']:.4f}s is "
        f"{warm_ratio:.1f}x the local leg")

    bench_json.timing("broker_cold_p50_s", legs["broker"]["cold_p50"])
    bench_json.metric("broker_warm_p50_s", legs["broker"]["warm_p50"],
                      direction="info", unit="s")
    bench_json.metric("broker_warm_over_local_x", warm_ratio,
                      direction="info", unit="x")

    report.add(
        render_table(
            ["dispatch", "requests", "cold p50 [ms]", "cold p99 [ms]",
             "warm p50 [ms]", "warm p99 [ms]"],
            rows,
            title=(
                "serve dispatcher legs — local vs broker fleet "
                f"(warm ratio {warm_ratio:.2f}x, bar: 2x)"
            ),
        )
    )


def test_admission_control_sheds_without_losing_accepted_requests(
        report, bench_json):
    """The overload scenario: a 16-request burst into a server bounded
    at ``max_queue_depth=4``.  Asserted: shedding engages (non-zero
    overloaded count), every accepted request completes bit-identically
    to a serial reference, and requests are neither lost nor answered
    twice."""
    jobs = dse_jobs(dse_grid(slices=tuple(range(1, 9)),
                             voltages=(None, 0.9)))  # 16 points
    reference = {r.job_hash: r.value
                 for r in run_jobs(jobs, executor="serial").results}

    async def burst():
        srv = AsyncServer(dispatcher=LocalDispatcher("serial"),
                          batch_window_s=0.05, max_batch=4,
                          max_queue_depth=4)
        tasks = [asyncio.ensure_future(srv.submit(spec)) for spec in jobs]
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        stats = srv.stats()
        await srv.aclose()
        await srv.dispatcher.aclose()
        return outcomes, stats

    outcomes, stats = asyncio.run(burst())

    shed = [o for o in outcomes if isinstance(o, ServerOverloadedError)]
    unexpected = [o for o in outcomes
                  if isinstance(o, Exception)
                  and not isinstance(o, ServerOverloadedError)]
    accepted = [(spec, o) for spec, o in zip(jobs, outcomes)
                if not isinstance(o, Exception)]
    assert not unexpected, f"non-overload failures: {unexpected!r}"
    # Every request is answered exactly once: accepted + shed = burst.
    assert len(accepted) + len(shed) == len(jobs)
    assert shed, "overload never engaged at max_queue_depth=4"
    assert accepted, "admission control accepted nothing"
    for spec, result in accepted:
        assert result.ok, f"accepted request failed: {result.error}"
        assert result.value == reference[spec.job_hash], (
            "accepted request diverged from the serial reference")
    assert stats["shed"] == len(shed)

    bench_json.metric("overload_shed", len(shed), direction="info",
                      unit="requests")
    bench_json.metric("overload_accepted", len(accepted), direction="info",
                      unit="requests")

    report.add(
        render_table(
            ["burst", "accepted", "shed", "max queue depth"],
            [[len(jobs), len(accepted), len(shed), 4]],
            title="serve admission control — shed-under-load, lossless",
        )
    )
