"""Runtime scaling — backend parity, cache-hit speedup, backend sweep.

Three claims the orchestration layer must uphold before any later
scaling work builds on it:

1. every registered execution backend (serial / thread / process / …)
   is a pure speedup: its sweep is bit-identical to the serial
   reference, in the same order;
2. the result store turns repeat invocations into near-free replays:
   a second identical run is served >= 90 % from disk (here: 100 %) and
   its wall-clock collapses accordingly;
3. the backend registry scales: the three shipped backends all complete
   the same 64-point sweep, and their wall-clocks are reported side by
   side.

Machine-dependent wall-clock (worker count, core count) is *reported*,
not asserted; determinism and hit rates are asserted.
"""

import time

from repro.analysis import render_table
from repro.events import SyntheticDVSGesture
from repro.hw import PAPER_CONFIG, HardwareEvaluator, compile_network, report_from_job_results
from repro.runtime import (
    ProcessBackend,
    ResultStore,
    SerialBackend,
    available_backends,
    dse_grid,
    dse_jobs,
    make_backend,
    run_jobs,
)
from repro.snn import build_small_network

SWEEP_JOBS = dse_jobs(
    dse_grid(
        slices=(1, 2, 3, 4, 5, 6, 7, 8),
        voltages=(None, 0.7, 0.9, 1.0),
        utilizations=(1.0, 0.5),
    )
)  # 64 design points


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_sweep_parallel_parity_and_cache_hits(benchmark, report, tmp_path):
    serial, t_serial = _timed(lambda: run_jobs(SWEEP_JOBS, executor=SerialBackend()))
    parallel, t_parallel = _timed(
        lambda: run_jobs(SWEEP_JOBS, executor=ProcessBackend(workers=2))
    )

    # Parallel dispatch is bit-identical to the serial reference, in order.
    assert [r.job_hash for r in parallel.results] == [r.job_hash for r in serial.results]
    assert [r.value for r in parallel.results] == [r.value for r in serial.results]

    cache = ResultStore(tmp_path / "sweep")
    cold, t_cold = _timed(lambda: run_jobs(SWEEP_JOBS, cache=cache))
    warm, t_warm = _timed(lambda: run_jobs(SWEEP_JOBS, cache=cache))
    benchmark(lambda: run_jobs(SWEEP_JOBS, cache=cache))  # warm-path timing stats

    # Acceptance: the repeat invocation is served >= 90 % from the cache.
    assert warm.hit_rate >= 0.9
    assert warm.misses == 0 and len(warm.failures()) == 0
    assert [r.value for r in warm.results] == [r.value for r in cold.results]
    assert cold.misses == len(SWEEP_JOBS)

    report.add(
        render_table(
            ["path", "jobs", "cache hits", "computed", "time [s]"],
            [
                ["serial", len(serial.results), serial.hits, serial.misses, f"{t_serial:.4f}"],
                ["process x2", len(parallel.results), parallel.hits, parallel.misses, f"{t_parallel:.4f}"],
                ["cache cold", len(cold.results), cold.hits, cold.misses, f"{t_cold:.4f}"],
                ["cache warm", len(warm.results), warm.hits, warm.misses, f"{t_warm:.4f}"],
            ],
            title=(
                "runtime scaling — 64-point DSE sweep "
                f"(warm hit rate {warm.hit_rate:.0%})"
            ),
        )
    )


def test_three_backend_scaling_comparison(benchmark, report, tmp_path):
    """The same 64-point sweep through every registered backend.

    Asserts bit-identical ordered values everywhere; reports each
    backend's cold wall-clock plus a shared-store warm replay, which is
    the deployment shape: one collaborator computes, everyone replays.
    """
    reference = run_jobs(SWEEP_JOBS, executor="serial")
    rows = []
    for name in available_backends():
        backend = make_backend(name, workers=2 if name != "serial" else None)
        run, elapsed = _timed(lambda b=backend: run_jobs(SWEEP_JOBS, executor=b))
        assert [r.job_hash for r in run.results] == [
            r.job_hash for r in reference.results
        ], f"backend {name!r} reordered results"
        assert [r.value for r in run.results] == [
            r.value for r in reference.results
        ], f"backend {name!r} diverged from serial"
        rows.append([name, run.workers, len(run.results), f"{elapsed:.4f}"])

    # One backend fills the shared store; every other backend replays it.
    store = ResultStore(tmp_path / "shared")
    run_jobs(SWEEP_JOBS, executor="serial", cache=store)
    for name in available_backends():
        warm, elapsed = _timed(
            lambda n=name: run_jobs(SWEEP_JOBS, executor=n, cache=store)
        )
        assert warm.hit_rate == 1.0, f"backend {name!r} missed the shared store"
        assert [r.value for r in warm.results] == [r.value for r in reference.results]
        rows.append([f"{name} (warm store)", warm.workers,
                     len(warm.results), f"{elapsed:.4f}"])
    benchmark(lambda: run_jobs(SWEEP_JOBS, executor="serial", cache=store))

    report.add(
        render_table(
            ["backend", "workers", "jobs", "time [s]"],
            rows,
            title="runtime scaling — 64-point DSE sweep across backends",
        )
    )


def test_hw_eval_parallel_parity_and_cache_speedup(benchmark, report, tmp_path,
                                                   bench_json):
    data = SyntheticDVSGesture(size=16, n_steps=8).generate(n_per_class=1, seed=7)
    net = build_small_network(input_size=16, n_classes=11, channels=4, hidden=16, seed=2)
    evaluator = HardwareEvaluator(
        compile_network(net, (2, 16, 16)), PAPER_CONFIG.with_slices(2)
    )
    jobs = evaluator.sample_jobs(data)

    serial, t_serial = _timed(lambda: run_jobs(jobs, executor=SerialBackend()))
    parallel, t_parallel = _timed(
        lambda: run_jobs(jobs, executor=ProcessBackend(workers=2, chunk_size=2))
    )
    assert [r.value for r in parallel.results] == [r.value for r in serial.results]
    assert report_from_job_results(parallel.results).accuracy == (
        report_from_job_results(serial.results).accuracy
    )

    cache = ResultStore(tmp_path / "eval")
    cold, t_cold = _timed(lambda: run_jobs(evaluator.sample_jobs(data), cache=cache))
    warm, t_warm = _timed(lambda: run_jobs(evaluator.sample_jobs(data), cache=cache))
    benchmark(lambda: run_jobs(evaluator.sample_jobs(data), cache=cache))

    assert warm.hit_rate >= 0.9
    assert warm.misses == 0
    assert report_from_job_results(warm.results) == report_from_job_results(cold.results)
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")

    report.add(
        render_table(
            ["path", "samples", "cache hits", "time [s]"],
            [
                ["serial", len(serial.results), serial.hits, f"{t_serial:.4f}"],
                ["process x2", len(parallel.results), parallel.hits, f"{t_parallel:.4f}"],
                ["cache cold", len(cold.results), cold.hits, f"{t_cold:.4f}"],
                ["cache warm", len(warm.results), warm.hits, f"{t_warm:.4f}"],
            ],
            title=(
                "runtime scaling — hardware-in-the-loop per-sample jobs "
                f"(cache speedup {speedup:.1f}x, warm hit rate {warm.hit_rate:.0%})"
            ),
        )
    )
    bench_json.timing("hw_eval_cold_s", t_cold)
    # Single-digit-millisecond warm timings flake past 20%; the
    # same-run speedup ratio carries the regression signal instead.
    bench_json.metric("hw_eval_warm_s", t_warm, direction="info", unit="s")
    bench_json.metric("cache_speedup_x", speedup, direction="info", unit="x")
    bench_json.metric("warm_hit_rate", warm.hit_rate, direction="higher")
    # The cache must beat recomputation, with margin for timer noise.
    assert t_warm < t_cold
