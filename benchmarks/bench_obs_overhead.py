"""Observability overhead — instrumentation must stay under 3%.

PR 6's acceptance bar: the metrics registry, trace spans and NDJSON
journal added across the runtime ride every job the sweep executor
runs, so their cost has to be provably negligible on the workload the
paper's Fig. 5b timings come from (hardware-in-the-loop sample
evaluations through ``run_jobs``).

The measurement is paired: the identical job list runs alternately
with observability off (``obs.configure(False)``) and on (journal +
registry + per-run snapshot flush into a scratch directory).  Since
PR 10 the on arm carries the full production read/write path: it runs
under an ambient trace so histogram exemplar capture is live, and the
timed region includes the snapshot flush plus one SLO evaluation of
the default rules against the fresh journal and registry (what the
supervisor pays every tick).  The
gated figure is the **median over pairs of the pair-local CPU-time
ratio** (``time.process_time``; the serial executor keeps all work in
this process): instrumentation cost *is* CPU work, CPU time is immune
to preemption noise, the pair-local ratio cancels slow drift, and the
median rejects outlier pairs.  Wall clocks are recorded as info
metrics.  ``BENCH_obs_overhead.json`` feeds the same
``tools/bench_compare.py`` gate as the other benchmark records.
"""

import statistics
import time

from repro.analysis import render_table
from repro.events import SyntheticDVSGesture
from repro.hw import PAPER_CONFIG, HardwareEvaluator, compile_network
from repro.runtime import SerialBackend, run_jobs
from repro.runtime import obs
from repro.runtime.slo import default_rules, evaluate_slos
from repro.snn import build_small_network

#: Paired repetitions; the median paired ratio absorbs noise.
PAIRS = 9

#: The acceptance bar — instrumentation may cost at most 3%.
MAX_OVERHEAD = 1.03


def _fig5b_jobs():
    # Long enough (~0.3 s serial) that per-job instrumentation cost is
    # resolvable above scheduler jitter at the 3% bar.
    data = SyntheticDVSGesture(size=16, n_steps=16).generate(n_per_class=2, seed=7)
    net = build_small_network(input_size=16, n_classes=11, channels=4,
                              hidden=16, seed=2)
    evaluator = HardwareEvaluator(
        compile_network(net, (2, 16, 16)), PAPER_CONFIG.with_slices(2)
    )
    return evaluator.sample_jobs(data)


def _timed_run(jobs):
    """One serial run; returns ``(run, cpu_seconds, wall_seconds)``."""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    run = run_jobs(jobs, executor=SerialBackend())
    return run, time.process_time() - cpu0, time.perf_counter() - wall0


def test_obs_overhead_on_fig5b_workload(report, bench_json, tmp_path):
    jobs = _fig5b_jobs()
    old_registry = obs.set_registry(obs.MetricsRegistry())
    try:
        obs.configure(False)
        _timed_run(jobs)  # warm caches/imports outside the measurement

        def run_off():
            obs.configure(False)
            return _timed_run(jobs)

        def run_on(pair):
            obs.set_registry(obs.MetricsRegistry())
            target = tmp_path / f"obs-{pair}"
            obs.configure(target)
            # The ambient span arms exemplar capture on every histogram
            # observation the run makes, as a traced serve request would.
            with obs.span("bench.run", kind="bench"):
                run, cpu, wall = _timed_run(jobs)
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            obs.flush_metrics()
            statuses = evaluate_slos(
                default_rules(),
                events=obs.read_journal(target / "journal.ndjson"),
                registry=obs.get_registry(),
            )
            assert statuses, "SLO evaluation produced no statuses"
            return run, cpu + time.process_time() - cpu0, \
                wall + time.perf_counter() - wall0

        offs, ons = [], []
        for pair in range(PAIRS):
            # Alternate which arm goes first so slow drift (thermal,
            # neighbours) cancels instead of biasing one arm.
            if pair % 2:
                on_run, *on_t = run_on(pair)
                off_run, *off_t = run_off()
            else:
                off_run, *off_t = run_off()
                on_run, *on_t = run_on(pair)
            assert [r.value for r in on_run.results] == [
                r.value for r in off_run.results
            ], "instrumentation changed results"
            offs.append(off_t)
            ons.append(on_t)

        # The journal really was written — this measured the real path.
        events = obs.read_journal(tmp_path / f"obs-{PAIRS - 1}" / "journal.ndjson")
        assert {e["event"] for e in events} >= {"run.start", "run.end", "run.jobs"}
        assert obs.read_metrics(tmp_path / f"obs-{PAIRS - 1}").counter(
            "repro_jobs_total").total() == len(jobs)
        # Exemplar capture was live on the measured path: the merged
        # fleet exposition links at least one bucket to the bench trace.
        prom = obs.read_metrics(tmp_path / f"obs-{PAIRS - 1}").render_prometheus()
        assert '# {trace_id="' in prom, "no exemplars captured on the on arm"
    finally:
        obs.configure(False)
        obs.set_registry(old_registry)

    # Pair-local CPU ratios cancel slow drift (the arms of one pair run
    # back to back); the median across pairs rejects outlier pairs.
    overhead = statistics.median(
        on[0] / off[0] for on, off in zip(ons, offs))
    cpu_off = min(t[0] for t in offs)
    cpu_on = min(t[0] for t in ons)
    report.add(
        render_table(
            ["pair", "off cpu [s]", "on cpu [s]", "off wall [s]", "on wall [s]"],
            [[i, f"{offs[i][0]:.4f}", f"{ons[i][0]:.4f}",
              f"{offs[i][1]:.4f}", f"{ons[i][1]:.4f}"] for i in range(PAIRS)],
            title=(
                f"observability overhead — {len(jobs)} Fig. 5b sample jobs, "
                f"median paired CPU ratio {overhead:.4f} (bar {MAX_OVERHEAD:.2f})"
            ),
        )
    )
    bench_json.metric("overhead_ratio", overhead, direction="lower", unit="x")
    bench_json.metric("obs_off_cpu_s", cpu_off, direction="info", unit="s")
    bench_json.metric("obs_on_cpu_s", cpu_on, direction="info", unit="s")
    bench_json.metric("obs_off_wall_s", min(t[1] for t in offs),
                      direction="info", unit="s")
    bench_json.metric("obs_on_wall_s", min(t[1] for t in ons),
                      direction="info", unit="s")
    assert overhead < MAX_OVERHEAD, (
        f"observability instrumentation costs {(overhead - 1):.1%} "
        f"(bar {MAX_OVERHEAD - 1:.0%}) on the Fig. 5b workload"
    )
