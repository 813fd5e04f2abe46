"""Fig. 5b — performance (GSOP/s) and energy per SOP vs slice count.

Performance is validated two ways: the analytical peak (slices x 16
clusters x 400 MHz) and a measured SOP rate from the cycle simulator
running the all-clusters-updating workload (the benchmarked kernel).
The same workload also pins down the vectorised event loop's speedup
over the per-event reference path (bit-identical outputs, >=3x faster)
and emits ``BENCH_fig5b_perf.json`` for the CI regression gate.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.analysis import ComparisonRow, render_comparison, render_table
from repro.energy import FIG5B_PJ_PER_SOP, EfficiencyModel
from repro.events import EventStream
from repro.hw import SNE, PAPER_CONFIG, LayerGeometry, LayerKind, LayerProgram, SNEConfig

PAPER_PERF_GSOPS = {1: 6.4, 2: 12.8, 4: 25.6, 8: 51.2}


@pytest.fixture(scope="module")
def eff():
    return EfficiencyModel()


def test_fig5b_performance_and_energy(benchmark, eff, report):
    def evaluate_sweep():
        out = {}
        for n in (1, 2, 4, 8):
            cfg = PAPER_CONFIG.with_slices(n)
            out[n] = (eff.performance_gsops(cfg), eff.energy_per_sop_pj(cfg))
        return out

    sweep = benchmark(evaluate_sweep)

    rows, comp = [], []
    for n, (gsops, esop) in sweep.items():
        rows.append([n, gsops, esop])
        comp.append(ComparisonRow(f"perf @ {n} slices", PAPER_PERF_GSOPS[n], gsops, "GSOP/s"))
        comp.append(ComparisonRow(f"energy/SOP @ {n} slices", FIG5B_PJ_PER_SOP[n], esop, "pJ"))
    report.add(
        render_table(
            ["slices", "performance [GSOP/s]", "energy/SOP [pJ]"],
            rows,
            title="Fig. 5b — performance and energy per synaptic operation",
        )
    )
    report.add(render_comparison(comp, title="Fig. 5b anchors"))

    # Shape: performance proportional to slices; energy/SOP decreasing.
    perfs = [sweep[n][0] for n in (1, 2, 4, 8)]
    assert perfs == [pytest.approx(6.4 * n) for n in (1, 2, 4, 8)]
    esops = [sweep[n][1] for n in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(esops, esops[1:]))
    assert esops[-1] == pytest.approx(0.221, abs=0.001)


def _dense_workload(cfg):
    """The all-clusters-updating workload of the Fig. 5b companion."""
    rng = np.random.default_rng(0)
    n_outputs = cfg.neurons_per_slice  # fill the slice exactly
    g = LayerGeometry(LayerKind.DENSE, 1, 4, 4, n_outputs, 1, 1)
    prog = LayerProgram(g, rng.integers(-1, 2, (n_outputs, 16)), threshold=120, leak=0)
    dense = (rng.random((10, 1, 4, 4)) < 0.3).astype(np.uint8)
    return prog, EventStream.from_dense(dense)


def test_fig5b_measured_sop_rate_approaches_peak(benchmark, report, bench_json):
    """The cycle simulator must sustain ~1 SOP/cluster/cycle when every
    cluster updates on every event (the peak-performance condition)."""
    cfg = SNEConfig(n_slices=1, cycles_per_fire=0, cycles_per_reset=1)

    def run_dense_layer():
        prog, stream = _dense_workload(cfg)
        _, stats = SNE(cfg).run_layer(prog, stream)
        return stats

    stats = benchmark(run_dense_layer)
    # Every event updates all 1024 neurons across 16 clusters in 64+16
    # overrun cycles; utilisation = 1024 / (16 * 64) = 1.0.
    assert stats.utilization() == pytest.approx(1.0)
    measured_gsops = stats.sops_per_second(cfg) / 1e9
    report.add(
        render_table(
            ["quantity", "value"],
            [
                ["measured SOP rate (1 slice)", f"{measured_gsops:.2f} GSOP/s"],
                ["analytical peak (1 slice)", "6.40 GSOP/s"],
                ["utilization", stats.utilization()],
            ],
            title="Fig. 5b companion — simulator sustains the peak SOP rate",
        )
    )
    bench_json.from_benchmark(benchmark, "dense_layer_mean_s")
    bench_json.metric("measured_gsops", measured_gsops, unit="GSOP/s")
    # The cycle count is deterministic: 39,936 SOPs in 2,497 cycles at
    # 400 MHz, within 0.05% of the 6.4 GSOP/s analytical peak.
    assert (stats.sops, stats.cycles) == (39936, 2497)
    assert measured_gsops == 6.39743692430917


def test_fig5b_vectorized_event_loop_speedup(report, bench_json):
    """The numpy-batched event loop must beat the per-event reference by
    >=3x on the Fig. 5b workload while staying bit-identical (same
    output events, same statistics, down to the counter types)."""
    cfg = SNEConfig(n_slices=1, cycles_per_fire=0, cycles_per_reset=1)

    def run(kernel):
        prog, stream = _dense_workload(cfg)
        return SNE(cfg).run_layer(prog, stream, kernel=kernel)

    # Bit-identity first: outputs and every counter must match exactly.
    out_vec, stats_vec = run("auto")
    out_ref, stats_ref = run("reference")
    assert out_vec == out_ref
    assert dataclasses.asdict(stats_vec) == dataclasses.asdict(stats_ref)

    def timed(kernel):
        t0 = time.perf_counter()
        run(kernel)
        return time.perf_counter() - t0

    run("auto"), run("reference")  # warm the fanout table and allocator
    # Shared machines drift in speed mid-run; timing the two loops as
    # adjacent pairs and taking the median per-pair ratio keeps the
    # speedup figure stable even when absolute wall times are not.
    pairs = [(timed("reference"), timed("auto")) for _ in range(7)]
    ref_s = min(r for r, _ in pairs)
    vec_s = min(v for _, v in pairs)
    ratios = sorted(r / v for r, v in pairs)
    speedup = ratios[len(ratios) // 2]
    events_per_s = len(_dense_workload(cfg)[1]) / vec_s
    report.add(
        render_table(
            ["quantity", "value"],
            [
                ["per-event reference", f"{ref_s * 1e3:.2f} ms"],
                ["vectorised event loop", f"{vec_s * 1e3:.2f} ms"],
                ["speedup", f"{speedup:.1f}x"],
                ["event throughput", f"{events_per_s:,.0f} events/s"],
            ],
            title="Fig. 5b companion — vectorised vs per-event event loop",
        )
    )
    bench_json.timing("vectorized_s", vec_s)
    bench_json.timing("per_event_reference_s", ref_s)
    # The >=3x floor is asserted right here; the two timings above
    # carry the regression signal, so the ratio is informational.
    bench_json.metric("event_loop_speedup_x", speedup, direction="info", unit="x")
    assert speedup >= 3.0


def test_fig5b_compiled_kernel_matrix(report, bench_json):
    """Every registry kernel must stay bit-identical on the Fig. 5b
    workload.  ``kernel_numpy_s`` is gated against the parent commit —
    the no-numba fallback floor — on every CI leg; when numba is
    importable its kernels must additionally clear >=3x over the numpy
    shim (median paired ratio), and ``kernel_numba_s`` is gated on that
    leg only."""
    from repro.hw.kernels import available_kernels

    cfg = SNEConfig(n_slices=1, cycles_per_fire=0, cycles_per_reset=1)

    def run(kernel):
        prog, stream = _dense_workload(cfg)
        return SNE(cfg).run_layer(prog, stream, kernel=kernel)

    # Bit-identity across the whole matrix before any timing.
    out_ref, stats_ref = run("reference")
    out_np, stats_np = run("numpy")
    assert out_np == out_ref
    assert dataclasses.asdict(stats_np) == dataclasses.asdict(stats_ref)

    def timed(kernel):
        t0 = time.perf_counter()
        run(kernel)
        return time.perf_counter() - t0

    run("numpy")  # warm the fanout table and allocator
    numpy_s = min(timed("numpy") for _ in range(7))
    bench_json.timing("kernel_numpy_s", numpy_s)
    rows = [["numpy shim", f"{numpy_s * 1e3:.2f} ms"]]

    if available_kernels()["kernels"]["numba"]["available"]:
        out_nb, stats_nb = run("numba")
        assert out_nb == out_ref
        assert dataclasses.asdict(stats_nb) == dataclasses.asdict(stats_ref)
        run("numba")  # JIT compile outside the timed region
        # Adjacent pairs + median per-pair ratio, as above: stable on
        # machines whose absolute speed drifts mid-run.
        pairs = [(timed("numpy"), timed("numba")) for _ in range(7)]
        numba_s = min(b for _, b in pairs)
        ratios = sorted(a / b for a, b in pairs)
        speedup = ratios[len(ratios) // 2]
        bench_json.timing("kernel_numba_s", numba_s)
        bench_json.metric("kernel_speedup_x", speedup, direction="info", unit="x")
        rows += [["numba kernels", f"{numba_s * 1e3:.2f} ms"],
                 ["speedup over numpy", f"{speedup:.1f}x"]]
    else:
        speedup = None
        rows.append(["numba kernels", "unavailable -> numpy fallback "
                     "(bit-identical, gated by kernel_numpy_s)"])
    report.add(
        render_table(
            ["quantity", "value"], rows,
            title="Fig. 5b companion — compiled kernel matrix",
        )
    )
    if speedup is not None:
        assert speedup >= 3.0
