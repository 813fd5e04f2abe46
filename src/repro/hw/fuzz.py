"""Randomised co-simulation: the event-driven model vs the dense golden.

A verification engineer would fuzz the RTL against a golden C model;
this module is the Python analogue.  :func:`random_case` draws a random
layer kind, geometry, LIF parameters and input stream (constrained to
the saturation-free regime where the two paths are provably
equivalent); :func:`run_case` executes both and diffs the outputs.
Used by the property-based tests and runnable standalone::

    python -m repro.hw.fuzz 200

The second harness fuzzes the compiled-kernel matrix
(:mod:`repro.hw.kernels`): :func:`random_kernel_case` draws scenarios
that deliberately hit the kernel-boundary suspects — forced mid-step
saturation, zero-event steps, single-neuron slices — and
:func:`run_kernel_case` diffs every available kernel against the
per-event reference on outputs, statistics and membranes.  Unlike the
dense golden, the reference IS the spec here, so saturating scenarios
are compared, not skipped.  :func:`random_kernel_batch` and
:func:`run_kernel_batch` do the same for stacked batches: several
samples run as one :class:`~repro.hw.sne.EventBatch` through a
two-layer network must each equal their own per-event reference run::

    python -m repro.hw.fuzz 200 --kernels
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..events.stream import EventStream
from .config import SNEConfig
from .functional import check_no_intra_step_saturation, simulate_layer_dense
from .mapper import LayerGeometry, LayerKind, LayerProgram
from .sne import SNE, EventBatch

__all__ = [
    "BatchFuzzCase",
    "FuzzCase",
    "FuzzResult",
    "KernelFuzzResult",
    "fuzz",
    "fuzz_kernel_batches",
    "fuzz_kernels",
    "matrix_kernels",
    "random_case",
    "random_kernel_batch",
    "random_kernel_case",
    "run_case",
    "run_kernel_batch",
    "run_kernel_case",
]


@dataclass(frozen=True)
class FuzzCase:
    """One randomly drawn co-simulation scenario."""

    program: LayerProgram
    stream: EventStream
    n_slices: int
    seed: int


@dataclass(frozen=True)
class FuzzResult:
    """Outcome of one scenario."""

    case: FuzzCase
    matched: bool
    hw_events: int
    golden_events: int
    skipped_saturation: bool


def random_case(seed: int, max_plane: int = 10) -> FuzzCase:
    """Draw a random saturation-checkable layer + stream + slice count."""
    rng = np.random.default_rng(seed)
    kind = rng.choice([LayerKind.CONV, LayerKind.DEPTHWISE, LayerKind.DENSE])
    c_in = int(rng.integers(1, 4))
    n_steps = int(rng.integers(1, 10))

    if kind == LayerKind.DENSE:
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 16))
        geometry = LayerGeometry(kind, c_in, h, w, c_out, 1, 1)
        weights = rng.integers(-2, 3, (c_out, geometry.n_inputs))
    else:
        kernel = int(rng.integers(1, 4))
        h = int(rng.integers(kernel, max_plane))
        w = int(rng.integers(kernel, max_plane))
        if kind == LayerKind.DEPTHWISE:
            stride = kernel  # pooling-style
            if h % stride or w % stride:
                h -= h % stride
                w -= w % stride
                h = max(h, stride)
                w = max(w, stride)
            geometry = LayerGeometry(
                kind, c_in, h, w, c_in, h // stride, w // stride, kernel, stride, 0
            )
            weights = rng.integers(1, 3, (c_in, kernel, kernel))
        else:
            padding = int(rng.integers(0, kernel))
            stride = int(rng.integers(1, 3))
            h_out = (h + 2 * padding - kernel) // stride + 1
            w_out = (w + 2 * padding - kernel) // stride + 1
            if h_out < 1 or w_out < 1:
                stride, padding = 1, kernel // 2
                h_out = h + 2 * padding - kernel + 1
                w_out = w + 2 * padding - kernel + 1
            c_out = int(rng.integers(1, 5))
            geometry = LayerGeometry(
                kind, c_in, h, w, c_out, h_out, w_out, kernel, stride, padding
            )
            weights = rng.integers(-2, 3, (c_out, c_in, kernel, kernel))

    program = LayerProgram(
        geometry,
        weights,
        threshold=int(rng.integers(1, 12)),
        leak=int(rng.integers(0, 3)),
    )
    density = float(rng.uniform(0.0, 0.25))
    dense = (rng.random((n_steps, c_in, h, w)) < density).astype(np.uint8)
    return FuzzCase(
        program=program,
        stream=EventStream.from_dense(dense),
        n_slices=int(rng.choice([1, 2, 4, 8])),
        seed=seed,
    )


def run_case(case: FuzzCase) -> FuzzResult:
    """Co-simulate one case; skips scenarios where paths may diverge."""
    if not check_no_intra_step_saturation(case.program, case.stream):
        return FuzzResult(case, matched=True, hw_events=0, golden_events=0,
                          skipped_saturation=True)
    out_hw, _ = SNE(SNEConfig(n_slices=case.n_slices)).run_layer(
        case.program, case.stream
    )
    out_gold = simulate_layer_dense(case.program, case.stream)
    return FuzzResult(
        case,
        matched=out_hw == out_gold,
        hw_events=len(out_hw),
        golden_events=len(out_gold),
        skipped_saturation=False,
    )


def fuzz(n_cases: int, seed0: int = 0) -> list[FuzzResult]:
    """Run ``n_cases`` scenarios; returns every result (failures included)."""
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    return [run_case(random_case(seed0 + i)) for i in range(n_cases)]


@dataclass(frozen=True)
class KernelFuzzResult:
    """Outcome of one kernel-matrix scenario."""

    case: FuzzCase
    kernels: tuple[str, ...]
    matched: bool
    mismatches: tuple[str, ...]  # "<kernel>: <field>" per divergence


def matrix_kernels() -> tuple[str, ...]:
    """The kernels worth fuzzing here: numpy always, numba when importable.

    The per-event reference is the golden, so it is never in this list;
    an unavailable numba is excluded rather than exercised through the
    (warning, numpy-identical) fallback, which would test numpy twice.
    """
    from .kernels import available_kernels

    caps = available_kernels()["kernels"]
    return tuple(n for n in ("numpy", "numba") if caps[n]["available"])


def random_kernel_case(seed: int, max_plane: int = 8) -> FuzzCase:
    """Draw an adversarial scenario for the kernel parity matrix.

    Unlike :func:`random_case` (constrained to the saturation-free
    regime where the dense golden is provably equivalent), the kernel
    matrix compares against the per-event reference — which is the spec
    even when membranes clip — so the boundary conditions the compiled
    kernels could plausibly get wrong are provoked on purpose, rotating
    through four flavours:

    * forced mid-step saturation — full-rail ±7 weights on fully
      populated steps (the dtype-overflow suspect);
    * zero-event steps — long idle gaps between bursts (TLU catch-up
      and the per-step fire scan with nothing to accumulate);
    * single-neuron slices — a one-output dense layer, the degenerate
      TDM range (off-by-one suspect at the ``neuron_lo/hi`` boundary);
    * a general draw via :func:`random_case` for broad coverage
      (depthwise pooling, strided conv, multi-pass TDM).
    """
    rng = np.random.default_rng(0x5EED0 + seed)
    flavor = seed % 4
    if flavor == 3:
        return random_case(seed, max_plane=max_plane)
    n_steps = int(rng.integers(2, 8))
    if flavor == 0:
        # Forced mid-step saturation: every step fully populated, rails
        # reachable in one step.  A huge threshold sometimes suppresses
        # firing entirely so state parks on the rails across steps.
        side = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(2, 40))
        g = LayerGeometry(LayerKind.DENSE, c_in, side, side, c_out, 1, 1)
        weights = rng.integers(-7, 8, (c_out, g.n_inputs))
        threshold = int(rng.choice([1, 5, 10_000]))
        dense = np.ones((n_steps, c_in, side, side), dtype=np.uint8)
    elif flavor == 1:
        # Zero-event steps: bursts only at the stream's edges, so the
        # kernels cross an idle gap the TLU collapses in one hop while
        # the fire scan still runs every timestep.
        side = int(rng.integers(2, max_plane))
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 9))
        g = LayerGeometry(LayerKind.DENSE, c_in, side, side, c_out, 1, 1)
        weights = rng.integers(-4, 5, (c_out, g.n_inputs))
        threshold = int(rng.integers(1, 8))
        n_steps = int(rng.integers(5, 12))
        dense = np.zeros((n_steps, c_in, side, side), dtype=np.uint8)
        burst = (rng.random((c_in, side, side)) < 0.5).astype(np.uint8)
        dense[0] = burst
        dense[-1] = 1 - burst
    else:
        # Single-neuron slice: one output neuron total, so every kernel
        # runs with the degenerate [lo, lo+1) TDM range.
        side = int(rng.integers(1, max_plane))
        c_in = int(rng.integers(1, 3))
        g = LayerGeometry(LayerKind.DENSE, c_in, side, side, 1, 1, 1)
        weights = rng.integers(-7, 8, (1, g.n_inputs))
        threshold = int(rng.integers(1, 6))
        dense = (rng.random((n_steps, c_in, side, side)) < 0.4).astype(np.uint8)
    program = LayerProgram(g, weights, threshold=threshold,
                           leak=int(rng.integers(0, 3)))
    return FuzzCase(
        program=program,
        stream=EventStream.from_dense(dense),
        n_slices=int(rng.choice([1, 2, 8])),
        seed=seed,
    )


def run_kernel_case(case: FuzzCase, kernels=None) -> KernelFuzzResult:
    """Run one case through every kernel; the per-event reference is golden.

    Each kernel's outputs, statistics (as plain dicts) and per-slice
    membrane snapshots are diffed against the reference run; every
    divergent field is recorded as ``"<kernel>: <field>"``.
    """
    import dataclasses

    names = tuple(kernels) if kernels is not None else matrix_kernels()
    cfg = SNEConfig(n_slices=case.n_slices)
    sne_ref = SNE(cfg)
    out_ref, stats_ref = sne_ref.run_layer(case.program, case.stream,
                                           kernel="reference")
    ref_stats = dataclasses.asdict(stats_ref)
    ref_membranes = [sl.membrane_snapshot() for sl in sne_ref.slices]
    mismatches: list[str] = []
    for name in names:
        sne_k = SNE(cfg)
        out_k, stats_k = sne_k.run_layer(case.program, case.stream, kernel=name)
        if out_k != out_ref:
            mismatches.append(f"{name}: outputs")
        if dataclasses.asdict(stats_k) != ref_stats:
            mismatches.append(f"{name}: stats")
        if any(not np.array_equal(sl.membrane_snapshot(), m)
               for sl, m in zip(sne_k.slices, ref_membranes)):
            mismatches.append(f"{name}: membranes")
    return KernelFuzzResult(case=case, kernels=names,
                            matched=not mismatches,
                            mismatches=tuple(mismatches))


def fuzz_kernels(n_cases: int, seed0: int = 0, kernels=None) -> list[KernelFuzzResult]:
    """Run ``n_cases`` kernel-matrix scenarios; every result returned."""
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    names = tuple(kernels) if kernels is not None else matrix_kernels()
    return [run_kernel_case(random_kernel_case(seed0 + i), kernels=names)
            for i in range(n_cases)]


@dataclass(frozen=True)
class BatchFuzzCase:
    """One randomly drawn batch scenario: a network and its samples."""

    programs: tuple[LayerProgram, ...]
    streams: tuple[EventStream, ...]
    n_slices: int
    seed: int


def random_kernel_batch(seed: int, max_plane: int = 8) -> BatchFuzzCase:
    """Draw a batch scenario for the kernel parity matrix.

    ``B`` cycles through 1, 2 and 7 samples over one envelope, and the
    first layer rotates through three flavours:

    * the layer of a :func:`random_kernel_case` draw (saturation,
      zero-event gaps, a single neuron, or a general draw);
    * forced mid-step saturation with a leak: full-rail ±7 weights and
      every other sample fully populated;
    * a multi-pass dense layer wider than the SNE.

    The samples have mixed event counts, some carry zero-event steps
    between their first and last step, and in a batch of several one is
    empty.  A dense classifier follows the first layer, so the batch
    crosses a layer boundary and every sample's ``per_layer`` is
    compared too.
    """
    rng = np.random.default_rng(0xBA7C4 + seed)
    n_samples = (1, 2, 7)[seed % 3]
    flavor = (seed // 3) % 3
    if flavor == 0:
        base = random_kernel_case(seed, max_plane=max_plane)
        first, n_slices, n_steps = base.program, base.n_slices, base.stream.n_steps
    elif flavor == 1:
        side = int(rng.integers(1, 3))
        c_in = int(rng.integers(1, 3))
        g = LayerGeometry(LayerKind.DENSE, c_in, side, side, int(rng.integers(2, 40)), 1, 1)
        first = LayerProgram(g, rng.integers(-7, 8, (g.out_channels, g.n_inputs)),
                             threshold=int(rng.choice([1, 5, 10_000])),
                             leak=int(rng.integers(1, 3)))
        n_slices, n_steps = int(rng.choice([1, 2, 8])), int(rng.integers(2, 8))
    else:
        g = LayerGeometry(LayerKind.DENSE, 1, 3, 3, 1100, 1, 1)
        first = LayerProgram(g, rng.integers(-4, 5, (1100, 9)), threshold=3,
                             leak=int(rng.integers(0, 3)))
        n_slices, n_steps = 1, int(rng.integers(3, 6))
    shape = first.geometry.input_shape(n_steps)
    streams = []
    for b in range(n_samples):
        density = 1.0 if flavor == 1 and b % 2 == 0 else float(rng.uniform(0.05, 0.6))
        dense = (rng.random(shape) < density).astype(np.uint8)
        if b % 3 == 1 and n_steps > 2:
            dense[1:-1] = 0  # zero-event steps between the bursts
        streams.append(EventStream.from_dense(dense))
    if n_samples > 1:
        streams[int(rng.integers(n_samples))] = EventStream.empty(shape)
    g1 = first.geometry
    head = LayerGeometry(LayerKind.DENSE, g1.out_channels, g1.out_height, g1.out_width,
                         int(rng.integers(2, 12)), 1, 1)
    second = LayerProgram(head, rng.integers(-7, 8, (head.out_channels, head.n_inputs)),
                          threshold=int(rng.integers(1, 6)), leak=int(rng.integers(0, 3)))
    return BatchFuzzCase(programs=(first, second), streams=tuple(streams),
                         n_slices=n_slices, seed=seed)


def run_kernel_batch(case: BatchFuzzCase, kernels=None) -> KernelFuzzResult:
    """Run one batch through every kernel against per-sample references.

    Each sample's output stream and statistics (as plain dicts, with
    ``per_layer``) from the batched :meth:`SNE.run_network` are diffed
    against its own per-event reference run; every divergence is
    recorded as ``"<kernel>: sample <b> <field>"``.
    """
    import dataclasses

    names = tuple(kernels) if kernels is not None else matrix_kernels()
    cfg = SNEConfig(n_slices=case.n_slices)
    programs = list(case.programs)
    refs = [SNE(cfg).run_network(programs, s, kernel="reference") for s in case.streams]
    mismatches: list[str] = []
    for name in names:
        out, stats = SNE(cfg).run_network(programs, EventBatch(case.streams), kernel=name)
        for b, (ref_out, ref_stats) in enumerate(refs):
            if out.streams[b] != ref_out:
                mismatches.append(f"{name}: sample {b} outputs")
            if dataclasses.asdict(stats.samples[b]) != dataclasses.asdict(ref_stats):
                mismatches.append(f"{name}: sample {b} stats")
    return KernelFuzzResult(case=case, kernels=names, matched=not mismatches,
                            mismatches=tuple(mismatches))


def fuzz_kernel_batches(n_cases: int, seed0: int = 0, kernels=None) -> list[KernelFuzzResult]:
    """Run ``n_cases`` batch scenarios; every result returned."""
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    names = tuple(kernels) if kernels is not None else matrix_kernels()
    return [run_kernel_batch(random_kernel_batch(seed0 + i), kernels=names)
            for i in range(n_cases)]


def main(argv: list[str]) -> int:
    if "--kernels" in argv:
        argv = [a for a in argv if a != "--kernels"]
        n = int(argv[0]) if argv else 100
        failed = False
        for label, results in (("kernel", fuzz_kernels(n)),
                               ("batch", fuzz_kernel_batches(n))):
            failures = [r for r in results if not r.matched]
            names = results[0].kernels if results else ()
            print(f"{len(results)} {label} cases over {{{', '.join(names)}}}: "
                  f"{len(results) - len(failures)} matched, "
                  f"{len(failures)} mismatched")
            for r in failures:
                print(f"  MISMATCH seed={r.case.seed}: {'; '.join(r.mismatches)}")
            failed = failed or bool(failures)
        return 1 if failed else 0
    n = int(argv[0]) if argv else 100
    results = fuzz(n)
    failures = [r for r in results if not r.matched]
    skipped = sum(r.skipped_saturation for r in results)
    print(f"{len(results)} cases: {len(results) - len(failures)} matched, "
          f"{len(failures)} mismatched, {skipped} skipped (saturation)")
    for r in failures:
        print(f"  MISMATCH seed={r.case.seed}: hw={r.hw_events} gold={r.golden_events}")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv[1:]))
