"""Compiled kernels for the hot SNE stages (assemble/plan/accumulate/fire).

The numpy vectorisation made the event loop ~4x faster than the
per-event reference; profiling still shows ``sne.update``,
``sne.assemble`` and ``sne.fire`` dominating.  This package moves those
stages behind a runtime-selected :class:`KernelSet` — the shape
Matterhorn uses for its optional compiled LIF kernels: accelerate the
hot loop, never abandon the bit-identical reference.

A layer call gathers its whole stream's fanout once (``assemble``),
plans each pass once over every timestep (``plan``: all the work that
does not depend on membrane state), and leaves only the state-dependent
work in the timestep loop: the saturating add (``accumulate``) and the
fire scan (``fire_step``).  The stages work on *stacked* rows (a
:class:`~repro.hw.slice.SliceStack`): the slices of a pass, for one
sample or for a batch of samples one after another, so a batch of
``B`` samples costs the same number of kernel calls as one sample.

Dense layers are never expanded into per-synapse entries: one dense
event is one weight row broadcast to every neuron of the pass.  Their
events skip ``assemble`` and ``plan`` (the
:class:`~repro.hw.slice.SliceStack` derives their counters from event
counts alone) and update through ``dense_accumulate``, straight from
the weight matrix.

Selection is by name::

    SNE().run_layer(program, stream, kernel="auto")   # numba if importable
    SNE().run_layer(program, stream, kernel="numpy")  # vectorised shim
    SNE().run_layer(program, stream, kernel="reference")  # per-event loop

Every kernel is **bit-identical** against the per-event
reference — outputs, stats, traces and membranes — enforced by the
three-way parity matrix in ``tests/test_kernels.py`` and the cosim fuzz
harness (``repro.hw.fuzz``).  Requesting ``"numba"`` where numba is not
importable warns once and falls back to the numpy shim (never crashes):
a fleet silently mixing numba and numpy workers still produces
bit-identical results, and :func:`available_kernels` makes the mix
detectable in ``repro profile --json`` and serve/worker startup logs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "KERNEL_CHOICES",
    "KernelSet",
    "available_kernels",
    "default_kernel",
    "kernel_summary",
    "resolve_kernel",
]

#: Valid values of the ``kernel=`` parameter everywhere it appears
#: (``SNE.run_layer``/``run_network``/``run_network_pipelined``,
#: ``sample_eval`` job specs, ``repro profile/eval/sweep --kernel``).
KERNEL_CHOICES = ("auto", "numba", "numpy", "reference")


@dataclass(frozen=True)
class KernelSet:
    """The stage kernels one backend provides.

    ``assemble(offsets, idx, w, flat)`` gathers the packed CSR fanout of
    a batch of events into ``(neuron_idx, weights, event_idx)`` int64
    arrays concatenated in event order (the contract of
    :meth:`repro.hw.mapper.FanoutTable.gather`).

    ``plan(neuron_idx, weights, event_idx, event_t, event_row, t0,
    n_steps, tlus, neuron_lo, n_mapped, per_cluster, per_slice,
    window)`` runs once per pass over the gathered entries of the
    timesteps ``t0 .. t0+n_steps-1``.  The state is stacked rows of
    ``per_cluster`` neurons: each sample owns ``S * per_slice``
    consecutive rows, row ``r`` of a sample holding the pass neurons
    ``[neuron_lo + r*per_cluster, ...)`` of the ``n_mapped`` the pass
    maps; ``event_t`` is each event's timestep (sorted), ``event_row``
    the first row of its sample, ``tlus`` the rows' TLU registers before
    the first step.  It returns ``(flat, w, bounds, touched, updates,
    events_seen, tlu_skipped, over)``: the in-range entries as indices
    into the flattened state with their weights, in event order; step
    ``k``'s entries at ``bounds[k]:bounds[k+1]``; the ``(n_steps,
    rows)`` touched mask; per-row update counts, seen events and
    TLU-skipped steps; and ``over[e, s]``, event ``e``'s sequencer
    overrun on the ``s``-th slice of its sample — the cycles the
    per-event reference charges follow from it.

    ``accumulate(flat_state, idx, w, lo, hi)`` is one step's saturating
    add of the entries into the flattened state, in event order (every
    add clips to ``[lo, hi]``).

    ``dense_accumulate(flat_state, stride, cols, coords, samples, lo,
    hi)`` is the same for one step of a dense layer, whose events are
    never expanded into entries: event ``e`` adds weight row
    ``cols.w[coords[e]]`` (a :class:`~repro.hw.mapper.DenseColumns`) to
    the pass neurons of sample ``samples[e]``, the ``n`` flat state
    slots from ``samples[e] * stride`` on, in event order.

    ``fire_step(state, dts, leak, threshold, row_base, row_cap, plane,
    out_width)`` runs one TDM fire scan over every row: zeroes fired
    membranes in place and returns ``(rows, out_ch, out_x, out_y,
    fires_per_row)``, slot ``j`` of row ``r`` being output neuron
    ``row_base[r] + j``; slots at or beyond ``row_cap[r]`` are silenced
    (state still cleared, fire still counted — exactly the reference
    scan).  ``rows`` names each emitted event's row, from which the
    caller recovers its sample and slice.
    """

    name: str
    assemble: Callable
    plan: Callable
    accumulate: Callable
    dense_accumulate: Callable
    fire_step: Callable
    detail: str = field(default="", compare=False)


_RESOLVED: dict[str, "KernelSet | None"] = {}
_WARNED: set[str] = set()


def _numba_available() -> tuple[bool, str]:
    """Probe numba importability without paying for a JIT compile."""
    from . import numba_impl

    return numba_impl.AVAILABLE, numba_impl.DETAIL


def _numpy_factory() -> KernelSet:
    """Build the pure-numpy shim kernel set (always available)."""
    from . import numpy_impl

    return KernelSet(
        name="numpy",
        assemble=numpy_impl.assemble,
        plan=numpy_impl.plan,
        accumulate=numpy_impl.accumulate,
        dense_accumulate=numpy_impl.dense_accumulate,
        fire_step=numpy_impl.fire_step,
        detail=f"numpy {np.__version__}",
    )


def _numba_factory() -> KernelSet:
    """Build the numba-jit kernel set; raises when numba is absent."""
    from . import numba_impl

    if not numba_impl.AVAILABLE:
        raise ImportError(numba_impl.DETAIL)
    return KernelSet(
        name="numba",
        assemble=numba_impl.assemble,
        plan=numba_impl.plan,
        accumulate=numba_impl.accumulate,
        dense_accumulate=numba_impl.dense_accumulate,
        fire_step=numba_impl.fire_step,
        detail=numba_impl.DETAIL,
    )


#: Concrete kernel name -> zero-arg factory returning its KernelSet (None
#: for the per-event reference loop).  Called lazily, once, on first
#: resolution; a factory raises ImportError when its backend is
#: unavailable on this machine.
_FACTORIES: dict[str, Callable[[], KernelSet | None]] = {
    "numpy": _numpy_factory,
    "numba": _numba_factory,
    "reference": lambda: None,
}


def default_kernel() -> str:
    """The concrete kernel ``"auto"`` resolves to on this machine."""
    available, _ = _numba_available()
    return "numba" if available else "numpy"


def available_kernels() -> dict:
    """Structured capability report of the kernel backends.

    Returns ``{"auto": <name>, "kernels": {name: {"available": bool,
    "detail": str}, ...}}`` — the document surfaced by ``repro profile
    --json`` and logged at serve/worker startup so a fleet silently
    mixing numba and numpy workers is detectable.
    """
    numba_ok, numba_detail = _numba_available()
    return {
        "auto": default_kernel(),
        "kernels": {
            "numba": {"available": numba_ok, "detail": numba_detail},
            "numpy": {"available": True, "detail": f"numpy {np.__version__}"},
            "reference": {"available": True, "detail": "per-event python loop"},
        },
    }


def kernel_summary() -> str:
    """One-line capability summary for startup log lines."""
    caps = available_kernels()
    marks = ",".join(
        name for name, cap in caps["kernels"].items() if cap["available"]
    )
    return f"kernels {marks} (auto->{caps['auto']})"


def resolve_kernel(name: str = "auto") -> KernelSet | None:
    """Resolve a kernel name to a :class:`KernelSet`.

    ``"reference"`` resolves to ``None`` — the caller runs the retained
    per-event loop.  ``"auto"`` picks numba when importable, else the
    numpy shim.  An explicit ``"numba"`` request on a machine without
    numba warns once per process and falls back to numpy: results are
    bit-identical by the parity contract, so a mixed-kernel fleet is a
    performance concern, never a correctness one.
    """
    if name not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {', '.join(KERNEL_CHOICES)}"
        )
    if name == "auto":
        name = default_kernel()
    if name in _RESOLVED:
        return _RESOLVED[name]
    factory = _FACTORIES[name]
    try:
        ks = factory()
    except ImportError as exc:
        if name not in _WARNED:
            _WARNED.add(name)
            warnings.warn(
                f"kernel {name!r} unavailable ({exc}); falling back to the "
                "numpy shim (outputs are bit-identical)",
                RuntimeWarning,
                stacklevel=2,
            )
        ks = _FACTORIES["numpy"]()
        _RESOLVED[name] = ks
        return ks
    _RESOLVED[name] = ks
    return ks
