"""Compiled kernels for the hot SNE stages (assemble/plan/accumulate/fire).

The numpy vectorisation made the event loop ~4x faster than the
per-event reference; profiling still shows ``sne.update``,
``sne.assemble`` and ``sne.fire`` dominating.  This package moves those
stages behind a runtime-selected :class:`KernelSet` — the shape
Matterhorn uses for its optional compiled LIF kernels: accelerate the
hot loop, never abandon the bit-identical reference.

A layer call gathers its whole stream's fanout once (``assemble``),
plans each (pass, slice) once over every timestep (``plan``: all the
work that does not depend on membrane state), and leaves only the
state-dependent work in the timestep loop: the saturating add
(``accumulate``) and the fire scan (``fire_step``).

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

    ``plan(neuron_idx, weights, event_idx, event_t, t0, n_steps, tlus,
    neuron_lo, neuron_hi, per_cluster, window)`` runs once per (pass,
    slice) over the gathered entries of the timesteps ``t0 ..
    t0+n_steps-1`` (``event_t`` is each event's timestep, sorted;
    ``tlus`` the slice's TLU registers before the first step).  It
    returns ``(idx, w, bounds, event_cycles, step_n_in, step_cycles,
    touched, updates, events_seen, events_gated, overrun,
    tlu_skipped)``: the slice-local in-range entries in event order,
    step ``k``'s entries at ``bounds[k]:bounds[k+1]``, the cycles of
    every event (exactly what the per-event reference charges), per-step
    in-range entries and cycles, the ``(n_steps, clusters)`` touched
    mask, per-cluster update/seen/gated counts, the sequencer overrun
    cycles and per-cluster TLU-skipped steps.

    ``accumulate(flat_state, idx, w, lo, hi)`` is one step's saturating
    add of the slice-local entries into the flattened state matrix, in
    event order (every add clips to ``[lo, hi]``).

    ``fire_step(state, dts, leak, threshold, neuron_lo, neuron_hi,
    plane, out_width)`` runs one TDM fire scan: zeroes fired membranes
    in place and returns ``(out_ch, out_x, out_y, fires_per_cluster)``
    with TDM slots beyond ``neuron_hi`` silenced (state still cleared,
    fire still counted — exactly the reference scan).
    """

    name: str
    assemble: Callable
    plan: Callable
    accumulate: Callable
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
