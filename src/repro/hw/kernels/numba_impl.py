"""Numba-jit kernels for the SNE hot loop (preferred when importable).

The UPDATE stage is a few serial loops.  ``plan`` walks a whole pass's
assembled entries once for every stacked sample and slice — address
filter, per-(event, slice, cluster) sequencer counts, cycles, gating and
TLU counters — so the per-entry counting stays compiled.  ``accumulate``
adds one step's entries in event order, clipping every add exactly like
:func:`repro.hw.lif_datapath.sat_add`: serial execution makes
bit-identity with the per-event reference *trivial*, with no
fast-path/replay split to keep honest.  Dense layers are never expanded
into entries: ``dense_accumulate`` runs the same clipped adds straight
from the weight matrix, over the step's events and the pass's neurons.

The bodies are plain Python when numba is absent (``_jit`` is then the
identity), which is how the tier-1 suite checks them without numba.

Import of this module never fails: ``AVAILABLE`` records whether numba
imported, and the registry (:mod:`repro.hw.kernels`) falls back to the
numpy shim — with a once-per-process warning — when it did not.  JIT
compilation is paid once per process (``cache=True`` persists the
machine code across processes where numba's cache directory allows).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AVAILABLE", "DETAIL", "assemble", "plan", "accumulate", "dense_accumulate",
    "fire_step",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    AVAILABLE = True
    DETAIL = f"numba {numba.__version__}"
except ImportError as _exc:  # the container this grew in has no numba
    numba = None
    AVAILABLE = False
    DETAIL = f"numba not importable ({_exc})"


def _jit(func):
    """``numba.njit(cache=True)`` when numba imported, else identity.

    Keeping the decorator total lets the module define its kernels
    unconditionally; the registry only hands them out when
    ``AVAILABLE`` is true, so the undecorated forms are never hot (the
    tests still run them, as plain Python, through the parity matrix).
    """
    if numba is None:
        return func
    return numba.njit(cache=True)(func)


@_jit
def _assemble(offsets, idx_flat, w_flat, flat):  # pragma: no cover - jit body
    n = flat.shape[0]
    total = 0
    for k in range(n):
        total += offsets[flat[k] + 1] - offsets[flat[k]]
    idx = np.empty(total, np.int64)
    w = np.empty(total, np.int64)
    ev = np.empty(total, np.int64)
    p = 0
    for k in range(n):
        f = flat[k]
        for s in range(offsets[f], offsets[f + 1]):
            idx[p] = idx_flat[s]
            w[p] = w_flat[s]
            ev[p] = k
            p += 1
    return idx, w, ev


@_jit
def _plan(
    neuron_idx, weights, event_idx, event_t, event_row, t0, n_steps, tlus,
    neuron_lo, n_mapped, per_cluster, per_slice, window,
):  # pragma: no cover - jit body
    n_rows = tlus.shape[0]
    n_events = event_t.shape[0]
    n = neuron_idx.shape[0]
    sample_rows = -(-n_mapped // (per_slice * per_cluster)) * per_slice
    flat = np.empty(n, np.int64)
    w = np.empty(n, np.int64)
    bounds = np.zeros(n_steps + 1, np.int64)
    touched = np.zeros((n_steps, n_rows), np.bool_)
    updates = np.zeros(n_rows, np.int64)
    events_seen = np.zeros(n_rows, np.int64)
    over = np.zeros((n_events, sample_rows // per_slice), np.int64)
    counts = np.zeros(sample_rows, np.int64)
    m = 0
    k = 0
    for e in range(n_events):
        s = event_t[e] - t0
        base = event_row[e]
        while k < n and event_idx[k] == e:  # entries arrive in event order
            p = neuron_idx[k] - neuron_lo
            if p >= 0 and p < n_mapped:
                r = p // per_cluster
                counts[r] += 1
                flat[m] = (base + r) * per_cluster + p - r * per_cluster
                w[m] = weights[k]
                m += 1
            k += 1
        for g in range(0, sample_rows, per_slice):
            peak = 0
            for r in range(g, g + per_slice):
                cc = counts[r]
                if cc > 0:
                    if cc > peak:
                        peak = cc
                    updates[base + r] += cc
                    events_seen[base + r] += 1
                    touched[s, base + r] = True
                    counts[r] = 0
            if peak > window:
                over[e, g // per_slice] = peak - window
        bounds[s + 1] = m
    for s in range(n_steps):
        if bounds[s + 1] < bounds[s]:  # a step without events
            bounds[s + 1] = bounds[s]
    skipped = np.zeros(n_rows, np.int64)
    for r in range(n_rows):
        prev = tlus[r]
        for s in range(n_steps):
            if touched[s, r]:
                t = t0 + s
                if t - prev > 1:
                    skipped[r] += t - prev - 1
                prev = t
    return (
        flat[:m].copy(), w[:m].copy(), bounds, touched, updates, events_seen,
        skipped, over,
    )


@_jit
def _accumulate(flat, idx, w, lo, hi):  # pragma: no cover - jit body
    for k in range(idx.shape[0]):
        i = idx[k]
        v = flat[i] + w[k]
        if v > hi:
            v = hi
        elif v < lo:
            v = lo
        flat[i] = v


@_jit
def _dense_accumulate(flat, stride, w, coords, samples, lo, hi):  # pragma: no cover - jit body
    n = w.shape[1]
    for e in range(coords.shape[0]):
        base = samples[e] * stride
        f = coords[e]
        for p in range(n):
            v = flat[base + p] + w[f, p]
            if v > hi:
                v = hi
            elif v < lo:
                v = lo
            flat[base + p] = v


@_jit
def _fire_step(
    state, dts, leak, threshold, row_base, row_cap, plane, out_width,
):  # pragma: no cover - jit body
    n_rows, per_cluster = state.shape
    cap = n_rows * per_cluster
    f_row = np.empty(cap, np.int64)
    f_ch = np.empty(cap, np.int64)
    f_x = np.empty(cap, np.int64)
    f_y = np.empty(cap, np.int64)
    fires = np.zeros(n_rows, np.int64)
    m = 0
    for r in range(n_rows):
        dec = leak * dts[r]
        for j in range(per_cluster):
            v = state[r, j]
            if dec > 0:
                if v > 0:
                    v -= dec
                    if v < 0:
                        v = 0
                elif v < 0:
                    v += dec
                    if v > 0:
                        v = 0
            if v >= threshold:
                state[r, j] = 0
                fires[r] += 1
                if j < row_cap[r]:
                    linear = row_base[r] + j
                    ch = linear // plane
                    rem = linear - ch * plane
                    i = rem // out_width
                    f_row[m] = r
                    f_ch[m] = ch
                    f_x[m] = rem - i * out_width
                    f_y[m] = i
                    m += 1
    return f_row[:m].copy(), f_ch[:m].copy(), f_x[:m].copy(), f_y[:m].copy(), fires


def assemble(offsets, idx_flat, w_flat, flat):
    """CSR fanout gather (jit): same contract as the numpy shim."""
    return _assemble(offsets, idx_flat, w_flat, flat)


def plan(
    neuron_idx, weights, event_idx, event_t, event_row, t0, n_steps, tlus,
    neuron_lo, n_mapped, per_cluster, per_slice, window,
):
    """Per-pass UPDATE plan over the stacked batch (jit): same contract
    as the numpy shim."""
    return _plan(
        np.ascontiguousarray(neuron_idx), np.ascontiguousarray(weights),
        np.ascontiguousarray(event_idx), np.ascontiguousarray(event_t),
        np.ascontiguousarray(event_row), int(t0), int(n_steps),
        np.ascontiguousarray(tlus), int(neuron_lo), int(n_mapped),
        int(per_cluster), int(per_slice), int(window),
    )


def accumulate(flat_state, idx, w, lo, hi):
    """Serial saturating accumulate (jit): same contract as the numpy shim."""
    _accumulate(flat_state, idx, w, int(lo), int(hi))


def dense_accumulate(flat_state, stride, cols, coords, samples, lo, hi):
    """Serial saturating accumulate of dense events (jit): same contract
    as the numpy shim."""
    _dense_accumulate(
        flat_state, int(stride), cols.w, np.ascontiguousarray(coords),
        np.ascontiguousarray(samples), int(lo), int(hi),
    )


def fire_step(state, dts, leak, threshold, row_base, row_cap, plane, out_width):
    """Fused TDM fire scan over the stacked rows (jit): same contract as
    the numpy shim."""
    return _fire_step(
        state, np.ascontiguousarray(dts), int(leak), int(threshold),
        np.ascontiguousarray(row_base), np.ascontiguousarray(row_cap),
        int(plane), int(out_width),
    )
