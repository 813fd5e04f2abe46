"""Numba-jit kernels for the SNE hot loop (preferred when importable).

The UPDATE stage is two serial loops.  ``plan`` walks a whole pass's
assembled entries once per slice — address filter, per-(event, cluster)
sequencer counts, cycles, gating and TLU counters — so the per-entry
counting stays compiled.  ``accumulate`` adds one step's entries in
event order, clipping every add exactly like
:func:`repro.hw.lif_datapath.sat_add`: serial execution makes
bit-identity with the per-event reference *trivial*, with no
fast-path/replay split to keep honest.

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

__all__ = ["AVAILABLE", "DETAIL", "assemble", "plan", "accumulate", "fire_step"]

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
    neuron_idx, weights, event_idx, event_t, t0, n_steps, tlus,
    neuron_lo, neuron_hi, per_cluster, window,
):  # pragma: no cover - jit body
    n_clusters = tlus.shape[0]
    n_events = event_t.shape[0]
    n = neuron_idx.shape[0]
    idx = np.empty(n, np.int64)
    w = np.empty(n, np.int64)
    bounds = np.zeros(n_steps + 1, np.int64)
    event_cycles = np.empty(n_events, np.int64)
    step_cycles = np.zeros(n_steps, np.int64)
    touched = np.zeros((n_steps, n_clusters), np.bool_)
    updates = np.zeros(n_clusters, np.int64)
    events_seen = np.zeros(n_clusters, np.int64)
    counts = np.zeros(n_clusters, np.int64)
    overrun = 0
    m = 0
    k = 0
    for e in range(n_events):
        s = event_t[e] - t0
        while k < n and event_idx[k] == e:  # entries arrive in event order
            g = neuron_idx[k]
            if g >= neuron_lo and g < neuron_hi:
                local = g - neuron_lo
                counts[local // per_cluster] += 1
                idx[m] = local
                w[m] = weights[k]
                m += 1
            k += 1
        peak = 0
        for c in range(n_clusters):
            cc = counts[c]
            if cc > 0:
                if cc > peak:
                    peak = cc
                updates[c] += cc
                events_seen[c] += 1
                touched[s, c] = True
                counts[c] = 0
        cyc = window
        if peak > window:
            overrun += peak - window
            cyc = peak
        event_cycles[e] = cyc
        step_cycles[s] += cyc
        bounds[s + 1] = m
    step_n_in = np.empty(n_steps, np.int64)
    for s in range(n_steps):
        if bounds[s + 1] < bounds[s]:  # a step without events
            bounds[s + 1] = bounds[s]
        step_n_in[s] = bounds[s + 1] - bounds[s]
    skipped = np.zeros(n_clusters, np.int64)
    for c in range(n_clusters):
        prev = tlus[c]
        for s in range(n_steps):
            if touched[s, c]:
                t = t0 + s
                if t - prev > 1:
                    skipped[c] += t - prev - 1
                prev = t
    return (
        idx[:m].copy(), w[:m].copy(), bounds, event_cycles, step_n_in, step_cycles,
        touched, updates, events_seen, n_events - events_seen, overrun, skipped,
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
def _fire_step(
    state, dts, leak, threshold, neuron_lo, neuron_hi, plane, out_width,
):  # pragma: no cover - jit body
    n_clusters, per_cluster = state.shape
    cap = n_clusters * per_cluster
    f_ch = np.empty(cap, np.int64)
    f_x = np.empty(cap, np.int64)
    f_y = np.empty(cap, np.int64)
    fires = np.zeros(n_clusters, np.int64)
    m = 0
    for c in range(n_clusters):
        dec = leak * dts[c]
        base = neuron_lo + c * per_cluster
        for j in range(per_cluster):
            v = state[c, j]
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
                state[c, j] = 0
                fires[c] += 1
                linear = base + j
                if linear < neuron_hi:
                    ch = linear // plane
                    rem = linear - ch * plane
                    i = rem // out_width
                    f_ch[m] = ch
                    f_x[m] = rem - i * out_width
                    f_y[m] = i
                    m += 1
    return f_ch[:m].copy(), f_x[:m].copy(), f_y[:m].copy(), fires


def assemble(offsets, idx_flat, w_flat, flat):
    """CSR fanout gather (jit): same contract as the numpy shim."""
    return _assemble(offsets, idx_flat, w_flat, flat)


def plan(
    neuron_idx, weights, event_idx, event_t, t0, n_steps, tlus,
    neuron_lo, neuron_hi, per_cluster, window,
):
    """Per-(pass, slice) UPDATE plan (jit): same contract as the numpy shim."""
    out = _plan(
        np.ascontiguousarray(neuron_idx), np.ascontiguousarray(weights),
        np.ascontiguousarray(event_idx), np.ascontiguousarray(event_t),
        int(t0), int(n_steps), np.ascontiguousarray(tlus),
        int(neuron_lo), int(neuron_hi), int(per_cluster), int(window),
    )
    return out[:10] + (int(out[10]), out[11])


def accumulate(flat_state, idx, w, lo, hi):
    """Serial saturating accumulate (jit): same contract as the numpy shim."""
    _accumulate(flat_state, idx, w, int(lo), int(hi))


def fire_step(state, dts, leak, threshold, neuron_lo, neuron_hi, plane, out_width):
    """Fused TDM fire scan (jit): same contract as the numpy shim."""
    return _fire_step(
        state, np.ascontiguousarray(dts), int(leak), int(threshold),
        int(neuron_lo), int(neuron_hi), int(plane), int(out_width),
    )
