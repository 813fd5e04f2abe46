"""Pure-numpy kernel shim: the always-available batched fallback.

These are the vectorised stage implementations of the
:class:`~repro.hw.kernels.KernelSet` contract, so the numba backend can
replace them call-for-call.  Bit-identity with the per-event reference
is the load-bearing property: :func:`plan` derives every counter from
the same quantities the reference path counts, and :func:`accumulate`
adds per neuron in one step only where no clip can occur in any order,
replaying the (rare) at-risk neurons serially.

Every stage works on the *stacked* state of a pass: ``B`` samples times
``S`` slices times ``C`` clusters rows of ``N`` TDM neurons, sample
after sample.  Samples touch disjoint rows, so one call serves the
whole batch.

Dense layers are never expanded into per-synapse entries: one dense
event is one weight row broadcast to every neuron of the pass, so
:func:`dense_accumulate` takes a step's events as input coordinates and
gets every neuron's sums from an event-count matrix times the weights.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "assemble", "plan", "accumulate", "at_risk", "dense_accumulate", "fire_step",
    "tlu_skipped",
]


def assemble(
    offsets: np.ndarray, idx_flat: np.ndarray, w_flat: np.ndarray, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the packed CSR fanout of a batch of events.

    ``offsets[f]:offsets[f+1]`` delimits input coordinate ``f``'s fanout
    inside ``idx_flat``/``w_flat``; ``flat`` holds the batch's linear
    coordinates in event order.  Returns ``(neuron_idx, weights,
    event_idx)`` — the same concatenation-in-event-order contract as
    :meth:`repro.hw.mapper.FanoutTable.gather`.
    """
    sizes = offsets[flat + 1] - offsets[flat]
    total = int(sizes.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    ev = np.repeat(np.arange(flat.size, dtype=np.int64), sizes)
    starts = np.cumsum(sizes) - sizes
    src = np.arange(total, dtype=np.int64) - np.repeat(starts - offsets[flat], sizes)
    return idx_flat[src], w_flat[src], ev


def plan(
    neuron_idx: np.ndarray,
    weights: np.ndarray,
    event_idx: np.ndarray,
    event_t: np.ndarray,
    event_row: np.ndarray,
    t0: int,
    n_steps: int,
    tlus: np.ndarray,
    neuron_lo: int,
    n_mapped: int,
    per_cluster: int,
    per_slice: int,
    window: int,
) -> tuple:
    """Everything about a pass's UPDATE events that membranes don't decide.

    Runs once per pass over the timesteps ``t0 .. t0+n_steps-1`` of
    every stacked sample: address filter, per-(event, slice, cluster)
    sequencer counts, cycles, gating counters and TLU bookkeeping.
    Returns the tuple documented on :class:`~repro.hw.kernels.KernelSet`.
    """
    n_rows = tlus.size
    n_events = event_t.size
    sample_rows = -(-n_mapped // (per_slice * per_cluster)) * per_slice
    p = neuron_idx - neuron_lo if neuron_lo else neuron_idx
    w, ev = weights, event_idx
    if p.size and (p.min() < 0 or p.max() >= n_mapped):  # a pass of a wider layer
        in_range = (p >= 0) & (p < n_mapped)
        p, w, ev = p[in_range], w[in_range], ev[in_range]
    flat = (event_row * per_cluster)[ev] + p
    event_step = event_t - t0

    counts = np.bincount(
        ev * sample_rows + p // per_cluster, minlength=n_events * sample_rows
    ).reshape(n_events, sample_rows)
    over = np.maximum(
        counts.reshape(n_events, sample_rows // per_slice, per_slice).max(axis=2, initial=0)
        - window, 0
    )
    # Per (event, row) with entries: the row's updates and seen events,
    # and the step that touches it.
    e, r = np.nonzero(counts)
    row = event_row[e] + r
    updates = np.bincount(row, weights=counts[e, r], minlength=n_rows).astype(np.int64)
    events_seen = np.bincount(row, minlength=n_rows)
    step_n_in = np.bincount(event_step, weights=counts.sum(axis=1), minlength=n_steps)
    bounds = np.zeros(n_steps + 1, dtype=np.int64)
    np.cumsum(step_n_in.astype(np.int64), out=bounds[1:])

    touched = np.zeros((n_steps, n_rows), dtype=bool)
    touched[event_step[e], row] = True
    return (
        flat, w, bounds, touched, updates, events_seen, tlu_skipped(touched, tlus, t0),
        over,
    )


def tlu_skipped(touched: np.ndarray, tlus: np.ndarray, t0: int) -> np.ndarray:
    """Per row, the idle steps its TLU skips over a ``(n_steps, rows)``
    touched mask starting at time ``t0``.

    Each touched step of a row jumps from its previous touched step (or
    the starting TLU); every hop longer than one step is idle time a
    TLU-less design would have walked.
    """
    c, s = np.nonzero(touched.T)
    t = s + t0
    prev = np.empty_like(t)
    prev[1:] = t[:-1]
    first = np.ones(c.size, dtype=bool)
    first[1:] = c[1:] != c[:-1]
    prev[first] = tlus[c[first]]
    skipped = np.bincount(c, weights=np.maximum(t - prev - 1, 0), minlength=tlus.size)
    return skipped.astype(np.int64)


def at_risk(
    flat_state: np.ndarray, idx: np.ndarray, w: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's neuron's summed ``w``, and whether a clip could reach it.

    A neuron is safe when ``entry + Σ positive w <= hi`` and ``entry +
    Σ negative w >= lo``: every partial sum in any order stays inside
    ``[lo, hi]``, so the serial chain of clipped adds equals one add of
    the total.  Returns ``(total, risk)``, parallel to ``idx``.
    """
    up = np.bincount(idx, weights=np.maximum(w, 0))[idx]
    down = np.bincount(idx, weights=np.minimum(w, 0))[idx]
    entry = flat_state[idx]
    risk = (entry + up > hi) | (entry + down < lo)
    return (up + down).astype(np.int64), risk


def accumulate(
    flat_state: np.ndarray, idx: np.ndarray, w: np.ndarray, lo: int, hi: int
) -> None:
    """Saturating accumulate of one step's entries, in event order.

    ``idx`` indexes ``flat_state`` (the flattened stacked state) and
    ``w`` is parallel to it, both in event order.  Safe neurons (see
    :func:`at_risk`) take one add; at-risk neurons replay their entries
    serially.  Bit-identical to the per-event
    :meth:`~repro.hw.cluster.Cluster.apply_update` chain.
    """
    if not idx.size:
        return
    total, risk = at_risk(flat_state, idx, w, lo, hi)
    # A neuron's entries all carry its total, so repeated writes agree.
    if not risk.any():
        flat_state[idx] = flat_state[idx] + total
        return
    safe = idx[~risk]
    flat_state[safe] = flat_state[safe] + total[~risk]
    idx, w = idx[risk], w[risk]
    # Serial per neuron, vectorised across neurons: round k applies every
    # at-risk neuron's k-th entry (event order) with one clipped add.
    order = np.argsort(idx, kind="stable")
    run = np.ones(idx.size, dtype=bool)
    run[1:] = idx[order[1:]] != idx[order[:-1]]
    starts = np.flatnonzero(run)
    rank = np.arange(idx.size) - np.repeat(starts, np.diff(np.append(starts, idx.size)))
    by_round = order[np.argsort(rank, kind="stable")]
    begin = 0
    for end in np.cumsum(np.bincount(rank)).tolist():
        sel = by_round[begin:end]
        i = idx[sel]
        flat_state[i] = np.minimum(np.maximum(flat_state[i] + w[sel], lo), hi)
        begin = end


def dense_accumulate(
    flat_state: np.ndarray,
    stride: int,
    cols,
    coords: np.ndarray,
    samples: np.ndarray,
    lo: int,
    hi: int,
) -> None:
    """Saturating accumulate of one step's dense events, in event order.

    Event ``e`` adds weight row ``cols.w[coords[e]]`` (a
    :class:`~repro.hw.mapper.DenseColumns`) to the ``n`` pass neurons of
    sample ``samples[e]``, which sit at ``flat_state[samples[e] *
    stride:][:n]``; every add clips to ``[lo, hi]``.  The event counts
    per (sample, coordinate) times ``cols.sums`` give each neuron's Σw
    and Σw⁺.  A (sample, neuron) pair that no order of its adds can clip
    (see :func:`at_risk`) takes one add; the at-risk pairs replay their
    sample's events in order, one clipped add per round for all of them.
    """
    n_in, n = cols.w.shape
    state = flat_state.reshape(-1, stride)[:, :n]
    n_samples = state.shape[0]
    counts = np.bincount(samples * n_in + coords, minlength=n_samples * n_in)
    sums = counts.reshape(n_samples, n_in).astype(np.float64) @ cols.sums
    total, up = sums[:, :n], sums[:, n:]
    risk = (state + up > hi) | (state + (total - up) < lo)
    state += np.where(risk, 0, total.astype(np.int64))
    if not risk.any():
        return
    b, p = np.nonzero(risk)
    # Row k of ``w`` holds each at-risk pair's k-th add: the weight of
    # its sample's k-th event, or 0 once that sample has no more events
    # (a zero add leaves an in-range membrane as it is).
    order = np.argsort(samples, kind="stable")
    n_ev = np.bincount(samples, minlength=n_samples)
    first = (np.cumsum(n_ev) - n_ev)[b]
    n_ev = n_ev[b]
    k = np.arange(n_ev.max())[:, None]
    pos = np.minimum(first + k, coords.size - 1)
    w = cols.w[coords[order[pos]], p]
    w[k >= n_ev] = 0
    v = state[b, p]
    for row in w:
        np.add(v, row, out=v)
        np.maximum(v, lo, out=v)
        np.minimum(v, hi, out=v)
    state[b, p] = v


def fire_step(
    state: np.ndarray,
    dts: np.ndarray,
    leak: int,
    threshold: int,
    row_base: np.ndarray,
    row_cap: np.ndarray,
    plane: int,
    out_width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One TDM fire scan across every stacked row.

    Compares the *effective* membrane (stored value decayed by the
    per-row TLU distance ``dts``, never written back) against the
    (positive) threshold, zeroes every fired membrane in place, and
    translates fired slot ``j < row_cap[r]`` of row ``r`` to the output
    ``(ch, x, y)`` of linear neuron ``row_base[r] + j``.  Slots beyond
    ``row_cap`` stay silent but are still cleared and counted — the
    reference scan's exact behaviour.  Returns ``(rows, out_ch, out_x,
    out_y, fires_per_row)`` int64 arrays in row-major scan order,
    ``rows`` naming each emitted event's row.
    """
    n_rows, per_cluster = state.shape
    flat = state.reshape(-1)
    # A positive threshold is only reachable from a stored value at
    # least that high (the decay moves toward zero), so the scan only
    # decays the candidates.
    fired = np.flatnonzero(flat >= threshold)
    rows = fired // per_cluster
    if leak > 0 and fired.size:
        keep = flat[fired] - leak * dts[rows] >= threshold
        fired, rows = fired[keep], rows[keep]
    flat[fired] = 0
    fires = np.bincount(rows, minlength=n_rows)
    slot = fired - rows * per_cluster
    mapped = slot < row_cap[rows]
    rows = rows[mapped]
    lin = row_base[rows] + slot[mapped]
    out_ch = lin // plane
    rem = lin - out_ch * plane
    out_y = rem // out_width
    out_x = rem - out_y * out_width
    return rows, out_ch, out_x, out_y, fires
