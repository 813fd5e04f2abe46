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
"""

from __future__ import annotations

import numpy as np

__all__ = ["assemble", "plan", "accumulate", "at_risk", "fire_step"]


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
    # TLU hops: each touched step of a row jumps from its previous
    # touched step (or the starting TLU); every hop longer than one step
    # is idle time a TLU-less design would have walked.
    c, s = np.nonzero(touched.T)
    t = s + t0
    prev = np.empty_like(t)
    prev[1:] = t[:-1]
    first = np.ones(c.size, dtype=bool)
    first[1:] = c[1:] != c[:-1]
    prev[first] = tlus[c[first]]
    skipped = np.bincount(c, weights=np.maximum(t - prev - 1, 0), minlength=n_rows)

    return (
        flat, w, bounds, touched, updates, events_seen, skipped.astype(np.int64), over,
    )


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
