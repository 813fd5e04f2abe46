"""Pure-numpy kernel shim: the always-available batched fallback.

These are the vectorised stage implementations of the
:class:`~repro.hw.kernels.KernelSet` contract, so the numba backend can
replace them call-for-call.  Bit-identity with the per-event reference
is the load-bearing property: :func:`plan` derives every counter from
the same quantities the reference path counts, and :func:`accumulate`
adds per neuron in one step only where no clip can occur in any order,
replaying the (rare) at-risk neurons serially.
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
    t0: int,
    n_steps: int,
    tlus: np.ndarray,
    neuron_lo: int,
    neuron_hi: int,
    per_cluster: int,
    window: int,
) -> tuple:
    """Everything about one slice's UPDATE events that membranes don't decide.

    Runs once per (pass, slice) over the timesteps ``t0 .. t0+n_steps-1``:
    address filter, per-(event, cluster) sequencer counts, cycles,
    gating counters and TLU bookkeeping.  Returns the tuple documented
    on :class:`~repro.hw.kernels.KernelSet`.
    """
    n_clusters = tlus.size
    n_events = event_t.size
    in_range = (neuron_idx >= neuron_lo) & (neuron_idx < neuron_hi)
    idx = neuron_idx[in_range] - neuron_lo
    w = weights[in_range]
    ev = event_idx[in_range]
    event_step = event_t - t0
    entry_step = event_step[ev]
    cluster = idx // per_cluster

    step_n_in = np.bincount(entry_step, minlength=n_steps)
    bounds = np.zeros(n_steps + 1, dtype=np.int64)
    np.cumsum(step_n_in, out=bounds[1:])

    counts = np.bincount(
        ev * n_clusters + cluster, minlength=n_events * n_clusters
    ).reshape(n_events, n_clusters)
    over = np.maximum(counts.max(axis=1, initial=0) - window, 0)
    event_cycles = window + over
    step_cycles = np.bincount(event_step, weights=event_cycles, minlength=n_steps)
    updates = counts.sum(axis=0)
    events_seen = (counts > 0).sum(axis=0)

    touched = np.zeros((n_steps, n_clusters), dtype=bool)
    touched[entry_step, cluster] = True
    # TLU hops: each touched step of a cluster jumps from its previous
    # touched step (or the starting TLU); every hop longer than one step
    # is idle time a TLU-less design would have walked.
    c, s = np.nonzero(touched.T)
    t = s + t0
    prev = np.empty_like(t)
    prev[1:] = t[:-1]
    first = np.ones(c.size, dtype=bool)
    first[1:] = c[1:] != c[:-1]
    prev[first] = tlus[c[first]]
    skipped = np.bincount(c, weights=np.maximum(t - prev - 1, 0), minlength=n_clusters)

    return (
        idx, w, bounds, event_cycles, step_n_in, step_cycles.astype(np.int64), touched,
        updates, events_seen, n_events - events_seen, int(over.sum()),
        skipped.astype(np.int64),
    )


def at_risk(
    flat_state: np.ndarray, idx: np.ndarray, w: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-neuron sum of ``w`` and the neurons a clip could reach.

    A neuron is safe when ``entry + Σ positive w <= hi`` and ``entry +
    Σ negative w >= lo``: every partial sum in any order stays inside
    ``[lo, hi]``, so the serial chain of clipped adds equals one add of
    the total.  Returns ``(total, risk)`` over ``flat_state``'s length.
    """
    n = flat_state.size
    up = np.bincount(idx, weights=np.maximum(w, 0), minlength=n)
    down = np.bincount(idx, weights=np.minimum(w, 0), minlength=n)
    risk = (flat_state + up > hi) | (flat_state + down < lo)
    return (up + down).astype(np.int64), risk


def accumulate(
    flat_state: np.ndarray, idx: np.ndarray, w: np.ndarray, lo: int, hi: int
) -> None:
    """Saturating accumulate of one step's entries, in event order.

    ``idx`` is slice-local (0-based) into ``flat_state`` and ``w``
    parallel to it, both in event order.  Safe neurons (see
    :func:`at_risk`) take one add; at-risk neurons replay their entries
    serially.  Bit-identical to the per-event
    :meth:`~repro.hw.cluster.Cluster.apply_update` chain.
    """
    total, risk = at_risk(flat_state, idx, w, lo, hi)
    if not risk.any():
        flat_state += total
        return
    np.add(flat_state, total, out=flat_state, where=~risk)
    replay = risk[idx]
    for i, dw in zip(idx[replay].tolist(), w[replay].tolist()):
        flat_state[i] = min(hi, max(lo, int(flat_state[i]) + dw))


def fire_step(
    state: np.ndarray,
    dts: np.ndarray,
    leak: int,
    threshold: int,
    neuron_lo: int,
    neuron_hi: int,
    plane: int,
    out_width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One TDM fire scan across every cluster of a slice.

    Compares the *effective* membrane (stored value decayed by the
    per-cluster TLU distance, never written back) against the
    threshold, zeroes every fired membrane in place, and translates the
    fired TDM slots inside ``[neuron_lo, neuron_hi)`` to output
    ``(ch, x, y)`` coordinates.  Slots beyond the mapped interval stay
    silent but are still cleared and counted — the reference scan's
    exact behaviour.  Returns ``(out_ch, out_x, out_y,
    fires_per_cluster)`` int64 arrays in cluster-major scan order.
    """
    n_clusters, per_cluster = state.shape
    if leak > 0:
        effective = np.sign(state) * np.maximum(np.abs(state) - leak * dts[:, None], 0)
    else:
        effective = state
    fired = np.flatnonzero(effective >= threshold)  # slice-local, cluster-major
    fired_c = fired // per_cluster
    state[fired_c, fired - fired_c * per_cluster] = 0
    fires = np.bincount(fired_c, minlength=n_clusters)
    lin = fired[fired < neuron_hi - neuron_lo] + neuron_lo
    out_ch = lin // plane
    rem = lin - out_ch * plane
    out_y = rem // out_width
    out_x = rem - out_y * out_width
    return out_ch, out_x, out_y, fires
