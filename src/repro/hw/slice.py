"""The SNE slice: sequencer, decoder, address filter and 16 clusters.

A slice receives every event of the stream (broadcast on the C-XBAR) and
dispatches it to the clusters whose neurons are sensitive to it; the
others are clock-gated (paper §III-D.4).  The sequencer walks the TDM
neurons inside a fixed 48-cycle window per UPDATE event; FIRE events
scan all TDM neurons of every cluster and stream the spikes through the
per-cluster output FIFOs toward the collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cluster import (
    COUNTER_FIELDS,
    EVENTS_GATED,
    EVENTS_SEEN,
    FIRES,
    TLU_SKIPPED,
    UPDATES,
    Cluster,
)
from .config import SNEConfig
from .kernels import KernelSet
from .kernels.numpy_impl import tlu_skipped
from .lif_datapath import fire_mask, leak_catchup, state_bounds
from .mapper import DenseColumns, LayerProgram

__all__ = ["DensePlan", "Slice", "SliceStack", "SliceStats", "StackPlan"]


@dataclass
class SliceStats:
    """Cycle/activity counters of one slice for one run.

    Booked by the per-event operations (:meth:`Slice.process_update`,
    :meth:`Slice.process_fire`, :meth:`Slice.process_reset`); the
    kernel path books its counters per sample from a
    :class:`SliceStack` instead.
    """

    busy_cycles: int = 0
    update_events: int = 0
    fire_events: int = 0
    reset_events: int = 0
    sops: int = 0
    active_cluster_cycles: int = 0
    gated_cluster_cycles: int = 0
    output_events: int = 0
    fifo_stall_cycles: int = 0
    sequencer_overrun_cycles: int = 0


class Slice:
    """One slice configured with (a pass of) a layer program."""

    def __init__(
        self,
        config: SNEConfig,
        slice_idx: int = 0,
        state: np.ndarray | None = None,
        tlus: np.ndarray | None = None,
        counters: np.ndarray | None = None,
    ) -> None:
        self.config = config
        self.slice_idx = slice_idx
        # One contiguous (clusters, neurons) membrane matrix, one TLU
        # vector and one (clusters, counters) matrix; each cluster owns
        # views into them.  The compiled kernels work on the arrays
        # directly (through a :class:`SliceStack`), the per-event
        # reference goes through the cluster views — same storage, so
        # the paths cannot drift.  An :class:`~repro.hw.sne.SNE` passes
        # row blocks of its own stacked storage here.
        n_clusters = config.clusters_per_slice
        if state is None:
            state = np.zeros((n_clusters, config.neurons_per_cluster), dtype=np.int64)
            tlus = np.zeros(n_clusters, dtype=np.int64)
            counters = np.zeros((n_clusters, len(COUNTER_FIELDS)), dtype=np.int64)
        self.state = state
        self.tlus = tlus
        self.counters = counters
        self._clusters: list[Cluster] | None = None
        self.program: LayerProgram | None = None
        self._neuron_lo = 0
        self._neuron_hi = 0
        self.stats = SliceStats()

    @property
    def clusters(self) -> list[Cluster]:
        """The 16 :class:`Cluster` views, built on first access.

        Only the per-event reference and inspection need them; the
        kernel path works on the slice arrays, so an SNE that never
        runs the reference never pays for them.  Building them later
        leaves the membranes, TLUs and counters untouched.
        """
        if self._clusters is None:
            cfg = self.config
            self._clusters = [
                Cluster(
                    n_neurons=cfg.neurons_per_cluster,
                    state_bits=cfg.state_bits,
                    fifo_depth=cfg.cluster_fifo_depth,
                    name=f"slice{self.slice_idx}.cluster{i}",
                    state=self.state[i],
                    tlu=self.tlus[i : i + 1],
                    counters=self.counters[i],
                )
                for i in range(cfg.clusters_per_slice)
            ]
        return self._clusters

    # -- configuration -----------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.config.neurons_per_slice

    def configure(self, program: LayerProgram, neuron_lo: int, neuron_hi: int) -> None:
        """Load a program and adopt the linear neuron interval [lo, hi).

        The interval is what the address-shift registers implement in the
        RTL: cluster ``c`` of this slice owns neurons
        ``[lo + c*64, lo + (c+1)*64) ∩ [lo, hi)``.
        """
        if neuron_hi - neuron_lo > self.capacity:
            raise ValueError(
                f"slice holds {self.capacity} neurons, asked for "
                f"{neuron_hi - neuron_lo}"
            )
        if neuron_lo < 0 or neuron_hi < neuron_lo:
            raise ValueError("invalid neuron interval")
        program.validate_for(self.config)
        self.program = program
        self._neuron_lo = neuron_lo
        self._neuron_hi = neuron_hi
        self.stats = SliceStats()
        self.state[...] = 0
        self.tlus[...] = 0
        self.counters[...] = 0

    def _require_program(self) -> LayerProgram:
        if self.program is None:
            raise RuntimeError("slice is not configured with a layer program")
        return self.program

    # -- event operations ------------------------------------------------------
    def process_reset(self, t: int = 0) -> int:
        """RST_OP: zero every membrane; all clusters activate (§III-D.4)."""
        self._require_program()
        self.state[...] = 0
        self.tlus[...] = t
        self.stats.reset_events += 1
        self.stats.busy_cycles += self.config.cycles_per_reset
        return self.config.cycles_per_reset

    def process_update(self, t: int, ch: int, x: int, y: int) -> int:
        """UPDATE_OP: route the event to the sensitive clusters.

        Returns the cycles consumed.  The sequencer window is fixed at
        ``cycles_per_event``; if the mapping forces one cluster to update
        more neurons than the window holds, the extra cycles are counted
        as sequencer overrun (the RTL would simply never be programmed
        that way, but the model must not silently lose updates).
        """
        program = self._require_program()
        cfg = self.config
        idx, weights = program.geometry.affected_outputs(ch, x, y, program.weights)
        in_range = (idx >= self._neuron_lo) & (idx < self._neuron_hi)
        idx = idx[in_range] - self._neuron_lo
        weights = weights[in_range]

        per_cluster = cfg.neurons_per_cluster
        cluster_ids = idx // per_cluster
        max_updates = 0
        touched: set[int] = set()
        for c in np.unique(cluster_ids):
            sel = cluster_ids == c
            local = idx[sel] % per_cluster
            n = self.clusters[int(c)].apply_update(t, local, weights[sel], program.leak)
            max_updates = max(max_updates, n)
            touched.add(int(c))
        for c, cluster in enumerate(self.clusters):
            if c not in touched:
                cluster.note_gated()

        cycles = cfg.cycles_per_event
        if max_updates > cfg.cycles_per_event:
            overrun = max_updates - cfg.cycles_per_event
            self.stats.sequencer_overrun_cycles += overrun
            cycles += overrun
        self.stats.update_events += 1
        self.stats.sops += int(in_range.sum())
        self.stats.active_cluster_cycles += int(in_range.sum())
        self.stats.gated_cluster_cycles += (
            cfg.clusters_per_slice * cycles - int(in_range.sum())
        )
        self.stats.busy_cycles += cycles
        return cycles

    def process_fire(self, t: int) -> tuple[list[tuple[int, int, int, int]], int]:
        """FIRE_OP: scan every TDM neuron; emit (t, ch, x, y) output events.

        The collector drains one event per cycle while the 64-cycle TDM
        scan runs; the per-cluster FIFOs absorb bursts beyond that.  A
        fire burst larger than scan-drain plus total FIFO slack stalls
        the scan one extra cycle per spilled event (the back-pressure
        the ABL4 bench sweeps).  Returns ``(events, cycles)``.
        """
        program = self._require_program()
        cfg = self.config
        geometry = program.geometry
        plane = geometry.out_height * geometry.out_width
        events: list[tuple[int, int, int, int]] = []
        total_fired = 0
        # One TDM scan vectorised across every cluster: the batched form
        # of ``Cluster.fire`` (which stays the single-cluster reference
        # and test surface), built on the same ``leak_catchup`` /
        # ``fire_mask`` datapath arithmetic so the semantics cannot
        # drift apart.  The effective membrane — stored value decayed by
        # the per-cluster TLU distance — is compared without writing the
        # decay back.
        self._check_fire_time(t)
        if program.leak > 0:
            effective = leak_catchup(self.state, program.leak, (t - self.tlus)[:, None])
        else:
            effective = self.state
        mask = fire_mask(effective, program.threshold)
        for c in np.flatnonzero(mask.any(axis=1)):
            cluster = self.clusters[int(c)]
            base = self._neuron_lo + int(c) * cfg.neurons_per_cluster
            fired_local = np.flatnonzero(mask[c])
            cluster.state[fired_local] = 0
            cluster.stats.fires += int(fired_local.size)
            for n in fired_local:
                linear = base + int(n)
                if linear >= self._neuron_hi:
                    continue  # TDM slots beyond the mapped interval stay silent
                out_ch, rem = divmod(linear, plane)
                i, j = divmod(rem, geometry.out_width)
                if cluster.out_fifo.full:
                    events.append(cluster.out_fifo.pop())  # collector drains
                cluster.out_fifo.push((t, out_ch, j, i))
                total_fired += 1
            events.extend(cluster.out_fifo.drain())
        stall = self.stats_fifo_penalty(total_fired)
        cycles = cfg.cycles_per_fire + stall
        self.stats.fifo_stall_cycles += stall
        self.stats.fire_events += 1
        self.stats.output_events += total_fired
        self.stats.busy_cycles += cycles
        return events, cycles

    def _check_fire_time(self, t: int) -> None:
        late = int(self.tlus.max())
        if t < late:
            raise ValueError(
                f"fire time {t} precedes cluster TLU {late}; "
                "streams must be time-sorted"
            )

    def stats_fifo_penalty(self, total_fired: int) -> int:
        """Extra cycles when one fire burst exceeds the drain bandwidth.

        During the ``cycles_per_fire`` scan the collector accepts one
        event per cycle; events beyond that and beyond the FIFO slack
        lengthen the operation.
        """
        cfg = self.config
        slack = cfg.cycles_per_fire + cfg.cluster_fifo_depth * cfg.clusters_per_slice
        return max(0, total_fired - slack)

    # -- inspection ----------------------------------------------------------
    def membrane_snapshot(self) -> np.ndarray:
        """Linear membrane vector of the mapped interval (tests/debug)."""
        flat = self.state.reshape(-1)
        return flat[: self._neuron_hi - self._neuron_lo].copy()

    def utilization(self) -> float:
        """Fraction of cluster-cycles that performed a state update."""
        total = self.stats.active_cluster_cycles + self.stats.gated_cluster_cycles
        if total == 0:
            return 0.0
        return self.stats.active_cluster_cycles / total


class StackPlan(NamedTuple):
    """A :class:`SliceStack`'s UPDATE events over a window of timesteps.

    Built by :meth:`SliceStack.plan` from
    :meth:`~repro.hw.kernels.KernelSet.plan`; step ``k`` (time ``t0 +
    k``) owns the flat-state entries ``flat``/``w`` at
    ``bounds[k]:bounds[k+1]`` and touches the rows of ``touched[k]``.
    ``over[e, s]`` is event ``e``'s sequencer overrun on the ``s``-th
    slice of its sample — the cycle accounting of every slice follows
    from it.
    """

    t0: int
    flat: np.ndarray
    w: np.ndarray
    bounds: list
    touched: np.ndarray
    over: np.ndarray

    @property
    def step_sops(self) -> list:
        """Each step's synaptic operations."""
        return np.diff(self.bounds).tolist()


class DensePlan(NamedTuple):
    """A dense layer's :class:`StackPlan`: its events, never expanded.

    Step ``k`` owns the events ``bounds[k]:bounds[k+1]``, each an input
    coordinate ``coords`` of sample ``samples``; every one of them
    updates all ``fanout`` neurons of its sample's pass.  ``touched``
    and ``over`` are as in :class:`StackPlan`.
    """

    t0: int
    coords: np.ndarray
    samples: np.ndarray
    bounds: list
    touched: np.ndarray
    over: np.ndarray
    fanout: int

    @property
    def step_sops(self) -> list:
        """Each step's synaptic operations."""
        return (np.diff(self.bounds) * self.fanout).tolist()


class SliceStack:
    """The slices of one pass, for one or many samples, as stacked rows.

    ``n_samples`` samples times the ``S`` slices covering the neuron
    interval ``[neuron_lo, neuron_hi)`` times their clusters form one
    ``(rows, neurons)`` membrane matrix, one TLU vector and one
    ``(rows, counters)`` matrix, sample after sample.  Samples touch
    disjoint rows, so each stage — :meth:`plan` once per window,
    :meth:`update` and :meth:`fire` once per timestep — is one kernel
    call for the whole batch.  Row ``r`` of a sample holds the pass
    neurons ``[neuron_lo + r*N, neuron_lo + (r+1)*N)``: exactly the
    cluster layout of the slices, so with one sample the arrays can be
    the SNE's own slice storage (``state``/``tlus``/``counters``
    views), which then shows the run's membranes afterwards.

    A dense program's stack is given its pass's weight ``columns``
    (:meth:`~repro.hw.mapper.FanoutTable.dense_columns`): it then plans
    from the events alone and updates straight from the weights, never
    expanding an event into per-neuron entries.
    """

    def __init__(
        self,
        config: SNEConfig,
        program: LayerProgram,
        neuron_lo: int,
        neuron_hi: int,
        n_samples: int = 1,
        state: np.ndarray | None = None,
        tlus: np.ndarray | None = None,
        counters: np.ndarray | None = None,
        columns: DenseColumns | None = None,
    ) -> None:
        per_cluster = config.neurons_per_cluster
        self.config = config
        self.program = program
        self.columns = columns
        self.neuron_lo = neuron_lo
        self.n_mapped = neuron_hi - neuron_lo
        self.n_samples = n_samples
        self.n_slices = -(-self.n_mapped // config.neurons_per_slice)
        self.sample_rows = self.n_slices * config.clusters_per_slice
        n_rows = n_samples * self.sample_rows
        if state is None:
            state = np.zeros((n_rows, per_cluster), dtype=np.int64)
            tlus = np.zeros(n_rows, dtype=np.int64)
            counters = np.zeros((n_rows, len(COUNTER_FIELDS)), dtype=np.int64)
        if state.shape != (n_rows, per_cluster) or not state.flags.c_contiguous:
            raise ValueError(f"stack state must be a contiguous ({n_rows}, {per_cluster}) matrix")
        self.state = state
        self.flat_state = state.reshape(-1)
        self.tlus = tlus
        self.counters = counters
        local = np.arange(self.sample_rows, dtype=np.int64) * per_cluster
        self.row_base = np.tile(neuron_lo + local, n_samples)
        self.row_cap = np.tile(np.clip(self.n_mapped - local, 0, per_cluster), n_samples)
        self._bounds = state_bounds(config.state_bits)
        geometry = program.geometry
        self._plane = geometry.out_height * geometry.out_width
        self._slack = config.cycles_per_fire + config.cluster_fifo_depth * config.clusters_per_slice

    def reset(self) -> None:
        """RST_OP at time 0 on every stacked row: zero the membranes and TLUs."""
        self.state[...] = 0
        self.tlus[...] = 0

    def plan(
        self,
        entries,
        event_t: np.ndarray,
        event_sample: np.ndarray,
        t0: int,
        n_steps: int,
        kernels: KernelSet,
    ) -> StackPlan | DensePlan:
        """Plan the UPDATE events of timesteps ``t0 .. t0+n_steps-1``.

        ``entries`` is the ``(neuron_idx, weights, event_idx)`` fanout
        gathered by :meth:`~repro.hw.kernels.KernelSet.assemble` (global
        linear neuron indices, in event order) — or, on a stack with
        dense ``columns``, the events' input coordinates; ``event_t``
        holds every event's timestep (sorted, empty fanouts included)
        and ``event_sample`` its sample.  Everything that does not
        depend on membrane state — address filter, sequencer counts,
        overrun, gating and TLU counters — is computed here once and
        booked into the row counters exactly as the per-event
        :meth:`Slice.process_update` chain would book them;
        :meth:`update` runs the state-dependent rest step by step.
        """
        cfg = self.config
        if event_t.size and int(event_t[0]) < int(self.tlus.max()):
            raise ValueError(
                f"event time {int(event_t[0])} precedes cluster TLU "
                f"{int(self.tlus.max())}; streams must be time-sorted"
            )
        sample_events = np.bincount(event_sample, minlength=self.n_samples)
        if self.columns is not None:
            plan, updates, seen, skipped = self._plan_dense(
                entries, event_t, event_sample, t0, n_steps)
        else:
            flat, w, bounds, touched, updates, seen, skipped, over = kernels.plan(
                *entries, event_t, event_sample * self.sample_rows, t0, n_steps,
                self.tlus, self.neuron_lo, self.n_mapped, cfg.neurons_per_cluster,
                cfg.clusters_per_slice, cfg.cycles_per_event,
            )
            plan = StackPlan(t0, flat, w, bounds.tolist(), touched, over)
        self.counters[:, UPDATES] += updates
        self.counters[:, EVENTS_SEEN] += seen
        self.counters[:, EVENTS_GATED] += np.repeat(sample_events, self.sample_rows) - seen
        self.counters[:, TLU_SKIPPED] += skipped
        return plan

    def _plan_dense(self, coords, event_t, event_sample, t0, n_steps):
        """:meth:`plan` for a dense layer, from event counts alone.

        Every event updates every mapped neuron of its sample's pass, so
        row ``r`` of a sample takes ``row_cap[r]`` updates per event of
        the sample, and a slice's sequencer overruns by its fullest
        cluster beyond the window on every event.
        """
        cap = self.row_cap[:self.sample_rows]
        live = cap > 0
        per_step = np.bincount(
            (event_t - t0) * self.n_samples + event_sample,
            minlength=n_steps * self.n_samples,
        ).reshape(n_steps, self.n_samples)
        sample_events = per_step.sum(axis=0)
        touched = ((per_step > 0)[:, :, None] & live).reshape(n_steps, -1)
        peak = cap.reshape(self.n_slices, -1).max(axis=1)
        over = np.broadcast_to(np.maximum(peak - self.config.cycles_per_event, 0),
                               (event_t.size, self.n_slices))
        bounds = np.zeros(n_steps + 1, dtype=np.int64)
        np.cumsum(per_step.sum(axis=1), out=bounds[1:])
        plan = DensePlan(t0, coords, event_sample, bounds.tolist(), touched, over,
                         self.n_mapped)
        return (plan, np.outer(sample_events, cap).reshape(-1),
                np.outer(sample_events, live).reshape(-1),
                tlu_skipped(touched, self.tlus, t0))

    def update(self, plan: StackPlan | DensePlan, k: int, kernels: KernelSet) -> None:
        """Apply step ``k`` of ``plan`` to the membranes.

        The touched rows catch up their leak (the TLU mechanism) and
        advance their TLU, then the saturating accumulate runs in event
        order.
        """
        lo, hi = plan.bounds[k], plan.bounds[k + 1]
        if lo == hi:
            return
        t = plan.t0 + k
        rows = np.flatnonzero(plan.touched[k])
        leak = self.program.leak
        if leak > 0:
            dt = t - self.tlus[rows]
            self.state[rows] = leak_catchup(self.state[rows], leak, dt[:, None])
        self.tlus[rows] = t
        vlo, vhi = self._bounds
        if self.columns is not None:
            kernels.dense_accumulate(
                self.flat_state, self.sample_rows * self.config.neurons_per_cluster,
                self.columns, plan.coords[lo:hi], plan.samples[lo:hi], vlo, vhi)
        else:
            kernels.accumulate(self.flat_state, plan.flat[lo:hi], plan.w[lo:hi], vlo, vhi)

    def fire(self, t: int, kernels: KernelSet):
        """FIRE_OP on every stacked row through a compiled kernel.

        Same scan as :meth:`Slice.process_fire` — effective membrane
        against the threshold, fired states zeroed, TDM slots beyond the
        mapped interval silenced, one collector stall cycle per event a
        slice's burst spills beyond scan drain plus FIFO slack.  Returns
        ``(sample, out_ch, out_x, out_y, stall)``: the emitted events as
        int64 arrays with their sample, and the ``(samples, slices)``
        stall cycles — ``None`` when no slice can have stalled.
        """
        late = int(self.tlus.max())
        if t < late:
            raise ValueError(
                f"fire time {t} precedes cluster TLU {late}; "
                "streams must be time-sorted"
            )
        program = self.program
        rows, out_ch, out_x, out_y, fires = kernels.fire_step(
            self.state, t - self.tlus, program.leak, program.threshold,
            self.row_base, self.row_cap, self._plane, program.geometry.out_width,
        )
        self.counters[:, FIRES] += fires
        stall = None
        if rows.size > self._slack:
            per_slice = np.bincount(
                rows // self.config.clusters_per_slice,
                minlength=self.n_samples * self.n_slices,
            ).reshape(self.n_samples, self.n_slices)
            stall = np.maximum(per_slice - self._slack, 0)
        return rows // self.sample_rows, out_ch, out_x, out_y, stall
