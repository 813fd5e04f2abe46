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
from .kernels import KernelSet, resolve_kernel
from .lif_datapath import fire_mask, leak_catchup, state_bounds
from .mapper import LayerProgram

__all__ = ["Slice", "SliceStats", "UpdatePlan"]


@dataclass
class SliceStats:
    """Cycle/activity counters of one slice for one run."""

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


class UpdatePlan(NamedTuple):
    """One slice's UPDATE events over a window of timesteps, planned once.

    Built by :meth:`Slice.plan_updates` from
    :meth:`~repro.hw.kernels.KernelSet.plan`; step ``k`` (time ``t0 +
    k``) owns the slice-local entries ``idx``/``w`` at
    ``bounds[k]:bounds[k+1]`` and touches the clusters of
    ``touched[k]``.  The per-event and per-step cycle arrays and
    per-step in-range entry counts feed the caller's pass cycles and
    activity trace.
    """

    t0: int
    idx: np.ndarray
    w: np.ndarray
    bounds: list
    touched: np.ndarray
    event_cycles: np.ndarray
    step_n_in: np.ndarray
    step_cycles: np.ndarray


class Slice:
    """One slice configured with (a pass of) a layer program."""

    def __init__(self, config: SNEConfig, slice_idx: int = 0) -> None:
        self.config = config
        self.slice_idx = slice_idx
        # One contiguous (clusters, neurons) membrane matrix, one TLU
        # vector and one (clusters, counters) matrix; each cluster owns
        # views into them.  The compiled kernels work on the arrays
        # directly, the per-event reference goes through the cluster
        # views — same storage, so the paths cannot drift.
        n_clusters = config.clusters_per_slice
        self.state = np.zeros((n_clusters, config.neurons_per_cluster), dtype=np.int64)
        self.tlus = np.zeros(n_clusters, dtype=np.int64)
        self.counters = np.zeros((n_clusters, len(COUNTER_FIELDS)), dtype=np.int64)
        self._flat_state = self.state.reshape(-1)
        self._state_bounds = state_bounds(config.state_bits)
        self.clusters = [
            Cluster(
                n_neurons=config.neurons_per_cluster,
                state_bits=config.state_bits,
                fifo_depth=config.cluster_fifo_depth,
                name=f"slice{slice_idx}.cluster{i}",
                state=self.state[i],
                tlu=self.tlus[i : i + 1],
                counters=self.counters[i],
            )
            for i in range(n_clusters)
        ]
        self.program: LayerProgram | None = None
        self._neuron_lo = 0
        self._neuron_hi = 0
        self.stats = SliceStats()

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

    def plan_updates(
        self,
        entries: tuple[np.ndarray, np.ndarray, np.ndarray],
        event_t: np.ndarray,
        t0: int,
        n_steps: int,
        kernels: KernelSet,
    ) -> UpdatePlan:
        """Plan the UPDATE events of timesteps ``t0 .. t0+n_steps-1``.

        ``entries`` is the ``(neuron_idx, weights, event_idx)`` fanout of
        the window's events gathered by
        :meth:`~repro.hw.kernels.KernelSet.assemble` (global linear
        neuron indices, in event order); ``event_t`` holds every event's
        timestep, including events whose fanout is empty.  Everything
        that does not depend on membrane state — address filter,
        sequencer counts, cycles, gating/overrun/TLU counters — is
        computed here once and booked into the slice and cluster
        counters, exactly as the per-event :meth:`process_update` chain
        would book it; :meth:`apply_updates` then runs the
        state-dependent rest step by step.
        """
        self._require_program()
        cfg = self.config
        if event_t.size and int(event_t[0]) < int(self.tlus.max()):
            raise ValueError(
                f"event time {int(event_t[0])} precedes cluster TLU "
                f"{int(self.tlus.max())}; streams must be time-sorted"
            )
        (idx, w, bounds, event_cycles, step_n_in, step_cycles, touched, updates,
         events_seen, events_gated, overrun, tlu_skipped) = kernels.plan(
            *entries, event_t, t0, n_steps, self.tlus,
            self._neuron_lo, self._neuron_hi, cfg.neurons_per_cluster,
            cfg.cycles_per_event,
        )
        self.counters[:, UPDATES] += updates
        self.counters[:, EVENTS_SEEN] += events_seen
        self.counters[:, EVENTS_GATED] += events_gated
        self.counters[:, TLU_SKIPPED] += tlu_skipped

        n_in = int(idx.size)
        total_cycles = int(event_cycles.sum())
        self.stats.update_events += int(event_t.size)
        self.stats.sops += n_in
        self.stats.active_cluster_cycles += n_in
        self.stats.gated_cluster_cycles += cfg.clusters_per_slice * total_cycles - n_in
        self.stats.sequencer_overrun_cycles += overrun
        self.stats.busy_cycles += total_cycles
        return UpdatePlan(
            t0, idx, w, bounds.tolist(), touched, event_cycles, step_n_in, step_cycles
        )

    def apply_updates(self, plan: UpdatePlan, k: int, kernels: KernelSet) -> None:
        """Apply step ``k`` of ``plan`` to the membranes.

        The touched clusters catch up their leak (the TLU mechanism) and
        advance their TLU, then the saturating accumulate runs in event
        order.
        """
        lo, hi = plan.bounds[k], plan.bounds[k + 1]
        if lo == hi:
            return
        t = plan.t0 + k
        touched = plan.touched[k]
        leak = self.program.leak
        if leak > 0:
            dt = t - self.tlus[touched]
            self.state[touched] = leak_catchup(self.state[touched], leak, dt[:, None])
        self.tlus[touched] = t
        vlo, vhi = self._state_bounds
        kernels.accumulate(self._flat_state, plan.idx[lo:hi], plan.w[lo:hi], vlo, vhi)

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

    def process_fire_packed(
        self, t: int, kernels: KernelSet | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """FIRE_OP through a compiled kernel, events as packed arrays.

        Same scan as :meth:`process_fire` — effective membrane against
        the threshold, fired states zeroed, TDM slots beyond the mapped
        interval silenced, identical cycle/stall/fire accounting — but
        the emitted events come back as ``(out_ch, out_x, out_y)``
        int64 arrays instead of a Python tuple list, which is what lets
        the pipelined fire→next-layer hop skip the list round trip.
        Returns ``(out_ch, out_x, out_y, cycles)``.
        """
        program = self._require_program()
        cfg = self.config
        ks = kernels if kernels is not None else resolve_kernel("numpy")
        geometry = program.geometry
        plane = geometry.out_height * geometry.out_width
        self._check_fire_time(t)
        out_ch, out_x, out_y, fires = ks.fire_step(
            self.state, t - self.tlus, program.leak, program.threshold,
            self._neuron_lo, self._neuron_hi, plane, geometry.out_width,
        )
        self.counters[:, FIRES] += fires
        total_fired = int(out_ch.size)
        stall = self.stats_fifo_penalty(total_fired)
        cycles = cfg.cycles_per_fire + stall
        self.stats.fifo_stall_cycles += stall
        self.stats.fire_events += 1
        self.stats.output_events += total_fired
        self.stats.busy_cycles += cycles
        return out_ch, out_x, out_y, cycles

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
