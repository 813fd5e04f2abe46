"""SNE top level: slices + C-XBAR + DMA streamers + collector (paper Fig. 2).

Two operating modes (paper §III-D.5):

* **time-multiplexed** (:meth:`SNE.run_layer` / :meth:`SNE.run_network`)
  — the network is larger than the 8192 on-chip neurons; each layer runs
  as one or more *passes*, each pass mapping a block of output neurons
  onto the slices and replaying the input event stream, with
  intermediate feature maps spilled through the DMAs.
* **layer-parallel** (:meth:`SNE.run_network_pipelined`) — the whole
  network fits; each layer occupies a group of slices and output events
  flow to the next layer through the C-XBAR within the same timestep.

All slices observe every event (broadcast) and their address filters
decide participation, so a pass costs the same cycle count on every
slice; the run's cycle count is the per-slice busy time times the number
of passes, while SOPs and output events sum across slices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from ..events.stream import EventStream
from .config import SNEConfig
from .kernels import resolve_kernel
from .mapper import LayerProgram, fanout_table
from .registers import RegisterFile
from .cluster import TLU_SKIPPED
from .slice import Slice
from .xbar import Crossbar

__all__ = ["SNE", "SNEStats"]

_pc = time.perf_counter


@dataclass
class SNEStats:
    """Aggregate counters of one SNE run (one layer or one network)."""

    cycles: int = 0
    sops: int = 0
    update_events: int = 0
    fire_events: int = 0
    reset_events: int = 0
    output_events: int = 0
    active_cluster_cycles: int = 0
    gated_cluster_cycles: int = 0
    fifo_stall_cycles: int = 0
    sequencer_overrun_cycles: int = 0
    passes: int = 0
    dma_words_in: int = 0
    dma_words_out: int = 0
    xbar_broadcasts: int = 0
    tlu_skipped_steps: int = 0
    per_layer: list = field(default_factory=list)

    def merge(self, other: "SNEStats", parallel: bool = False) -> None:
        """Accumulate another run's counters.

        ``parallel=True`` models concurrent execution: cycles take the
        max instead of the sum (layer-parallel mode), everything else
        still adds.
        """
        for f in fields(self):
            if f.name in ("cycles", "per_layer"):
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        if parallel:
            self.cycles = max(self.cycles, other.cycles)
        else:
            self.cycles += other.cycles

    # -- derived metrics ---------------------------------------------------
    def time_s(self, config: SNEConfig) -> float:
        return self.cycles / config.freq_hz

    def sops_per_second(self, config: SNEConfig) -> float:
        t = self.time_s(config)
        return self.sops / t if t > 0 else 0.0

    def utilization(self) -> float:
        """Fraction of cluster-cycles spent on actual neuron updates."""
        total = self.active_cluster_cycles + self.gated_cluster_cycles
        return self.active_cluster_cycles / total if total else 0.0


class SNE:
    """One SNE instance: a configurable number of slices behind a C-XBAR."""

    def __init__(self, config: SNEConfig | None = None) -> None:
        self.config = config or SNEConfig()
        self.slices = [Slice(self.config, i) for i in range(self.config.n_slices)]
        # Masters: 2 DMAs + collector; slaves: the slices + output DMA port.
        self.xbar = Crossbar(
            n_masters=self.config.n_dmas + 1, n_slaves=self.config.n_slices + 1
        )
        self.registers = RegisterFile(
            self.config.n_slices,
            n_filter_sets=self.config.n_filter_sets,
            weights_per_set=self.config.neurons_per_cluster,
        )

    # -- programming ---------------------------------------------------------
    def _program_pass(self, program: LayerProgram, pass_lo: int, pass_hi: int) -> list[Slice]:
        """Configure the slices for one pass; returns the active ones."""
        cfg = self.config
        active: list[Slice] = []
        for s, sl in enumerate(self.slices):
            lo = pass_lo + s * cfg.neurons_per_slice
            hi = min(lo + cfg.neurons_per_slice, pass_hi)
            if lo >= hi:
                break
            sl.configure(program, lo, hi)
            self.registers.program_lif(s, program.threshold, program.leak)
            self.registers.program_interval(s, lo, hi)
            active.append(sl)
        return active

    @staticmethod
    def _activity_snapshot(active: list[Slice]) -> tuple[int, int, int, int]:
        """(sops, output_events, active_cc, gated_cc) summed over slices."""
        sops = sum(sl.stats.sops for sl in active)
        outs = sum(sl.stats.output_events for sl in active)
        act = sum(sl.stats.active_cluster_cycles for sl in active)
        gated = sum(sl.stats.gated_cluster_cycles for sl in active)
        return sops, outs, act, gated

    @staticmethod
    def _add_slice_stats(stats: SNEStats, sl: Slice) -> None:
        """Accumulate one slice's activity counters into ``stats``."""
        s = sl.stats
        stats.sops += s.sops
        stats.output_events += s.output_events
        stats.active_cluster_cycles += s.active_cluster_cycles
        stats.gated_cluster_cycles += s.gated_cluster_cycles
        stats.fifo_stall_cycles += s.fifo_stall_cycles
        stats.sequencer_overrun_cycles += s.sequencer_overrun_cycles
        stats.tlu_skipped_steps += int(sl.counters[:, TLU_SKIPPED].sum())

    # -- single-layer execution ----------------------------------------------
    def run_layer(
        self,
        program: LayerProgram,
        stream: EventStream,
        trace=None,
        profiler=None,
        kernel: str = "auto",
    ) -> tuple[EventStream, SNEStats]:
        """Execute one layer in time-multiplexed mode.

        Replays the input stream once per pass (Listing 1's software
        loop).  Returns the output event stream and the run statistics.
        When an :class:`~repro.hw.trace.ActivityTrace` is passed, one
        entry per timestep is recorded (multi-pass runs use the global
        index ``pass * n_steps + step``).

        ``profiler`` (a :class:`repro.runtime.profile.Profiler`)
        receives per-stage spans — ``sne.assemble`` once per call (the
        fanout gather of the whole stream), ``sne.update`` / ``sne.fire``
        / ``sne.reset`` (+ ``sne.trace`` when tracing) per pass — with
        event counts.

        ``kernel`` selects the batched stage implementation through the
        :mod:`repro.hw.kernels` registry: ``"auto"`` (numba when
        importable, else the numpy shim), ``"numba"``, ``"numpy"``, or
        ``"reference"`` for the retained per-event loop.  The batched
        kernels gather the stream's fanout once, plan every (pass,
        slice) once, and leave only the membrane updates and the fire
        scan in the timestep loop.  Every choice produces bit-identical
        outputs and statistics (the parity the kernel matrix in
        ``tests/test_kernels.py`` and the Fig. 5b speedup benchmark pin
        down).
        """
        cfg = self.config
        program.validate_for(cfg)
        g = program.geometry
        n_steps = stream.n_steps
        if stream.shape != g.input_shape(n_steps):
            raise ValueError(
                f"stream envelope {stream.shape} does not match layer input "
                f"{g.input_shape(n_steps)}"
            )
        stats = SNEStats()
        ks = resolve_kernel(kernel)
        fired: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        n_passes = program.n_passes(cfg)
        counts = stream.counts_per_step().tolist()
        timed = profiler is not None
        if trace is not None:
            from .trace import StepTrace

        assemble_s = 0.0
        if ks is not None:
            # One gather over the whole stream: the stream is time-sorted,
            # so every pass and step works on slices of these entries.
            table = fanout_table(program)
            packed = table.packed()
            t0 = _pc() if timed else 0.0
            flat = table.flat_ids(stream.ch, stream.x, stream.y)
            entries = ks.assemble(packed.offsets, packed.idx, packed.w, flat)
            event_t = stream.t.astype(np.int64)
            if timed:
                assemble_s = _pc() - t0
        if timed:
            profiler.add("sne.assemble", assemble_s, events=len(stream))

        for pass_idx in range(n_passes):
            pass_lo, pass_hi = program.pass_neuron_range(cfg, pass_idx)
            active = self._program_pass(program, pass_lo, pass_hi)
            update_s = fire_s = trace_s = 0.0

            # RST bracket
            t0 = _pc() if timed else 0.0
            for sl in active:
                sl.process_reset(0)
            pass_cycles = cfg.cycles_per_reset
            if timed:
                profiler.add("sne.reset", _pc() - t0, events=len(active))

            if ks is not None:
                t0 = _pc() if timed else 0.0
                plans = [sl.plan_updates(entries, event_t, 0, n_steps, ks) for sl in active]
                # All slices see every event; each event lasts as long as
                # its slowest slice's sequencer.
                event_cycles = plans[0].event_cycles
                for plan in plans[1:]:
                    event_cycles = np.maximum(event_cycles, plan.event_cycles)
                step_cycles = np.bincount(event_t, weights=event_cycles, minlength=n_steps)
                step_cycles = step_cycles.astype(np.int64).tolist()
                pass_cycles += int(event_cycles.sum())
                stats.xbar_broadcasts += len(stream)
                if trace is not None:
                    step_sops = sum(plan.step_n_in for plan in plans).tolist()
                    step_gated = (
                        cfg.clusters_per_slice * sum(plan.step_cycles for plan in plans)
                    ).tolist()
                if timed:
                    update_s += _pc() - t0
                for step in range(n_steps):
                    if counts[step]:
                        t0 = _pc() if timed else 0.0
                        for sl, plan in zip(active, plans):
                            sl.apply_updates(plan, step, ks)
                        if timed:
                            update_s += _pc() - t0
                    t0 = _pc() if timed else 0.0
                    fire_cycles = cfg.cycles_per_fire
                    n_fired = 0
                    for sl in active:
                        f_ch, f_x, f_y, cyc = sl.process_fire_packed(step, kernels=ks)
                        fire_cycles = max(fire_cycles, cyc)
                        if f_ch.size:
                            fired.append((step, f_ch, f_x, f_y))
                            n_fired += f_ch.size
                    pass_cycles += fire_cycles
                    if timed:
                        fire_s += _pc() - t0
                    if trace is not None:
                        t0 = _pc() if timed else 0.0
                        trace.record(
                            StepTrace(
                                step=pass_idx * n_steps + step,
                                input_events=counts[step],
                                cycles=step_cycles[step] + fire_cycles,
                                sops=step_sops[step],
                                output_events=n_fired,
                                active_cluster_cycles=step_sops[step],
                                gated_cluster_cycles=step_gated[step] - step_sops[step],
                            )
                        )
                        if timed:
                            trace_s += _pc() - t0
            else:  # per-event reference loop
                start = 0
                for step in range(n_steps):
                    step_cycles_before = pass_cycles
                    snapshot = self._activity_snapshot(active) if trace is not None else None
                    n = counts[step]
                    t0 = _pc() if timed else 0.0
                    for k in range(start, start + n):
                        t = int(stream.t[k])
                        ch, x, y = int(stream.ch[k]), int(stream.x[k]), int(stream.y[k])
                        event_cycles = cfg.cycles_per_event
                        for sl in active:
                            event_cycles = max(event_cycles, sl.process_update(t, ch, x, y))
                        pass_cycles += event_cycles
                    stats.xbar_broadcasts += n
                    start += n
                    if timed:
                        update_s += _pc() - t0
                        t0 = _pc()
                    fire_cycles = cfg.cycles_per_fire
                    for sl in active:
                        events, cyc = sl.process_fire(step)
                        fire_cycles = max(fire_cycles, cyc)
                        if events:
                            _, f_ch, f_x, f_y = np.array(events, dtype=np.int64).T
                            fired.append((step, f_ch, f_x, f_y))
                    pass_cycles += fire_cycles
                    if timed:
                        fire_s += _pc() - t0
                    if trace is not None:
                        t0 = _pc() if timed else 0.0
                        after = self._activity_snapshot(active)
                        trace.record(
                            StepTrace(
                                step=pass_idx * n_steps + step,
                                input_events=n,
                                cycles=pass_cycles - step_cycles_before,
                                sops=after[0] - snapshot[0],
                                output_events=after[1] - snapshot[1],
                                active_cluster_cycles=after[2] - snapshot[2],
                                gated_cluster_cycles=after[3] - snapshot[3],
                            )
                        )
                        if timed:
                            trace_s += _pc() - t0

            if timed:
                profiler.add("sne.update", update_s, count=n_steps, events=len(stream))
                profiler.add("sne.fire", fire_s, count=n_steps,
                             events=n_steps * len(active))
                if trace is not None:
                    profiler.add("sne.trace", trace_s, count=n_steps)

            for sl in active:
                self._add_slice_stats(stats, sl)
            stats.update_events += len(stream) * len(active)
            stats.fire_events += n_steps * len(active)
            stats.reset_events += len(active)
            stats.cycles += pass_cycles
            # DMA traffic: the input image is re-read every pass; outputs
            # are written once (they are produced across passes).
            stats.dma_words_in += 1 + len(stream) + n_steps

        stats.passes = n_passes
        out_stream = _packed_stream(fired, g.output_shape(n_steps))
        stats.dma_words_out += len(out_stream)
        return out_stream, stats

    # -- whole-network execution -----------------------------------------------
    def run_network(
        self,
        programs: list[LayerProgram],
        stream: EventStream,
        profiler=None,
        kernel: str = "auto",
    ) -> tuple[EventStream, SNEStats]:
        """Run layers back-to-back in time-multiplexed mode.

        Intermediate feature maps travel through external memory (the
        DMA word counters accumulate accordingly).  ``profiler`` and
        ``kernel`` are forwarded to every :meth:`run_layer` call; the
        profiler additionally receives one ``sne.layer.<name>`` span per
        executed layer.
        """
        if not programs:
            raise ValueError("network must contain at least one program")
        total = SNEStats()
        current = stream
        for program in programs:
            t0 = _pc() if profiler is not None else 0.0
            current, layer_stats = self.run_layer(
                program, current, profiler=profiler, kernel=kernel
            )
            if profiler is not None:
                profiler.add(
                    f"sne.layer.{program.name}", _pc() - t0,
                    events=layer_stats.update_events,
                )
            total.merge(layer_stats)
            total.per_layer.append((program.name, layer_stats))
        return current, total

    def run_network_pipelined(
        self,
        programs: list[LayerProgram],
        stream: EventStream,
        profiler=None,
        kernel: str = "auto",
    ) -> tuple[EventStream, SNEStats]:
        """Run the whole network in layer-parallel mode (§III-D.5).

        Every layer must fit simultaneously; each gets a contiguous group
        of slices and output events hop to the next layer through the
        C-XBAR within the same timestep.  The run's cycle count is the
        busiest slice group (they execute concurrently).  ``profiler``
        receives the same ``sne.assemble`` / ``sne.update`` /
        ``sne.fire`` / ``sne.reset`` stage spans as :meth:`run_layer`.

        ``kernel`` selects the stage implementation exactly as in
        :meth:`run_layer`.  On the kernel paths the fire→next-layer hop
        carries fired events as packed int64 arrays straight into the
        next group's gather, and each group plans every step on its own
        (a layer's inputs are produced within the step); the
        ``"reference"`` choice runs the per-event loop and tuple fire
        scan.  All choices are bit-identical.
        """
        cfg = self.config
        if not programs:
            raise ValueError("network must contain at least one program")
        # Allocate slice groups.
        groups: list[list[Slice]] = []
        next_slice = 0
        for program in programs:
            program.validate_for(cfg)
            n_outputs = program.geometry.n_outputs
            needed = -(-n_outputs // cfg.neurons_per_slice)
            if next_slice + needed > cfg.n_slices:
                raise ValueError(
                    f"network needs more than {cfg.n_slices} slices for "
                    "layer-parallel mode; use run_network (time-multiplexed)"
                )
            group = []
            for k in range(needed):
                sl = self.slices[next_slice + k]
                lo = k * cfg.neurons_per_slice
                hi = min(lo + cfg.neurons_per_slice, n_outputs)
                sl.configure(program, lo, hi)
                self.registers.program_lif(next_slice + k, program.threshold, program.leak)
                self.registers.program_interval(next_slice + k, lo, hi)
                group.append(sl)
            groups.append(group)
            next_slice += needed

        stats = SNEStats()
        stats.passes = 1
        n_steps = stream.n_steps
        n_update_events = 0
        timed = profiler is not None
        t0 = _pc() if timed else 0.0
        for group in groups:
            for sl in group:
                sl.process_reset(0)
        if timed:
            profiler.add("sne.reset", _pc() - t0,
                         events=sum(len(g) for g in groups))

        ks = resolve_kernel(kernel)
        fired: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        tables = [fanout_table(program) for program in programs]
        packs = [table.packed() if ks is not None else None for table in tables]
        counts = stream.counts_per_step()
        start = 0
        assemble_s = update_s = fire_s = 0.0
        for step in range(n_steps):
            n = int(counts[step])
            sel = slice(start, start + n)
            in_ch = stream.ch[sel].astype(np.int64)
            in_x = stream.x[sel].astype(np.int64)
            in_y = stream.y[sel].astype(np.int64)
            start += n
            for table, pack, group in zip(tables, packs, groups):
                m = int(in_ch.size)
                if m:
                    t0 = _pc() if timed else 0.0
                    if ks is not None:
                        # The inputs of a layer are produced within the
                        # step, so each step is its own one-step plan.
                        flat = table.flat_ids(in_ch, in_x, in_y)
                        entries = ks.assemble(pack.offsets, pack.idx, pack.w, flat)
                        if timed:
                            t1 = _pc()
                            assemble_s += t1 - t0
                        event_t = np.full(m, step, dtype=np.int64)
                        for sl in group:
                            plan = sl.plan_updates(entries, event_t, step, 1, ks)
                            sl.apply_updates(plan, 0, ks)
                    else:  # per-event reference loop
                        t1 = t0
                        for k in range(m):
                            ch_k = int(in_ch[k])
                            x_k = int(in_x[k])
                            y_k = int(in_y[k])
                            for sl in group:
                                sl.process_update(step, ch_k, x_k, y_k)
                    stats.xbar_broadcasts += m
                    n_update_events += m
                    if timed:
                        update_s += _pc() - t1
                t0 = _pc() if timed else 0.0
                hop_ch, hop_x, hop_y = [], [], []
                for sl in group:
                    if ks is not None:
                        # Packed fire→next-layer hop: fired events stay
                        # int64 arrays all the way into the next gather.
                        f_ch, f_x, f_y, _ = sl.process_fire_packed(step, kernels=ks)
                    else:
                        events, _ = sl.process_fire(step)
                        f_ch = np.array([e[1] for e in events], dtype=np.int64)
                        f_x = np.array([e[2] for e in events], dtype=np.int64)
                        f_y = np.array([e[3] for e in events], dtype=np.int64)
                    if f_ch.size:
                        hop_ch.append(f_ch)
                        hop_x.append(f_x)
                        hop_y.append(f_y)
                if hop_ch:
                    in_ch = np.concatenate(hop_ch)
                    in_x = np.concatenate(hop_x)
                    in_y = np.concatenate(hop_y)
                else:
                    in_ch = in_x = in_y = np.zeros(0, dtype=np.int64)
                if timed:
                    fire_s += _pc() - t0
            if in_ch.size:  # the final layer's output
                fired.append((step, in_ch, in_x, in_y))
        if timed:
            profiler.add("sne.assemble", assemble_s, count=n_steps,
                         events=n_update_events)
            profiler.add("sne.update", update_s, count=n_steps,
                         events=n_update_events)
            profiler.add("sne.fire", fire_s, count=n_steps,
                         events=n_steps * len(groups))

        # Concurrency: total time is the busiest group; SOPs etc. sum.
        group_cycles = []
        for group in groups:
            group_cycles.append(max(sl.stats.busy_cycles for sl in group))
            for sl in group:
                self._add_slice_stats(stats, sl)
                stats.update_events += sl.stats.update_events
                stats.fire_events += sl.stats.fire_events
                stats.reset_events += sl.stats.reset_events
        stats.cycles = max(group_cycles)
        stats.dma_words_in = 1 + len(stream) + n_steps

        out_stream = _packed_stream(fired, programs[-1].geometry.output_shape(n_steps))
        stats.dma_words_out = len(out_stream)
        return out_stream, stats


def _packed_stream(
    fired: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    shape: tuple[int, int, int, int],
) -> EventStream:
    """Concatenate per-(step, slice) fired ``(ch, x, y)`` arrays once."""
    if not fired:
        return EventStream.empty(shape)
    t = np.concatenate([np.full(f[1].size, f[0], dtype=np.int64) for f in fired])
    ch, x, y = (np.concatenate([f[i] for f in fired]) for i in (1, 2, 3))
    return EventStream(t, ch, x, y, shape)
