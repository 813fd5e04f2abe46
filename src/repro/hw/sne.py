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
from .mapper import FanoutTable, LayerProgram, fanout_table
from .registers import RegisterFile
from .cluster import COUNTER_FIELDS, TLU_SKIPPED, UPDATES
from .slice import Slice, SliceStack
from .xbar import Crossbar

__all__ = ["SNE", "SNEStats", "BatchStats", "EventBatch"]

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
        for name in _SUMMED_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
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


#: The :class:`SNEStats` counters :meth:`SNEStats.merge` adds up.
_SUMMED_FIELDS = tuple(
    f.name for f in fields(SNEStats) if f.name not in ("cycles", "per_layer"))


@dataclass(frozen=True)
class BatchStats:
    """The statistics of a batched run: ``samples[b]`` is sample ``b``'s
    :class:`SNEStats`, equal to what its own run returns.  ``passes``
    and ``update_events`` total the batch, for per-layer ledgers."""

    samples: tuple[SNEStats, ...]

    @property
    def passes(self) -> int:
        return self.samples[0].passes

    @property
    def update_events(self) -> int:
        return sum(s.update_events for s in self.samples)


class EventBatch:
    """Several samples' event streams over one envelope, run as one.

    :meth:`SNE.run_layer` and :meth:`SNE.run_network` take a batch in
    place of an :class:`EventStream` and simulate every sample in the
    same stacked kernel calls.  ``streams`` holds the samples in order;
    ``shape`` and ``n_steps`` are their shared envelope's, and ``len()``
    counts the events of all of them.  Between layers a batch stays in
    its merged form (:meth:`merged`); the per-sample streams are cut
    from it only when read.
    """

    def __init__(self, streams) -> None:
        self._streams = tuple(streams)
        if not self._streams:
            raise ValueError("an event batch needs at least one stream")
        self.shape = self._streams[0].shape
        if any(s.shape != self.shape for s in self._streams):
            raise ValueError("the streams of a batch must share one envelope")
        self.sizes = np.array([len(s) for s in self._streams], dtype=np.int64)
        self._merged = None

    @classmethod
    def _from_merged(cls, merged, sizes: np.ndarray, shape) -> "EventBatch":
        batch = cls.__new__(cls)
        batch.shape = tuple(shape)
        batch.sizes = sizes
        batch._streams = None
        batch._merged = merged
        return batch

    @property
    def n_steps(self) -> int:
        return self.shape[0]

    def __len__(self) -> int:
        return int(self.sizes.sum())

    @property
    def streams(self) -> tuple[EventStream, ...]:
        """The samples' event streams, in order."""
        if self._streams is None:
            t, sample, ch, x, y = self._merged
            order = np.argsort(sample, kind="stable")
            self._streams = tuple(
                EventStream._from_sorted(t[o], ch[o], x[o], y[o], self.shape)
                for o in np.split(order, np.cumsum(self.sizes)[:-1])
            )
        return self._streams

    def merged(self) -> tuple[np.ndarray, ...]:
        """All events as one time-sorted list: int64 ``(t, sample, ch, x,
        y)`` arrays.  Each sample keeps its own ``(t, ch, y, x)`` event
        order — all the per-sample semantics need, since samples never
        share a membrane row."""
        if self._merged is None:
            cols = [np.concatenate([getattr(s, f) for s in self._streams]).astype(np.int64)
                    for f in ("t", "ch", "x", "y")]
            sample = np.repeat(np.arange(len(self._streams), dtype=np.int64), self.sizes)
            if len(self._streams) > 1:
                order = np.argsort(cols[0], kind="stable")
                cols = [c[order] for c in cols]
                sample = sample[order]
            self._merged = (cols[0], sample, *cols[1:])
        return self._merged


class SNE:
    """One SNE instance: a configurable number of slices behind a C-XBAR."""

    def __init__(self, config: SNEConfig | None = None) -> None:
        self.config = config or SNEConfig()
        cfg = self.config
        # Every slice's membranes, TLUs and counters are row blocks of one
        # stacked storage, so a single-sample pass over the first slices
        # runs the kernels on these arrays directly.
        n_rows = cfg.n_slices * cfg.clusters_per_slice
        self._state = np.zeros((n_rows, cfg.neurons_per_cluster), dtype=np.int64)
        self._tlus = np.zeros(n_rows, dtype=np.int64)
        self._counters = np.zeros((n_rows, len(COUNTER_FIELDS)), dtype=np.int64)
        c = cfg.clusters_per_slice
        self.slices = [
            Slice(cfg, i, state=self._state[i * c:(i + 1) * c],
                  tlus=self._tlus[i * c:(i + 1) * c],
                  counters=self._counters[i * c:(i + 1) * c])
            for i in range(cfg.n_slices)
        ]
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

    def _stack(
        self, program: LayerProgram, table: FanoutTable, lo: int, hi: int,
        n_samples: int, first_slice: int = 0,
    ) -> SliceStack:
        """The stacked rows for neurons ``[lo, hi)`` of ``n_samples``
        samples: one sample runs on the slices' own storage from
        ``first_slice`` on (so they show the run afterwards), a batch on
        fresh arrays.  A dense program's stack updates from its weight
        columns."""
        columns = table.dense_columns(lo, hi) if table.dense else None
        if n_samples > 1:
            return SliceStack(self.config, program, lo, hi, n_samples, columns=columns)
        c = self.config.clusters_per_slice
        n_slices = -(-(hi - lo) // self.config.neurons_per_slice)
        rows = slice(first_slice * c, (first_slice + n_slices) * c)
        return SliceStack(self.config, program, lo, hi, 1, state=self._state[rows],
                          tlus=self._tlus[rows], counters=self._counters[rows],
                          columns=columns)

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
        stream: EventStream | EventBatch,
        trace=None,
        profiler=None,
        kernel: str = "auto",
    ):
        """Execute one layer in time-multiplexed mode.

        Replays the input stream once per pass (Listing 1's software
        loop).  Returns the output event stream and the run statistics.
        When an :class:`~repro.hw.trace.ActivityTrace` is passed, one
        entry per timestep is recorded (multi-pass runs use the global
        index ``pass * n_steps + step``).

        ``stream`` may also be an :class:`EventBatch` of several
        samples; the result is then an :class:`EventBatch` of their
        outputs and a :class:`BatchStats` of their statistics, each
        sample's equal to what its own run returns.  On the kernel
        paths the samples' slice states stack into one matrix
        (:class:`~repro.hw.slice.SliceStack`), so each pass costs one
        ``plan`` and each timestep one ``accumulate`` and one
        ``fire_step`` call for the whole batch — a single stream is the
        one-sample case of the same loop.  Tracing needs one sample.

        ``profiler`` (a :class:`repro.runtime.profile.Profiler`)
        receives per-stage spans — ``sne.assemble`` once per call (the
        fanout gather of the whole stream or batch), ``sne.update`` /
        ``sne.fire`` / ``sne.reset`` (+ ``sne.trace`` when tracing) per
        pass — with event counts.

        ``kernel`` selects the batched stage implementation through the
        :mod:`repro.hw.kernels` registry: ``"auto"`` (numba when
        importable, else the numpy shim), ``"numba"``, ``"numpy"``, or
        ``"reference"`` for the retained per-event loop (which runs a
        batch sample by sample).  Every choice produces bit-identical
        outputs and statistics (the parity the kernel matrix in
        ``tests/test_kernels.py`` and the Fig. 5b speedup benchmark pin
        down).
        """
        cfg = self.config
        program.validate_for(cfg)
        g = program.geometry
        batched = isinstance(stream, EventBatch)
        batch = stream if batched else EventBatch([stream])
        if batch.shape != g.input_shape(batch.n_steps):
            raise ValueError(
                f"stream envelope {batch.shape} does not match layer input "
                f"{g.input_shape(batch.n_steps)}"
            )
        if trace is not None and batch.sizes.size > 1:
            raise ValueError("an activity trace records one sample, not a batch")
        ks = resolve_kernel(kernel)
        if ks is None:
            runs = [self._run_reference(program, s, trace, profiler) for s in batch.streams]
            out = EventBatch([out for out, _ in runs])
            stats = [st for _, st in runs]
        else:
            out, stats = self._run_stacked(program, batch, ks, trace, profiler)
        if batched:
            return out, BatchStats(tuple(stats))
        return out.streams[0], stats[0]

    def _run_stacked(self, program, batch, ks, trace, profiler):
        """The kernel-path pass loop over a stacked batch.

        Returns the output :class:`EventBatch` and per-sample :class:`SNEStats`;
        per-sample counters come out of the stacked arrays through
        ``bincount`` over the event and row sample indices.
        """
        cfg = self.config
        g = program.geometry
        sizes = batch.sizes
        n_samples = sizes.size
        n_steps = batch.n_steps
        window = cfg.cycles_per_event
        timed = profiler is not None
        n_events = int(sizes.sum())
        if trace is not None:
            from .trace import StepTrace

        # One gather over the whole batch: the merged event list is
        # time-sorted, so every pass and step works on slices of it.
        table = fanout_table(program)
        t0 = _pc() if timed else 0.0
        event_t, event_sample, ch, x, y = batch.merged()
        entries = _assemble(ks, table, ch, x, y)
        if timed:
            profiler.add("sne.assemble", _pc() - t0, events=n_events)
        if trace is not None:
            step_events = np.bincount(event_t, minlength=n_steps).tolist()

        def per_sample(values) -> np.ndarray:
            return np.bincount(event_sample, weights=values,
                               minlength=n_samples).astype(np.int64)

        zeros = np.zeros(n_samples, dtype=np.int64)
        cycles, sops, gated, stalls, overrun, skipped = (zeros.copy() for _ in range(6))
        fired: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        n_passes = program.n_passes(cfg)
        slice_passes = 0
        for pass_idx in range(n_passes):
            pass_lo, pass_hi = program.pass_neuron_range(cfg, pass_idx)
            n_slices = len(self._program_pass(program, pass_lo, pass_hi))
            slice_passes += n_slices
            update_s = fire_s = trace_s = 0.0

            # RST bracket
            t0 = _pc() if timed else 0.0
            stack = self._stack(program, table, pass_lo, pass_hi, n_samples)
            stack.reset()
            if timed:
                profiler.add("sne.reset", _pc() - t0, events=n_slices * n_samples)

            t0 = _pc() if timed else 0.0
            plan = stack.plan(entries, event_t, event_sample, 0, n_steps, ks)
            # All slices see every event of their sample; each event lasts
            # as long as its slowest slice's sequencer.
            event_cycles = window + plan.over.max(axis=1, initial=0)
            event_over = plan.over.sum(axis=1)
            sample_over = per_sample(event_over)
            cycles += (cfg.cycles_per_reset + n_steps * cfg.cycles_per_fire
                       + per_sample(event_cycles))
            overrun += sample_over
            if trace is not None:
                step_cycles = np.bincount(event_t, weights=event_cycles,
                                          minlength=n_steps).astype(np.int64).tolist()
                step_sops = plan.step_sops
                step_gated = (cfg.clusters_per_slice * (
                    n_slices * window * np.bincount(event_t, minlength=n_steps)
                    + np.bincount(event_t, weights=event_over, minlength=n_steps)
                ).astype(np.int64)).tolist()
            if timed:
                update_s += _pc() - t0
            for step in range(n_steps):
                t0 = _pc() if timed else 0.0
                stack.update(plan, step, ks)
                t1 = _pc() if timed else 0.0
                f_sample, f_ch, f_x, f_y, stall = stack.fire(step, ks)
                if f_ch.size:
                    fired.append((step, f_sample, f_ch, f_x, f_y))
                fire_cycles = cfg.cycles_per_fire
                if stall is not None:
                    stalls += stall.sum(axis=1)
                    cycles += stall.max(axis=1)
                    fire_cycles += int(stall.max())
                if timed:
                    t2 = _pc()
                    update_s += t1 - t0
                    fire_s += t2 - t1
                if trace is not None:
                    trace.record(
                        StepTrace(
                            step=pass_idx * n_steps + step,
                            input_events=step_events[step],
                            cycles=step_cycles[step] + fire_cycles,
                            sops=step_sops[step],
                            output_events=int(f_ch.size),
                            active_cluster_cycles=step_sops[step],
                            gated_cluster_cycles=step_gated[step] - step_sops[step],
                        )
                    )
                    if timed:
                        trace_s += _pc() - t2

            if timed:
                profiler.add("sne.update", update_s, count=n_steps, events=n_events)
                profiler.add("sne.fire", fire_s, count=n_steps,
                             events=n_steps * n_slices * n_samples)
                if trace is not None:
                    profiler.add("sne.trace", trace_s, count=n_steps)

            rows = (n_samples, stack.sample_rows)
            pass_sops = stack.counters[:, UPDATES].reshape(rows).sum(axis=1)
            sops += pass_sops
            gated += (cfg.clusters_per_slice * (n_slices * window * sizes + sample_over)
                      - pass_sops)
            skipped += stack.counters[:, TLU_SKIPPED].reshape(rows).sum(axis=1)

        out = _fired_batch(fired, n_samples, g.output_shape(n_steps))
        stats = []
        for b, n_out in enumerate(out.sizes.tolist()):
            n = int(sizes[b])
            stats.append(SNEStats(
                cycles=int(cycles[b]),
                sops=int(sops[b]),
                update_events=n * slice_passes,
                fire_events=n_steps * slice_passes,
                reset_events=slice_passes,
                output_events=n_out,
                active_cluster_cycles=int(sops[b]),
                gated_cluster_cycles=int(gated[b]),
                fifo_stall_cycles=int(stalls[b]),
                sequencer_overrun_cycles=int(overrun[b]),
                passes=n_passes,
                # DMA traffic: the input image is re-read every pass;
                # outputs are written once (produced across passes).
                dma_words_in=n_passes * (1 + n + n_steps),
                dma_words_out=n_out,
                xbar_broadcasts=n_passes * n,
                tlu_skipped_steps=int(skipped[b]),
            ))
        return out, stats

    def _run_reference(self, program, stream, trace, profiler):
        """The retained per-event loop of one sample (the parity oracle)."""
        cfg = self.config
        g = program.geometry
        n_steps = stream.n_steps
        stats = SNEStats()
        fired: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        n_passes = program.n_passes(cfg)
        counts = stream.counts_per_step().tolist()
        timed = profiler is not None
        if trace is not None:
            from .trace import StepTrace
        if timed:
            profiler.add("sne.assemble", 0.0, events=len(stream))

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
        stream: EventStream | EventBatch,
        profiler=None,
        kernel: str = "auto",
    ):
        """Run layers back-to-back in time-multiplexed mode.

        Intermediate feature maps travel through external memory (the
        DMA word counters accumulate accordingly).  ``profiler`` and
        ``kernel`` are forwarded to every :meth:`run_layer` call; the
        profiler additionally receives one ``sne.layer.<name>`` span per
        executed layer.  An :class:`EventBatch` runs every layer as one
        stacked batch and returns an :class:`EventBatch` and a
        :class:`BatchStats`, as :meth:`run_layer` does.
        """
        if not programs:
            raise ValueError("network must contain at least one program")
        batched = isinstance(stream, EventBatch)
        totals = [SNEStats() for _ in range(stream.sizes.size if batched else 1)]
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
            for total, stats in zip(totals, layer_stats.samples if batched else (layer_stats,)):
                total.merge(stats)
                total.per_layer.append((program.name, stats))
        if batched:
            return current, BatchStats(tuple(totals))
        return current, totals[0]

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
        ks = resolve_kernel(kernel)
        tables = [fanout_table(program) for program in programs]
        # Allocate slice groups.
        groups: list[list[Slice]] = []
        stacks: list[SliceStack] = []
        next_slice = 0
        for program, table in zip(programs, tables):
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
            if ks is not None:
                stacks.append(self._stack(program, table, 0, n_outputs, 1,
                                          first_slice=next_slice))
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

        fired: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        # Kernel-path bookkeeping, per group and slice: UPDATE and FIRE
        # busy cycles, input events; plus the run's stall/overrun/outputs.
        update_busy = [np.zeros(len(g), dtype=np.int64) for g in groups]
        fire_busy = [np.zeros(len(g), dtype=np.int64) for g in groups]
        group_events = [0] * len(groups)
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
            for gi, (table, group) in enumerate(zip(tables, groups)):
                m = int(in_ch.size)
                if m:
                    t0 = _pc() if timed else 0.0
                    if ks is not None:
                        # The inputs of a layer are produced within the
                        # step, so each step is its own one-step plan.
                        entries = _assemble(ks, table, in_ch, in_x, in_y)
                        if timed:
                            t1 = _pc()
                            assemble_s += t1 - t0
                        stack = stacks[gi]
                        plan = stack.plan(entries, np.full(m, step, dtype=np.int64),
                                          np.zeros(m, dtype=np.int64), step, 1, ks)
                        stack.update(plan, 0, ks)
                        update_busy[gi] += cfg.cycles_per_event * m + plan.over.sum(axis=0)
                        stats.sequencer_overrun_cycles += int(plan.over.sum())
                        group_events[gi] += m
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
                if ks is not None:
                    # Packed fire→next-layer hop: fired events stay int64
                    # arrays all the way into the next gather.
                    _, in_ch, in_x, in_y, stall = stacks[gi].fire(step, ks)
                    fire_busy[gi] += cfg.cycles_per_fire
                    if stall is not None:
                        fire_busy[gi] += stall[0]
                        stats.fifo_stall_cycles += int(stall.sum())
                    stats.output_events += int(in_ch.size)
                else:
                    hop = [e for sl in group for e in sl.process_fire(step)[0]]
                    in_ch = np.array([e[1] for e in hop], dtype=np.int64)
                    in_x = np.array([e[2] for e in hop], dtype=np.int64)
                    in_y = np.array([e[3] for e in hop], dtype=np.int64)
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
        if ks is None:
            group_cycles = []
            for group in groups:
                group_cycles.append(max(sl.stats.busy_cycles for sl in group))
                for sl in group:
                    self._add_slice_stats(stats, sl)
                    stats.update_events += sl.stats.update_events
                    stats.fire_events += sl.stats.fire_events
                    stats.reset_events += sl.stats.reset_events
            stats.cycles = max(group_cycles)
        else:
            for group, stack, upd, fire, events in zip(
                groups, stacks, update_busy, fire_busy, group_events
            ):
                sops = int(stack.counters[:, UPDATES].sum())
                stats.sops += sops
                stats.active_cluster_cycles += sops
                stats.gated_cluster_cycles += cfg.clusters_per_slice * int(upd.sum()) - sops
                stats.tlu_skipped_steps += int(stack.counters[:, TLU_SKIPPED].sum())
                stats.update_events += len(group) * events
                stats.fire_events += len(group) * n_steps
                stats.reset_events += len(group)
                stats.cycles = max(stats.cycles,
                                   cfg.cycles_per_reset + int((upd + fire).max()))
        stats.dma_words_in = 1 + len(stream) + n_steps

        out_stream = _packed_stream(fired, programs[-1].geometry.output_shape(n_steps))
        stats.dma_words_out = len(out_stream)
        return out_stream, stats


def _assemble(ks, table: FanoutTable, ch, x, y):
    """The ``sne.assemble`` stage: a batch of events' fanout entries,
    gathered from the packed table, or a dense layer's input
    coordinates — a dense event is one weight row, never expanded."""
    flat = table.flat_ids(ch, x, y)
    if table.dense:
        return flat
    packed = table.packed()
    return ks.assemble(packed.offsets, packed.idx, packed.w, flat)


def _fired_batch(fired, n_samples: int, shape) -> EventBatch:
    """The batch of a run's fired ``(step, sample, ch, x, y)`` arrays,
    merged in ``(t, ch, y, x)`` order."""
    if not fired:
        empty = np.zeros(0, dtype=np.int64)
        return EventBatch._from_merged((empty,) * 5, np.zeros(n_samples, dtype=np.int64),
                                       shape)
    t = np.concatenate([np.full(f[1].size, f[0], dtype=np.int64) for f in fired])
    sample, ch, x, y = (np.concatenate([f[i] for f in fired]) for i in (1, 2, 3, 4))
    _, n_ch, height, width = shape
    order = np.argsort(((t * n_ch + ch) * height + y) * width + x, kind="stable")
    merged = tuple(a[order] for a in (t, sample, ch, x, y))
    return EventBatch._from_merged(merged, np.bincount(sample, minlength=n_samples), shape)


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
