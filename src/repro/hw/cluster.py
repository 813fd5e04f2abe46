"""The SNE cluster: 64 time-multiplexed LIF neurons (paper §III-D.4).

A cluster owns one combinational LIF datapath, two latch-based state
memories in double-buffering (modelled as one vector — the buffering is
a throughput device, not a semantic one), a time-of-last-update (TLU)
register that lets the cluster skip leak bookkeeping across idle
timesteps, and an output FIFO towards the collector.

The model is bit-accurate: weights and membrane are integers, the
accumulate saturates per event, and the leak catch-up telescopes exactly
as ``dt`` repetitions of the per-step linear decay.
"""

from __future__ import annotations

import numpy as np

from .fifo import Fifo
from .lif_datapath import fire_mask, leak_catchup, sat_add, state_bounds

__all__ = ["COUNTER_FIELDS", "Cluster", "ClusterStats"]


#: Column order of the per-cluster counters (:class:`ClusterStats`); a
#: slice keeps all its clusters' counters as one ``(clusters, 5)`` matrix.
COUNTER_FIELDS = ("updates", "fires", "events_seen", "events_gated", "tlu_skipped_steps")
UPDATES, FIRES, EVENTS_SEEN, EVENTS_GATED, TLU_SKIPPED = range(len(COUNTER_FIELDS))


def _counter(col: int, doc: str) -> property:
    def get(self) -> int:
        return int(self.row[col])

    def set(self, value: int) -> None:
        self.row[col] = value

    return property(get, set, doc=doc)


class ClusterStats:
    """Per-cluster activity counters feeding the power model.

    The counters live in ``row``, an int64 vector of
    :data:`COUNTER_FIELDS` — a row view into the owning slice's counter
    matrix, so the batched kernels update every cluster at once while
    the per-event reference reads and writes the same storage through
    these attributes.
    """

    def __init__(self, row: np.ndarray | None = None) -> None:
        self.row = np.zeros(len(COUNTER_FIELDS), dtype=np.int64) if row is None else row

    updates = _counter(UPDATES, "neuron state updates performed (= SOPs)")
    fires = _counter(FIRES, "output events emitted")
    events_seen = _counter(EVENTS_SEEN, "events for which the address filter matched")
    events_gated = _counter(EVENTS_GATED, "events for which this cluster was clock-gated")
    tlu_skipped_steps = _counter(TLU_SKIPPED, "idle timesteps the TLU collapsed")


class Cluster:
    """One cluster: TDM neuron states + TLU + output FIFO."""

    def __init__(
        self,
        n_neurons: int = 64,
        state_bits: int = 8,
        fifo_depth: int = 8,
        name: str = "cluster",
        state: np.ndarray | None = None,
        tlu: np.ndarray | None = None,
        counters: np.ndarray | None = None,
    ) -> None:
        if n_neurons < 1:
            raise ValueError("n_neurons must be positive")
        self.n_neurons = n_neurons
        self.state_bits = state_bits
        if state is None:
            state = np.zeros(n_neurons, dtype=np.int64)
        else:
            # A view into the owning slice's contiguous (clusters,
            # neurons) matrix: the compiled kernels update the matrix,
            # the per-event reference updates the views — one storage,
            # no copies, bit-identical by construction.  The TLU
            # register (a length-1 view) and the counter row work the
            # same way.
            if state.shape != (n_neurons,) or state.dtype != np.int64:
                raise ValueError("state buffer must be int64 of length n_neurons")
            state[...] = 0
        self.state = state
        self._tlu = np.zeros(1, dtype=np.int64) if tlu is None else tlu
        self._tlu[0] = 0
        self.out_fifo = Fifo(fifo_depth, name=f"{name}.out")
        self.stats = ClusterStats(counters)
        self.name = name

    @property
    def tlu(self) -> int:
        """Time-of-last-update register."""
        return int(self._tlu[0])

    @tlu.setter
    def tlu(self, t: int) -> None:
        self._tlu[0] = t

    # -- state bookkeeping -------------------------------------------------
    def reset(self, t: int = 0) -> None:
        """RST_OP: clear every membrane and realign the TLU."""
        self.state[...] = 0
        self.tlu = t

    def catch_up(self, t: int, leak: int) -> None:
        """Apply the leak for the timesteps elapsed since the last update.

        The TLU register makes this a single arithmetic step no matter
        how many idle timesteps passed — the accounting records how many
        per-step walks a TLU-less design would have spent.
        """
        if t < self.tlu:
            raise ValueError(
                f"event time {t} precedes cluster TLU {self.tlu}; "
                "streams must be time-sorted"
            )
        dt = t - self.tlu
        if dt == 0:
            return
        if dt > 1:
            self.stats.tlu_skipped_steps += dt - 1
        if leak > 0:
            # In place: the array may be a view into the owning slice's
            # contiguous state matrix, which must observe the decay.
            self.state[...] = leak_catchup(self.state, leak, dt)
        elif leak < 0:
            raise ValueError("leak must be non-negative")
        self.tlu = t

    # -- event operations ----------------------------------------------------
    def apply_update(self, t: int, neuron_idx: np.ndarray, weights: np.ndarray, leak: int) -> int:
        """UPDATE_OP: accumulate ``weights`` into the addressed TDM neurons.

        Returns the number of state updates performed (SOPs).  Saturation
        is per event, exactly like the serial hardware accumulate.
        """
        neuron_idx = np.asarray(neuron_idx, dtype=np.int64)
        if neuron_idx.size == 0:
            return 0
        if neuron_idx.min() < 0 or neuron_idx.max() >= self.n_neurons:
            raise ValueError("neuron index outside the cluster's TDM range")
        if np.unique(neuron_idx).size != neuron_idx.size:
            raise ValueError("one event cannot address a TDM neuron twice")
        self.catch_up(t, leak)
        self.state[neuron_idx] = sat_add(
            self.state[neuron_idx], weights, self.state_bits
        )
        self.stats.updates += int(neuron_idx.size)
        self.stats.events_seen += 1
        return int(neuron_idx.size)

    def fire(self, t: int, threshold: int, leak: int) -> np.ndarray:
        """FIRE_OP: scan the TDM neurons; reset and report those above V_th.

        The scan compares against the *effective* membrane — the stored
        value decayed by the timesteps elapsed since the TLU — without
        writing the decay back.  Materialising the leak lazily (only on
        UPDATE events) is exactly the optimisation the per-cluster TLU
        register enables; the linear decay telescopes, so the observable
        behaviour is identical to a per-step walk (see the ABL1 bench).

        Returns the local indices of the fired neurons, which the
        caller translates to absolute output coordinates through the
        cluster base address and pushes into the output FIFO.  This is
        the single-cluster reference of the scan;
        :meth:`~repro.hw.slice.Slice.process_fire` runs the batched
        cross-cluster form on the same ``leak_catchup``/``fire_mask``
        arithmetic.
        """
        if t < self.tlu:
            raise ValueError(
                f"fire time {t} precedes cluster TLU {self.tlu}; "
                "streams must be time-sorted"
            )
        effective = leak_catchup(self.state, leak, t - self.tlu)
        mask = fire_mask(effective, threshold)
        fired = np.flatnonzero(mask)
        self.state[fired] = 0
        self.stats.fires += int(fired.size)
        return fired

    def note_gated(self) -> None:
        """Record that an event bypassed this cluster (clock gating)."""
        self.stats.events_gated += 1

    # -- invariants -----------------------------------------------------------
    def check_state_bounds(self) -> None:
        """Assert the membrane register never escaped its bit-width."""
        lo, hi = state_bounds(self.state_bits)
        if self.state.min() < lo or self.state.max() > hi:
            raise AssertionError(f"cluster {self.name} state out of bounds")
