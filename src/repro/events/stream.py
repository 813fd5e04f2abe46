"""Event streams: ordered collections of UPDATE events plus conversions.

An :class:`EventStream` is the software-side view of the sparse activity
of one tensor: a time-sorted table of ``(t, ch, x, y)`` update events for
a feature map of shape ``(n_steps, channels, height, width)``.  It is the
common currency between the DVS simulator, the SNN training framework
(dense tensors) and the SNE hardware model (explicit event words).

Control operations (``RST_OP`` / ``FIRE_OP``) are *not* stored in the
stream; they are interleaved when a stream is lowered to a hardware
memory image (:mod:`repro.events.memory_format`), mirroring how the
deployment flow brackets each inference and each timestep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .event import DEFAULT_FORMAT, Event, EventFormat, EventOp

__all__ = ["EventStream"]


_FIELDS = ("t", "ch", "x", "y")


@dataclass(frozen=True)
class _Shape:
    n_steps: int
    channels: int
    height: int
    width: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_steps, self.channels, self.height, self.width)


class EventStream:
    """A time-sorted sparse event tensor.

    Parameters
    ----------
    t, ch, x, y:
        Parallel integer arrays, one entry per UPDATE event.
    shape:
        The dense envelope ``(n_steps, channels, height, width)``.  All
        events must lie inside it.

    The constructor sorts events by ``(t, ch, y, x)`` and keeps them in
    ``int32`` arrays.  Instances are immutable by convention: mutating
    operations return new streams.
    """

    def __init__(
        self,
        t: np.ndarray,
        ch: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        shape: tuple[int, int, int, int],
    ) -> None:
        t = np.asarray(t, dtype=np.int32)
        ch = np.asarray(ch, dtype=np.int32)
        x = np.asarray(x, dtype=np.int32)
        y = np.asarray(y, dtype=np.int32)
        if not (t.shape == ch.shape == x.shape == y.shape) or t.ndim != 1:
            raise ValueError("t/ch/x/y must be 1-D arrays of equal length")
        if len(shape) != 4 or any(int(s) <= 0 for s in shape):
            raise ValueError(f"shape must be 4 positive ints, got {shape!r}")
        self._shape = _Shape(*(int(s) for s in shape))
        if t.size:
            self._check_bounds(t, ch, x, y)
            order = np.lexsort((x, y, ch, t))
            t, ch, x, y = t[order], ch[order], x[order], y[order]
        self.t = t
        self.ch = ch
        self.x = x
        self.y = y

    def _check_bounds(
        self, t: np.ndarray, ch: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> None:
        s = self._shape
        for arr, hi, name in (
            (t, s.n_steps, "t"),
            (ch, s.channels, "ch"),
            (x, s.width, "x"),
            (y, s.height, "y"),
        ):
            if arr.min() < 0 or arr.max() >= hi:
                raise ValueError(
                    f"event field {name} out of bounds for shape {s.as_tuple()}"
                )

    # -- constructors ----------------------------------------------------
    @classmethod
    def _from_sorted(cls, t, ch, x, y, shape) -> "EventStream":
        """Adopt arrays a producer guarantees are already in ``(t, ch, y,
        x)`` order and inside ``shape``: no bounds check, no sort."""
        stream = cls.__new__(cls)
        stream._shape = _Shape(*(int(s) for s in shape))
        stream.t, stream.ch, stream.x, stream.y = (
            np.asarray(a, dtype=np.int32) for a in (t, ch, x, y))
        return stream

    @classmethod
    def empty(cls, shape: tuple[int, int, int, int]) -> "EventStream":
        """An event stream with no events inside the given envelope."""
        z = np.zeros(0, dtype=np.int32)
        return cls(z, z, z, z, shape)

    @classmethod
    def from_events(
        cls, events: list[Event], shape: tuple[int, int, int, int]
    ) -> "EventStream":
        """Build a stream from decoded :class:`Event` objects.

        Control events (RST/FIRE) are skipped: they carry no payload.
        """
        updates = [e for e in events if e.op == EventOp.UPDATE_OP]
        t = np.array([e.t for e in updates], dtype=np.int32)
        ch = np.array([e.ch for e in updates], dtype=np.int32)
        x = np.array([e.x for e in updates], dtype=np.int32)
        y = np.array([e.y for e in updates], dtype=np.int32)
        return cls(t, ch, x, y, shape)

    @classmethod
    def from_dense(cls, tensor: np.ndarray) -> "EventStream":
        """Convert a dense binary tensor ``[T, C, H, W]`` into a stream.

        Any non-zero entry becomes one event (event streams are unary:
        multiplicity is not represented, exactly like a spike raster).
        """
        tensor = np.asarray(tensor)
        if tensor.ndim != 4:
            raise ValueError(f"expected [T, C, H, W] tensor, got {tensor.shape}")
        t, ch, y, x = np.nonzero(tensor)
        return cls(t, ch, x, y, tensor.shape)

    # -- basic views -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int, int, int]:
        """Dense envelope ``(n_steps, channels, height, width)``."""
        return self._shape.as_tuple()

    @property
    def n_steps(self) -> int:
        return self._shape.n_steps

    def __len__(self) -> int:
        return int(self.t.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in _FIELDS
        )

    def __repr__(self) -> str:
        return f"EventStream(n_events={len(self)}, shape={self.shape})"

    def to_dense(self) -> np.ndarray:
        """Render the stream to a dense ``uint8`` binary tensor."""
        dense = np.zeros(self.shape, dtype=np.uint8)
        dense[self.t, self.ch, self.y, self.x] = 1
        return dense

    def to_events(self, fmt: EventFormat = DEFAULT_FORMAT) -> list[Event]:
        """Materialise the stream as UPDATE :class:`Event` objects."""
        return [
            Event.update(int(t), int(c), int(x), int(y), fmt=fmt)
            for t, c, x, y in zip(self.t, self.ch, self.x, self.y)
        ]

    # -- statistics --------------------------------------------------------
    @property
    def n_sites(self) -> int:
        """Number of (timestep, channel, pixel) slots in the envelope."""
        s = self._shape
        return s.n_steps * s.channels * s.height * s.width

    def activity(self) -> float:
        """Fraction of envelope sites carrying an event (paper's "activity")."""
        return len(self) / self.n_sites

    def counts_per_step(self) -> np.ndarray:
        """Number of events in each timestep, length ``n_steps``."""
        return np.bincount(self.t, minlength=self.n_steps).astype(np.int64)

    def counts_per_channel(self) -> np.ndarray:
        """Number of events in each channel, length ``channels``."""
        return np.bincount(self.ch, minlength=self._shape.channels).astype(np.int64)

    # -- transformations -----------------------------------------------------
    def events_at(self, step: int) -> "EventStream":
        """Sub-stream containing only the events of one timestep."""
        mask = self.t == step
        return EventStream(
            self.t[mask], self.ch[mask], self.x[mask], self.y[mask], self.shape
        )

    def iter_steps(self):
        """Yield ``(step, t, ch, x, y)`` field arrays per non-empty timestep."""
        if not len(self):
            return
        boundaries = np.flatnonzero(np.diff(self.t)) + 1
        for chunk in np.split(np.arange(len(self)), boundaries):
            step = int(self.t[chunk[0]])
            yield step, self.t[chunk], self.ch[chunk], self.x[chunk], self.y[chunk]

    def merge(self, other: "EventStream") -> "EventStream":
        """Union of two streams over the same envelope (duplicates collapse)."""
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        t = np.concatenate([self.t, other.t])
        ch = np.concatenate([self.ch, other.ch])
        x = np.concatenate([self.x, other.x])
        y = np.concatenate([self.y, other.y])
        # Collapse duplicates through the dense key (events are unary).
        s = self._shape
        key = ((t * s.channels + ch) * s.height + y) * s.width + x
        _, unique_idx = np.unique(key, return_index=True)
        return EventStream(t[unique_idx], ch[unique_idx], x[unique_idx], y[unique_idx], self.shape)

    def shift_time(self, offset: int) -> "EventStream":
        """Shift every event in time; the envelope grows/shrinks to fit."""
        new_steps = self._shape.n_steps + offset
        if len(self) and (self.t.min() + offset < 0):
            raise ValueError("time shift would move events below t=0")
        if new_steps <= 0:
            raise ValueError("time shift would empty the envelope")
        s = self._shape
        return EventStream(
            self.t + offset, self.ch, self.x, self.y,
            (new_steps, s.channels, s.height, s.width),
        )

    def crop_time(self, n_steps: int) -> "EventStream":
        """Keep only events with ``t < n_steps`` and shrink the envelope."""
        if n_steps <= 0:
            raise ValueError("n_steps must be positive")
        mask = self.t < n_steps
        s = self._shape
        return EventStream(
            self.t[mask], self.ch[mask], self.x[mask], self.y[mask],
            (n_steps, s.channels, s.height, s.width),
        )

    def select_channels(self, channels: list[int]) -> "EventStream":
        """Keep the given channels, re-indexed to ``0..len(channels)-1``."""
        channels = list(channels)
        mask = np.isin(self.ch, channels)
        remap = {c: i for i, c in enumerate(channels)}
        new_ch = np.array([remap[int(c)] for c in self.ch[mask]], dtype=np.int32)
        s = self._shape
        return EventStream(
            self.t[mask], new_ch, self.x[mask], self.y[mask],
            (s.n_steps, len(channels), s.height, s.width),
        )

    def pad_spatial(self, height: int, width: int) -> "EventStream":
        """Centre the events inside a larger spatial plane (zero padding)."""
        s = self._shape
        if height < s.height or width < s.width:
            raise ValueError("pad_spatial cannot shrink the plane")
        dy = (height - s.height) // 2
        dx = (width - s.width) // 2
        return EventStream(
            self.t, self.ch, self.x + dx, self.y + dy,
            (s.n_steps, s.channels, height, width),
        )

    def downsample_spatial(self, factor: int) -> "EventStream":
        """Pool events onto a coarser grid (integer division of coordinates)."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        s = self._shape
        return EventStream(
            self.t, self.ch, self.x // factor, self.y // factor,
            (s.n_steps, s.channels, -(-s.height // factor), -(-s.width // factor)),
        ).merge(EventStream.empty(
            (s.n_steps, s.channels, -(-s.height // factor), -(-s.width // factor))
        ))
