"""Synthetic stand-ins for the paper's event datasets.

The paper trains on NMNIST (saccade-converted MNIST, 34x34, 2 polarity
channels) and IBM DVS-Gesture (11 hand/arm gestures recorded by a DVS at
128x128).  Neither dataset can be shipped or downloaded here, so this
module generates *synthetic equivalents* with the statistical properties
the accelerator and the networks exploit (see DESIGN.md, substitution 2):

* :class:`SyntheticNMNIST` — ten digit glyphs moved along the NMNIST
  three-saccade triangular path in front of the simulated DVS sensor.
* :class:`SyntheticDVSGesture` — eleven parametric arm/hand trajectories
  (waves, circles, claps, rolls, ...) rendered as moving sprites and
  converted to events, mirroring the DVS-Gesture class list.

Both datasets expose the paper's train/validation/test splits and report
per-sample activity so the energy experiments can sweep the 1.2-4.9 %
range observed on DVS-Gesture.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dvs import DVSConfig, DVSSimulator, render_video
from .stream import EventStream

__all__ = [
    "EventSample",
    "EventDataset",
    "ShardedDataset",
    "SyntheticNMNIST",
    "SyntheticDVSGesture",
    "DIGIT_GLYPHS",
    "GESTURE_NAMES",
]

# 7x5 bitmap font for the ten digit classes (rows top-to-bottom).
_GLYPH_ROWS = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}

DIGIT_GLYPHS: dict[int, np.ndarray] = {
    digit: np.array([[float(c) for c in row] for row in rows])
    for digit, rows in _GLYPH_ROWS.items()
}

GESTURE_NAMES = (
    "hand_clap",
    "right_hand_wave",
    "left_hand_wave",
    "right_arm_clockwise",
    "right_arm_counter_clockwise",
    "left_arm_clockwise",
    "left_arm_counter_clockwise",
    "arm_roll",
    "air_drums",
    "air_guitar",
    "other",
)


@dataclass(frozen=True)
class EventSample:
    """One labelled event recording."""

    stream: EventStream
    label: int

    @property
    def activity(self) -> float:
        return self.stream.activity()


@dataclass
class EventDataset:
    """A labelled collection of event recordings with paper-style splits."""

    samples: list[EventSample]
    n_classes: int
    name: str = "dataset"

    def __len__(self) -> int:
        return len(self.samples)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def mean_activity(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean([s.activity for s in self.samples]))

    def activity_range(self) -> tuple[float, float]:
        """(min, max) per-sample activity — the paper's 1.2 %/4.9 % analysis."""
        acts = [s.activity for s in self.samples]
        return (float(min(acts)), float(max(acts)))

    def split(
        self, fractions: tuple[float, float, float], seed: int = 0
    ) -> tuple["EventDataset", "EventDataset", "EventDataset"]:
        """Shuffle and split into (train, validation, test) datasets.

        The paper uses (0.75, 0.10, 0.15) for NMNIST and (0.65, 0.10,
        0.25) for DVS-Gesture.  Fractions must sum to 1 (tolerance 1e-6).
        """
        if abs(sum(fractions) - 1.0) > 1e-6:
            raise ValueError(f"fractions must sum to 1, got {fractions}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.samples))
        n_train = int(round(fractions[0] * len(order)))
        n_val = int(round(fractions[1] * len(order)))
        picks = (
            order[:n_train],
            order[n_train : n_train + n_val],
            order[n_train + n_val :],
        )
        return tuple(
            EventDataset(
                [self.samples[i] for i in idx], self.n_classes, f"{self.name}-{part}"
            )
            for idx, part in zip(picks, ("train", "val", "test"))
        )

    def to_dense_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack all samples as ``[N, T, C, H, W] uint8`` plus labels."""
        if not self.samples:
            raise ValueError("dataset is empty")
        dense = np.stack([s.stream.to_dense() for s in self.samples])
        return dense, self.labels()


def _sample_digest(sample: EventSample) -> str:
    """Stable content digest of one sample (events + shape + label).

    This is the sharding key: it depends only on the recorded events,
    so the same sample hashes to the same shard on every machine, in
    every process, regardless of its position in the dataset.
    """
    s = sample.stream
    h = hashlib.sha256()
    h.update(str(tuple(s.shape)).encode())
    h.update(str(int(sample.label)).encode())
    events = (
        np.stack([s.t, s.ch, s.x, s.y])
        if len(s)
        else np.zeros((4, 0), dtype=np.int32)
    )
    h.update(str(events.dtype).encode())
    h.update(np.ascontiguousarray(events).tobytes())
    return h.hexdigest()


class ShardedDataset:
    """A deterministic, content-hashed partition of an :class:`EventDataset`.

    Large synthetic datasets are split into ``n_shards`` shards, each a
    self-contained :class:`EventDataset` whose membership is decided by
    hashing each sample's event content — never by list position — so
    every machine in a fleet derives the identical partition
    independently.  Because ``sample_eval`` job hashes are themselves
    functions of stream content (not dataset name), the job subtrees of
    all shards *compose* in one shared result store: evaluating shard 0
    on one machine and shard 1 on another fills exactly the cache
    entries a later whole-dataset run replays.

    Shards preserve the parent's sample order within each shard, carry
    the parent's class count, and are named
    ``<parent>-shard<i>of<n>``.
    """

    def __init__(self, dataset: EventDataset, n_shards: int) -> None:
        """Partition ``dataset`` into ``n_shards`` hashed shards."""
        if n_shards < 1:
            raise ValueError("n_shards must be positive")
        self.dataset = dataset
        self.n_shards = n_shards
        self._assignment = [
            int(_sample_digest(s)[:8], 16) % n_shards for s in dataset.samples
        ]

    def __len__(self) -> int:
        return self.n_shards

    def __iter__(self):
        return iter(self.shards())

    def shard_of(self, sample: EventSample) -> int:
        """The shard index this sample's content hashes to."""
        return int(_sample_digest(sample)[:8], 16) % self.n_shards

    def shard(self, index: int) -> EventDataset:
        """Shard ``index`` as a standalone :class:`EventDataset`."""
        if not 0 <= index < self.n_shards:
            raise IndexError(f"shard index {index} out of range 0..{self.n_shards - 1}")
        samples = [
            s for s, a in zip(self.dataset.samples, self._assignment) if a == index
        ]
        return EventDataset(
            samples,
            n_classes=self.dataset.n_classes,
            name=f"{self.dataset.name}-shard{index}of{self.n_shards}",
        )

    def shards(self) -> list[EventDataset]:
        """All shards, in index order (some may be empty)."""
        return [self.shard(i) for i in range(self.n_shards)]

    def counts(self) -> list[int]:
        """Per-shard sample counts (sums to ``len(dataset)``)."""
        return [self._assignment.count(i) for i in range(self.n_shards)]


def _saccade_path(n_steps: int, amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """NMNIST-style triangular three-saccade camera path, [T, 2] offsets."""
    corners = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
    corners = corners * amplitude + rng.normal(0, 0.3, corners.shape)
    per_leg = n_steps // 3
    path = []
    for leg in range(3):
        frac = np.linspace(0.0, 1.0, per_leg, endpoint=False)[:, None]
        path.append(corners[leg] + frac * (corners[leg + 1] - corners[leg]))
    path = np.concatenate(path)
    if len(path) < n_steps:
        path = np.concatenate([path, np.repeat(path[-1:], n_steps - len(path), 0)])
    return path[:n_steps]


class SyntheticNMNIST:
    """Saccading digit glyphs seen by the simulated DVS sensor.

    Geometry defaults to the real NMNIST (34x34, 2 channels).  ``scale``
    controls the glyph magnification; ``n_steps`` the recording length in
    sensor frames (the paper bins recordings into timesteps anyway).
    """

    def __init__(
        self,
        size: int = 34,
        n_steps: int = 32,
        scale: int = 3,
        dvs: DVSConfig | None = None,
    ) -> None:
        if size < 12:
            raise ValueError("size must be at least 12 pixels")
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        self.size = size
        self.n_steps = n_steps
        self.scale = scale
        self.dvs = dvs or DVSConfig(contrast_threshold=0.3)
        self.n_classes = 10

    def make_sample(self, digit: int, seed: int) -> EventSample:
        """Generate one recording of ``digit`` (deterministic in ``seed``)."""
        if digit not in DIGIT_GLYPHS:
            raise ValueError(f"digit must be 0-9, got {digit}")
        rng = np.random.default_rng(seed)
        glyph = np.kron(DIGIT_GLYPHS[digit], np.ones((self.scale, self.scale)))
        # Thickness jitter: erode or keep, emulating stroke width variety.
        if rng.random() < 0.3:
            glyph = glyph * (0.7 + 0.3 * rng.random())
        margin_y = self.size - glyph.shape[0]
        margin_x = self.size - glyph.shape[1]
        if margin_y < 2 or margin_x < 2:
            raise ValueError("glyph does not fit the sensor plane; lower scale")
        base = np.array(
            [rng.integers(0, margin_y), rng.integers(0, margin_x)], dtype=float
        )
        amplitude = 2.0 + 2.0 * rng.random()
        positions = np.round(base + _saccade_path(self.n_steps, amplitude, rng)).astype(int)
        video = render_video(self.n_steps, self.size, self.size, glyph, positions)
        dvs_cfg = DVSConfig(
            contrast_threshold=self.dvs.contrast_threshold,
            refractory_steps=self.dvs.refractory_steps,
            background_rate=self.dvs.background_rate,
            max_events_per_step=self.dvs.max_events_per_step,
            seed=seed,
        )
        stream = DVSSimulator(dvs_cfg).simulate(video)
        return EventSample(stream=stream, label=digit)

    def generate(self, n_per_class: int, seed: int = 0) -> EventDataset:
        """Generate a balanced dataset of ``10 * n_per_class`` recordings."""
        samples = [
            self.make_sample(digit, seed * 1_000_003 + digit * 1009 + i)
            for digit in range(10)
            for i in range(n_per_class)
        ]
        return EventDataset(samples, n_classes=10, name="synthetic-nmnist")


def _gesture_positions(
    label: int, n_steps: int, size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Per-sprite position tracks [T, 2] for one gesture class.

    Gestures are built from one or two moving blobs whose trajectories
    mirror the semantics of the DVS-Gesture classes: circular arm motion
    (CW vs CCW, left vs right of the body), vertical waving, a two-hand
    clap, a rolling figure-eight, drum strikes and a strumming motion.
    """
    t = np.arange(n_steps)
    centre = size / 2.0
    span = size * 0.30
    freq = (1.5 + rng.random()) * 2 * np.pi / n_steps
    phase = rng.random() * 2 * np.pi
    jitter = rng.normal(0, size * 0.01, (n_steps, 2))

    def circle(cx: float, cy: float, direction: float) -> np.ndarray:
        ang = direction * freq * t + phase
        return np.stack([cy + span * np.sin(ang), cx + span * np.cos(ang)], axis=1)

    def wave(cx: float) -> np.ndarray:
        return np.stack(
            [centre + span * np.sin(freq * 2 * t + phase), np.full(n_steps, cx)], axis=1
        )

    left_x, right_x = centre - size * 0.22, centre + size * 0.22
    if label == 0:  # hand clap: two blobs meeting horizontally
        gap = span * np.abs(np.cos(freq * 2 * t + phase))
        a = np.stack([np.full(n_steps, centre), centre - gap], axis=1)
        b = np.stack([np.full(n_steps, centre), centre + gap], axis=1)
        return [a + jitter, b - jitter]
    if label == 1:
        return [wave(right_x) + jitter]
    if label == 2:
        return [wave(left_x) + jitter]
    if label == 3:
        return [circle(right_x, centre, +1.0) + jitter]
    if label == 4:
        return [circle(right_x, centre, -1.0) + jitter]
    if label == 5:
        return [circle(left_x, centre, +1.0) + jitter]
    if label == 6:
        return [circle(left_x, centre, -1.0) + jitter]
    if label == 7:  # arm roll: figure-eight
        ang = freq * t + phase
        path = np.stack(
            [centre + span * np.sin(2 * ang), centre + span * np.sin(ang)], axis=1
        )
        return [path + jitter]
    if label == 8:  # air drums: two blobs striking vertically in antiphase
        a = np.stack(
            [centre + span * np.abs(np.sin(freq * 3 * t)), np.full(n_steps, left_x)],
            axis=1,
        )
        b = np.stack(
            [centre + span * np.abs(np.cos(freq * 3 * t)), np.full(n_steps, right_x)],
            axis=1,
        )
        return [a + jitter, b + jitter]
    if label == 9:  # air guitar: one anchored blob, one strumming diagonally
        anchor = np.stack([np.full(n_steps, centre * 0.7), np.full(n_steps, left_x)], axis=1)
        strum = np.stack(
            [
                centre + span * 0.6 * np.sin(freq * 3 * t + phase),
                right_x + span * 0.3 * np.sin(freq * 3 * t + phase),
            ],
            axis=1,
        )
        return [anchor + jitter, strum + jitter]
    if label == 10:  # "other": random smooth drift
        steps = rng.normal(0, size * 0.02, (n_steps, 2)).cumsum(axis=0)
        path = np.clip(centre + steps, size * 0.1, size * 0.9)
        return [path + jitter]
    raise ValueError(f"gesture label must be 0-10, got {label}")


class SyntheticDVSGesture:
    """Eleven-class gesture recordings seen by the simulated DVS sensor.

    ``size`` defaults to 128 to match the real sensor; training
    experiments typically use 32 or 36 for speed (the paper's network is
    evaluated at a 144x144-padded geometry, see DESIGN.md §5).
    """

    def __init__(
        self,
        size: int = 128,
        n_steps: int = 48,
        sprite_radius_fraction: float = 0.07,
        dvs: DVSConfig | None = None,
    ) -> None:
        if size < 16:
            raise ValueError("size must be at least 16 pixels")
        if n_steps < 1:
            raise ValueError("n_steps must be positive")
        self.size = size
        self.n_steps = n_steps
        self.sprite_radius = max(1, int(round(sprite_radius_fraction * size)))
        self.dvs = dvs or DVSConfig(contrast_threshold=0.3)
        self.n_classes = len(GESTURE_NAMES)

    def _sprite(self) -> np.ndarray:
        r = self.sprite_radius
        yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
        return np.clip(1.2 - np.sqrt(yy**2 + xx**2) / max(r, 1), 0.0, 1.0)

    def make_sample(self, label: int, seed: int) -> EventSample:
        """Generate one recording of gesture ``label`` (deterministic)."""
        rng = np.random.default_rng(seed)
        tracks = _gesture_positions(label, self.n_steps, self.size, rng)
        sprite = self._sprite()
        video = np.full((self.n_steps, self.size, self.size), 0.2)
        for track in tracks:
            top_left = np.round(track - self.sprite_radius).astype(int)
            video += render_video(
                self.n_steps, self.size, self.size, sprite, top_left, background=0.0
            )
        dvs_cfg = DVSConfig(
            contrast_threshold=self.dvs.contrast_threshold,
            refractory_steps=self.dvs.refractory_steps,
            background_rate=self.dvs.background_rate,
            max_events_per_step=self.dvs.max_events_per_step,
            seed=seed,
        )
        stream = DVSSimulator(dvs_cfg).simulate(video)
        return EventSample(stream=stream, label=label)

    def generate(self, n_per_class: int, seed: int = 0) -> EventDataset:
        """Generate a balanced dataset of ``11 * n_per_class`` recordings."""
        samples = [
            self.make_sample(label, seed * 1_000_003 + label * 1009 + i)
            for label in range(self.n_classes)
            for i in range(n_per_class)
        ]
        return EventDataset(samples, n_classes=self.n_classes, name="synthetic-dvs-gesture")
