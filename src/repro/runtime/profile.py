"""Hot-path profiling: named spans with counts, wall time and throughput.

A :class:`Profiler` accumulates :class:`SpanStats` — how often a stage
ran, how much wall time it took, how many events it processed — from
anything instrumented to report spans: the SNE cycle model threads one
through :meth:`~repro.hw.sne.SNE.run_layer` /
:meth:`~repro.hw.sne.SNE.run_network` (stages ``sne.assemble``,
``sne.update``, ``sne.fire``, ``sne.reset``, plus one
``sne.layer.<name>`` per layer), the hardware-in-the-loop runner wraps
whole samples (``runner.sample``), and ``sample_eval`` jobs built with
``profile=True`` attach the summary JSON to their results so profiles
survive process pools and the result cache.

Summaries are plain JSON (``{"total_s": ..., "spans": {name: {...}}}``)
so they can ride in job results, merge across workers
(:meth:`Profiler.merge`) and render as the table the ``repro profile``
CLI command prints.  Spans may nest
(``runner.sample`` contains the ``sne.*`` stages), so shares are
relative to each profiler's elapsed wall time and do not sum to 100%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

__all__ = ["SpanStats", "Profiler", "render_profile"]


@dataclass
class SpanStats:
    """Accumulated measurements of one named stage."""

    name: str
    count: int = 0
    wall_s: float = 0.0
    events: int = 0

    @property
    def events_per_s(self) -> float:
        """Throughput of the stage (0.0 while no wall time is recorded)."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready view: count, wall time, events, events/s."""
        return {
            "count": int(self.count),
            "wall_s": float(self.wall_s),
            "events": int(self.events),
            "events_per_s": float(self.events_per_s),
        }


class Profiler:
    """Accumulates per-stage spans for one run (or many merged runs).

    Hot loops call :meth:`add` with pre-measured durations (cheapest);
    coarser call sites use the :meth:`span` context manager.  Profilers
    merge, so per-worker profiles combine into one fleet view.
    """

    def __init__(self) -> None:
        """Start an empty profiler; elapsed time counts from here."""
        self.spans: dict[str, SpanStats] = {}
        self._started = time.perf_counter()

    def add(self, name: str, wall_s: float, count: int = 1, events: int = 0) -> None:
        """Accumulate one measurement into the span called ``name``."""
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = SpanStats(name)
        span.count += count
        span.wall_s += wall_s
        span.events += events

    def span(self, name: str, events: int = 0) -> "_SpanContext":
        """Context manager timing one occurrence of stage ``name``."""
        return _SpanContext(self, name, events)

    def elapsed_s(self) -> float:
        """Wall time since this profiler was created."""
        return time.perf_counter() - self._started

    def merge(self, other: "Profiler | dict") -> None:
        """Fold another profiler (or a :meth:`summary` dict) into this one.

        Span counts/wall/events add; the other profiler's ``total_s``
        does not extend this profiler's own elapsed clock (merged
        workers overlap in time).
        """
        spans = other.spans.values() if isinstance(other, Profiler) else [
            SpanStats(name, int(s["count"]), float(s["wall_s"]), int(s["events"]))
            for name, s in dict(other).get("spans", {}).items()
        ]
        for span in spans:
            self.add(span.name, span.wall_s, count=span.count, events=span.events)

    def summary(self) -> dict:
        """The structured JSON view: ``total_s`` + per-span statistics.

        Shape: ``{"total_s": float, "spans": {name: {"count": int,
        "wall_s": float, "events": int, "events_per_s": float}}}`` with
        spans sorted by descending wall time.
        """
        ordered = sorted(self.spans.values(), key=lambda s: -s.wall_s)
        return {
            "total_s": self.elapsed_s(),
            "spans": {s.name: s.as_dict() for s in ordered},
        }

    def render(self, title: str = "profile") -> str:
        """Human-readable per-stage table of the recorded spans."""
        return render_profile(self.summary(), title=title)

    def __iter__(self) -> Iterator[SpanStats]:
        """Iterate spans in descending wall-time order."""
        return iter(sorted(self.spans.values(), key=lambda s: -s.wall_s))


class _SpanContext:
    """Context manager produced by :meth:`Profiler.span`."""

    __slots__ = ("_profiler", "_name", "_events", "_t0")

    def __init__(self, profiler: Profiler, name: str, events: int) -> None:
        self._profiler = profiler
        self._name = name
        self._events = events

    def __enter__(self) -> "_SpanContext":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._profiler.add(
            self._name, time.perf_counter() - self._t0, events=self._events
        )


def render_profile(summary: dict, title: str = "profile") -> str:
    """Render a :meth:`Profiler.summary` dict as an aligned text table.

    Columns: span, count, wall [ms], share of ``total_s``, events, and
    events/s.  Spans print in the summary's order (descending wall
    time); nested spans overlap, so shares can sum past 100%.
    """
    total = float(summary.get("total_s", 0.0))
    rows = [["span", "count", "wall [ms]", "share", "events", "events/s"]]
    for name, s in summary.get("spans", {}).items():
        share = s["wall_s"] / total if total > 0 else 0.0
        rows.append([
            name,
            str(s["count"]),
            f"{s['wall_s'] * 1e3:.3f}",
            f"{share:.1%}",
            str(s["events"]),
            f"{s['events_per_s']:,.0f}" if s["events"] else "-",
        ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [f"{title} — total {total * 1e3:.3f} ms"]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
