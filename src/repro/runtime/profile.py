"""Hot-path profiling: named spans with counts, wall time and throughput.

A :class:`Profiler` accumulates :class:`SpanStats` — how often a stage
ran, how much wall time it took, how many events it processed — from
anything instrumented to report spans: the SNE cycle model threads one
through :meth:`~repro.hw.sne.SNE.run_layer` /
:meth:`~repro.hw.sne.SNE.run_network` (stages ``sne.assemble``,
``sne.update``, ``sne.fire``, ``sne.reset``, plus one
``sne.layer.<name>`` per layer), and the hardware-in-the-loop runner
wraps each stacked batch of samples (``runner.sample``).
``repro profile`` runs its samples in-process through
:meth:`~repro.hw.runner.HardwareEvaluator.evaluate` under one
profiler, so the spans time the same batched loop the backends run.

Summaries are plain JSON (``{"total_s": ..., "spans": {name: {...}}}``)
and render as the table the ``repro profile`` CLI command prints
(:func:`render_profile`).  Spans may nest (``runner.sample`` contains
the ``sne.*`` stages), so shares are relative to the profiler's
elapsed wall time and do not sum to 100%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    """Accumulates per-stage spans for one run.

    Instrumented loops call :meth:`add` with pre-measured durations.
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

    def elapsed_s(self) -> float:
        """Wall time since this profiler was created."""
        return time.perf_counter() - self._started

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
