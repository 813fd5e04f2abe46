"""Shared benchmark plumbing.

Both outputs land in the gitignored ``.bench/`` directory at the
repository root, so a benchmark run leaves the checkout clean.

Every benchmark prints its paper-vs-measured table and also appends it
to ``.bench/results_last_run.md`` through the ``report`` fixture, so
one ``pytest benchmarks/ --benchmark-only`` run regenerates the full
comparison record.

The ``bench_json`` fixture is the machine-readable side of the same
story: each ``bench_<name>.py`` module records named metrics (timings,
throughputs, accuracies) into ``.bench/BENCH_<name>.json``.
``make bench-gate`` (``tools/bench_compare.py``) runs the suite on
the parent commit and on this checkout, interleaved, and compares the
two sides' records metric by metric; the rule is documented in
``docs/ARCHITECTURE.md`` ("Profiling and the benchmark gate").
"""

from __future__ import annotations

import json
import pathlib

import pytest

#: Where benchmark runs write their records (gitignored).
BENCH_JSON_DIR = pathlib.Path(__file__).parent.parent / ".bench"
RESULTS_PATH = BENCH_JSON_DIR / "results_last_run.md"

BENCH_SCHEMA = 1


class Reporter:
    """Accumulates rendered tables and flushes them to disk."""

    def __init__(self) -> None:
        self.sections: list[str] = []

    def add(self, text: str) -> None:
        self.sections.append(text)
        print("\n" + text)

    def flush(self) -> None:
        if self.sections:
            RESULTS_PATH.parent.mkdir(exist_ok=True)
            RESULTS_PATH.write_text("\n\n".join(self.sections) + "\n")


@pytest.fixture(scope="session")
def report():
    reporter = Reporter()
    yield reporter
    reporter.flush()


class BenchRecorder:
    """Collects one benchmark module's metrics for ``BENCH_<name>.json``.

    Each metric carries a comparison direction for the regression gate:
    ``lower`` (timings — regressions are increases), ``higher``
    (throughputs/accuracies — regressions are decreases) or ``info``
    (recorded but never gated).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.metrics: dict[str, dict] = {}

    def metric(self, key: str, value: float, direction: str = "info",
               unit: str = "") -> None:
        """Record one named metric (last write per key wins)."""
        if direction not in ("lower", "higher", "info"):
            raise ValueError(f"direction must be lower/higher/info, got {direction!r}")
        self.metrics[key] = {
            "value": float(value), "direction": direction, "unit": unit,
        }

    def timing(self, key: str, seconds: float) -> None:
        """Record one wall-time metric (gated: lower is better)."""
        self.metric(key, seconds, direction="lower", unit="s")

    def from_benchmark(self, benchmark, key: str = "mean_s") -> None:
        """Record the mean of a ``pytest-benchmark`` fixture run."""
        stats = getattr(getattr(benchmark, "stats", None), "stats", None)
        if stats is not None:
            self.timing(key, stats.mean)

    def flush(self) -> None:
        """Write ``BENCH_<name>.json`` (skipped while empty)."""
        if not self.metrics:
            return
        BENCH_JSON_DIR.mkdir(exist_ok=True)
        path = BENCH_JSON_DIR / f"BENCH_{self.name}.json"
        doc = {
            "schema": BENCH_SCHEMA,
            "name": self.name,
            "metrics": self.metrics,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def bench_json(request):
    """Per-module :class:`BenchRecorder`, flushed after the module runs.

    The record name is the module name with its ``bench_`` prefix
    stripped, so ``bench_fig5b_perf.py`` emits ``BENCH_fig5b_perf.json``.
    """
    name = request.module.__name__.removeprefix("bench_")
    recorder = BenchRecorder(name)
    yield recorder
    recorder.flush()
