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
``tools/bench_compare.py`` diffs those files against the
committed baselines in ``benchmarks/baselines/`` and fails CI on a
>20% regression — the ``make bench-gate`` target wires both halves
together.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
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


_CALIBRATION: float | None = None


def machine_calibration() -> float:
    """Wall seconds of a fixed numpy kernel (best of 5), memoised.

    Shared runners and containers drift in effective CPU speed between
    runs; recording this per-session constant alongside every timing
    lets ``tools/bench_compare.py`` normalise second-valued metrics by
    the machine-speed ratio before applying the regression tolerance,
    so the gate trips on code regressions, not on a slow afternoon.
    The kernel mixes small-array calls (the simulator's dominant cost
    shape) with one larger scan.
    """
    global _CALIBRATION
    if _CALIBRATION is None:
        rng = np.random.default_rng(0)
        small = rng.integers(-8, 8, 4096)
        big = rng.random(1_000_000)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(300):
                np.cumsum(small)
                np.argsort(small[:512], kind="stable")
                np.maximum(small, 0)
            np.sort(big)
            best = min(best, time.perf_counter() - t0)
        _CALIBRATION = best
    return _CALIBRATION


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
            "calibration_s": machine_calibration(),
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
