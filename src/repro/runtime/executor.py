"""Cache-aware job orchestration over pluggable execution backends.

The execution strategies themselves live in :mod:`.backends` — a
registry of ``serial`` / ``thread`` / ``process`` backends behind one
contract: one :class:`~repro.runtime.backends.JobResult` per
:class:`~repro.runtime.jobs.JobSpec` **in input order**, regardless of
completion order, with raising jobs captured as structured ``ok=False``
records instead of crashing the sweep.

:func:`run_jobs` is the orchestration entry point layering the result
store over a backend: cache hits short-circuit execution, misses are
dispatched (chunked, per-job timed), and fresh successes are written
back.  The backend may be passed as an instance or as a registered
name (``"serial"``, ``"thread"``, ``"process"``, or anything added via
:func:`~repro.runtime.backends.register_backend`).  Its
:class:`RunReport` carries the hit/miss/failure statistics every CLI
command and benchmark reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import obs
from .backends import Backend, JobResult, SerialBackend, make_backend
from .jobs import JobSpec
from .progress import Progress
from .store import ResultStore

__all__ = ["JobResult", "RunStats", "RunReport", "run_jobs"]


@dataclass
class RunStats:
    """Counters for one :func:`run_jobs` invocation."""

    total: int = 0
    hits: int = 0
    misses: int = 0
    failures: int = 0
    cache_errors: int = 0
    elapsed_s: float = 0.0
    executor: str = "serial"
    workers: int = 1

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from the cache (0.0 for empty runs)."""
        return self.hits / self.total if self.total else 0.0

    def summary(self) -> str:
        """One human-readable line of the run's counters — the
        ``run: ...`` line every CLI command prints."""
        text = (
            f"{self.total} job(s) via {self.executor}x{self.workers} in "
            f"{self.elapsed_s:.3f}s — {self.hits} cache hit(s), "
            f"{self.misses} computed, {self.failures} failed "
            f"(hit rate {self.hit_rate:.0%})"
        )
        if self.cache_errors:
            text += f"; {self.cache_errors} result(s) could not be cached"
        return text


@dataclass(frozen=True)
class RunReport:
    """Ordered results plus the run's statistics."""

    results: tuple[JobResult, ...]
    stats: RunStats

    def values(self) -> list[dict]:
        """All result values in job order; raises on any failure."""
        return [r.unwrap() for r in self.results]

    def failures(self) -> list[JobResult]:
        """The failed results, in job order (empty when all succeeded)."""
        return [r for r in self.results if not r.ok]


def run_jobs(
    specs: list[JobSpec],
    executor: Backend | str | None = None,
    cache: ResultStore | None = None,
    progress: Progress | None = None,
) -> RunReport:
    """Execute ``specs`` through ``executor``, layered over ``cache``.

    ``executor`` is a backend instance or a registered backend name
    (default serial).  Results come back in input order.  With a cache,
    previously-computed jobs are served from disk without dispatch, and
    newly computed successes are stored for the next run; failures are
    never cached.
    """
    specs = list(specs)
    if executor is None:
        executor = SerialBackend()
    elif isinstance(executor, str):
        executor = make_backend(executor)
    progress = progress or Progress()
    stats = RunStats(
        total=len(specs),
        executor=getattr(executor, "name", type(executor).__name__),
        workers=getattr(executor, "workers", 1),
    )
    registry = obs.get_registry()
    jobs_total = registry.counter(
        "repro_jobs_total", "Job completions by kind and status.")
    job_seconds = registry.histogram(
        "repro_job_duration_seconds", "Computed job wall-clock seconds by kind.")
    with obs.span("run.jobs", total=len(specs), executor=stats.executor,
                  workers=stats.workers):
        obs.emit("run.start", total=len(specs), executor=stats.executor)
        start = time.perf_counter()
        progress.on_start(len(specs))

        slots: list[JobResult | None] = [None] * len(specs)
        pending: list[tuple[int, JobSpec]] = []
        done = 0
        for i, spec in enumerate(specs):
            hit = cache.get(spec) if cache is not None else None
            if hit is not None:
                slots[i] = JobResult(
                    job_hash=hit.job_hash,
                    kind=hit.kind,
                    ok=True,
                    value=hit.value,
                    error=None,
                    duration_s=hit.duration_s,
                    cached=True,
                )
                stats.hits += 1
                done += 1
                jobs_total.inc(kind=spec.kind, status="cached")
                progress.on_job(done, len(specs), slots[i])
            else:
                pending.append((i, spec))

        if pending:
            counter = {"done": done}

            def on_result(result: JobResult) -> None:
                counter["done"] += 1
                progress.on_job(counter["done"], len(specs), result)

            computed = executor.run([spec for _, spec in pending], on_result=on_result)
            for (i, spec), result in zip(pending, computed):
                slots[i] = result
                if result.ok:
                    stats.misses += 1
                    jobs_total.inc(kind=spec.kind, status="ok")
                    job_seconds.observe(result.duration_s, kind=spec.kind)
                    if cache is not None:
                        # A write failure (disk full, read-only directory, a
                        # custom runner returning non-JSON values) costs the
                        # memoisation, never the already-computed results.
                        try:
                            cache.put(spec, result.value, result.duration_s)
                        except (OSError, TypeError, ValueError):
                            stats.cache_errors += 1
                else:
                    stats.failures += 1
                    jobs_total.inc(kind=spec.kind, status="failed")

        stats.elapsed_s = time.perf_counter() - start
        progress.on_finish(stats)
        obs.emit("run.end", total=stats.total, hits=stats.hits,
                 misses=stats.misses, failures=stats.failures,
                 elapsed_s=stats.elapsed_s)
    return RunReport(results=tuple(slots), stats=stats)
