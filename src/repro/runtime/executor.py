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
:class:`RunReport` holds the ordered results, from which it derives the
hit/miss/failure counts every CLI command and benchmark reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import obs
from .backends import Backend, JobResult, SerialBackend, make_backend
from .jobs import JobSpec
from .progress import Progress
from .store import ResultStore

__all__ = ["JobResult", "RunReport", "run_jobs"]


@dataclass(frozen=True)
class RunReport:
    """Ordered results of one :func:`run_jobs` call.

    The hit, computed and failure counts are derived from the results
    (``cached``, ``ok``); the report stores only what the results cannot
    tell: the backend, its worker count, the wall time and the computed
    results the store refused to keep.
    """

    results: tuple[JobResult, ...]
    backend: str = "serial"
    workers: int = 1
    elapsed_s: float = 0.0
    cache_errors: int = 0

    @property
    def hits(self) -> int:
        """Jobs served from the cache."""
        return sum(r.cached for r in self.results)

    @property
    def misses(self) -> int:
        """Jobs computed successfully."""
        return sum(r.ok and not r.cached for r in self.results)

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from the cache (0.0 for empty runs)."""
        return self.hits / len(self.results) if self.results else 0.0

    def summary(self) -> str:
        """One human-readable line of the run's counts — the ``run: ...``
        line every CLI command prints."""
        text = (
            f"{len(self.results)} job(s) via {self.backend}x{self.workers} in "
            f"{self.elapsed_s:.3f}s — {self.hits} cache hit(s), "
            f"{self.misses} computed, {len(self.failures())} failed "
            f"(hit rate {self.hit_rate:.0%})"
        )
        if self.cache_errors:
            text += f"; {self.cache_errors} result(s) could not be cached"
        return text

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
    never cached.  A write the store refuses costs only the cached copy
    and counts in the report's ``cache_errors``.
    """
    specs = list(specs)
    if executor is None:
        executor = SerialBackend()
    elif isinstance(executor, str):
        executor = make_backend(executor)
    progress = progress or Progress()
    backend = getattr(executor, "name", type(executor).__name__)
    workers = getattr(executor, "workers", 1)
    registry = obs.get_registry()
    jobs_total = registry.counter(
        "repro_jobs_total", "Job completions by kind and status.")
    job_seconds = registry.histogram(
        "repro_job_duration_seconds", "Computed job wall-clock seconds by kind.")
    with obs.span("run.jobs", total=len(specs), executor=backend,
                  workers=workers):
        obs.emit("run.start", total=len(specs), executor=backend)
        start = time.perf_counter()
        progress.on_start(len(specs))

        slots: list[JobResult | None] = [None] * len(specs)
        pending: list[tuple[int, JobSpec]] = []
        done = cache_errors = 0
        for i, spec in enumerate(specs):
            hit = cache.get(spec) if cache is not None else None
            if hit is not None:
                slots[i] = hit
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

            computed = list(executor.run([spec for _, spec in pending], on_result=on_result))
            if len(computed) != len(pending):
                raise RuntimeError(
                    f"backend {backend!r} returned {len(computed)} results "
                    f"for {len(pending)} specs — contract requires one result per spec"
                )
            for (i, spec), result in zip(pending, computed):
                slots[i] = result
                if result.ok:
                    jobs_total.inc(kind=spec.kind, status="ok")
                    job_seconds.observe(result.duration_s, kind=spec.kind)
                    if cache is not None and not cache.put(spec, result):
                        cache_errors += 1
                else:
                    jobs_total.inc(kind=spec.kind, status="failed")

        report = RunReport(results=tuple(slots), backend=backend, workers=workers,
                           elapsed_s=time.perf_counter() - start,
                           cache_errors=cache_errors)
        progress.on_finish(report)
        obs.emit("run.end", total=len(specs), hits=report.hits,
                 misses=report.misses, failures=len(report.failures()),
                 elapsed_s=report.elapsed_s)
    return report
