"""Execution backends: a registry of interchangeable job runners.

A *backend* is anything that turns an ordered list of
:class:`~repro.runtime.jobs.JobSpec` into the same-length, same-order
list of :class:`JobResult` — the contract :func:`~repro.runtime.executor.run_jobs`
is built on.  Three ship with the package:

* ``serial``  — in-process loop, the reference for result equivalence;
  it runs each run of consecutive compatible ``sample_eval`` jobs as
  one stacked simulation (:func:`~repro.runtime.jobs.batch_signature`),
  and so does each chunk of the ``process`` pool;
* ``thread``  — a ``ThreadPoolExecutor`` fan-out for IO-bound jobs
  (dataset generation, event-file replay) that release the GIL or wait
  on disk;
* ``process`` — the chunked ``multiprocessing`` pool for CPU-bound
  simulation sweeps.

A fourth, ``cluster`` (:mod:`repro.runtime.dist`), registers itself
when its module is imported, which the registry does on the first
listing or lookup that needs it: it dispatches hashed job chunks
through a durable spool directory to a broker/worker fleet — the
out-of-machine member of the registry.

All of them uphold the same invariants, enforced by
``tests/test_backend_parity.py``:

1. results come back **in input order**, regardless of completion
   order, so any backend is bit-identical to ``serial``;
2. a raising job becomes a structured ``ok=False`` record carrying the
   traceback text — never a crashed sweep — and failure positions are
   identical across backends; so does a job whose runner returns
   anything but a JSON-serialisable ``dict`` (:func:`_execute_one` and
   :func:`_execute_run` are the only places a computed result is made,
   so they check that once for every backend and plane);
3. ``on_result`` callbacks fire in the parent, in input order, so
   progress sinks need no locks.

:func:`register_backend` adds new backends (a cluster/queue dispatcher,
a mock for tests) under a name the CLI's ``--backend`` flag and
:func:`make_backend` resolve; registration at import time makes the
name available in every worker process under any start method.

:func:`arun` is the awaitable submission path next to the synchronous
contract: it offloads a backend's blocking :meth:`~Backend.run` to a
worker thread and re-yields each :class:`JobResult` on the event loop
*as it completes*, which is what the streaming server
(:mod:`repro.runtime.serve`) is built on.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import importlib
import json
import math
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import AsyncIterator, Callable, Protocol, runtime_checkable

from .jobs import JobSpec, batch_signature, execute_job, execute_sample_batch

__all__ = [
    "JobResult",
    "Backend",
    "register_backend",
    "make_backend",
    "available_backends",
    "default_backend_name",
    "arun",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
]


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job: a value or a captured failure."""

    job_hash: str
    kind: str
    ok: bool
    value: dict | None
    error: str | None
    duration_s: float
    cached: bool = False

    def unwrap(self) -> dict:
        """The value, raising if the job failed."""
        if not self.ok or self.value is None:
            raise RuntimeError(f"job {self.kind} ({self.job_hash[:12]}) failed:\n{self.error}")
        return self.value


def _computed(spec: JobSpec, value, duration_s: float) -> JobResult:
    """The result of a runner that returned ``value``, held to the runner
    contract: the value must be a ``dict`` that ``json.dumps`` accepts,
    so the store, the spool and the wire can all carry it.  Anything
    else becomes a structured ``ok=False`` result, the same on every
    backend."""
    if not isinstance(value, dict):
        error = f"TypeError: result must be a dict, not {type(value).__name__}"
    else:
        try:
            json.dumps(value)
        except (TypeError, ValueError, RecursionError) as exc:
            error = f"TypeError: result not JSON-serialisable: {exc}"
        else:
            return JobResult(job_hash=spec.job_hash, kind=spec.kind, ok=True,
                             value=value, error=None, duration_s=duration_s)
    return JobResult(job_hash=spec.job_hash, kind=spec.kind, ok=False,
                     value=None, error=error, duration_s=duration_s)


def _execute_one(spec: JobSpec) -> JobResult:
    """Run one spec, capturing any exception as a structured record."""
    start = time.perf_counter()
    try:
        value = execute_job(spec)
    except Exception as exc:
        return JobResult(
            job_hash=spec.job_hash,
            kind=spec.kind,
            ok=False,
            value=None,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            duration_s=time.perf_counter() - start,
        )
    return _computed(spec, value, time.perf_counter() - start)


def _batches(specs: list[JobSpec]) -> list[list[JobSpec]]:
    """Split ``specs`` into runs of consecutive specs that share one
    :func:`~repro.runtime.jobs.batch_signature`; every other spec is a
    run of its own."""
    runs: list[list[JobSpec]] = []
    last = None
    for spec in specs:
        signature = batch_signature(spec)
        if signature is not None and signature == last:
            runs[-1].append(spec)
        else:
            runs.append([spec])
        last = signature
    return runs


def _execute_run(specs: list[JobSpec]) -> list[JobResult]:
    """Run one :func:`_batches` run, preserving order.

    A run of several ``sample_eval`` specs simulates as one stacked
    batch and each result's ``duration_s`` is an equal share of the
    batch's wall time.  If the batch raises, it is re-run one spec at a
    time, so only the failing spec fails, with its own traceback.
    """
    if len(specs) == 1:
        return [_execute_one(specs[0])]
    start = time.perf_counter()
    try:
        values = execute_sample_batch(specs)
    except Exception:
        return [_execute_one(spec) for spec in specs]
    share = (time.perf_counter() - start) / len(specs)
    return [_computed(spec, value, share) for spec, value in zip(specs, values)]


def _execute_chunk(specs: list[JobSpec]) -> list[JobResult]:
    """Worker-side entry point: run one chunk, preserving order."""
    return [result for run in _batches(specs) for result in _execute_run(run)]


@runtime_checkable
class Backend(Protocol):
    """The execution contract every backend implements."""

    name: str
    workers: int

    def run(self, specs: list[JobSpec], on_result=None) -> list[JobResult]:
        """Execute ``specs``, returning one result per spec in input order."""
        ...


# -- registry ---------------------------------------------------------------

_BACKENDS: dict[str, Callable[..., Backend]] = {}

#: Built-in backends defined outside this module -> the module whose
#: import registers them.  Listings and lookups import these first, so
#: the registry never depends on what a process happened to import.
_BUILTIN_MODULES = {"cluster": "repro.runtime.dist"}


def _load_builtins() -> None:
    for module in _BUILTIN_MODULES.values():
        importlib.import_module(module)


def register_backend(name: str, *, override: bool = False):
    """Register a backend factory (usually the class itself) under ``name``.

    The factory is called as ``factory(workers=..., **kwargs)`` by
    :func:`make_backend`; apply the decorator at module import time so
    the name exists in spawn-started worker processes too.  Reusing a
    taken name raises unless ``override=True`` — silently hijacking a
    shipped backend would break the cross-backend parity guarantee
    with no diagnostic.
    """

    def deco(factory: Callable[..., Backend]):
        if name in _BUILTIN_MODULES:
            _load_builtins()
        if not override and name in _BACKENDS:
            raise ValueError(
                f"backend {name!r} is already registered "
                f"(pass override=True to replace it)"
            )
        _BACKENDS[name] = factory
        return factory

    return deco


def available_backends() -> list[str]:
    """Registered backend names, sorted for stable CLI/help output."""
    _load_builtins()
    return sorted(_BACKENDS)


def default_backend_name(workers: int | None) -> str:
    """The pre-registry implicit choice: bare ``--workers N > 1`` meant
    the process pool, anything else the serial reference.  The CLI and
    examples share this so the fallback policy cannot drift."""
    return "process" if (workers or 1) > 1 else "serial"


def make_backend(name: str, workers: int | None = None, **kwargs) -> Backend:
    """Instantiate the backend registered under ``name``.

    ``workers=None`` leaves the backend's own default (serial ignores
    it; thread/process size themselves from ``os.cpu_count()``).
    """
    if name not in _BACKENDS and name in _BUILTIN_MODULES:
        _load_builtins()
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    if workers is not None:
        kwargs["workers"] = workers
    return factory(**kwargs)


# -- asyncio bridge ---------------------------------------------------------


async def arun(
    backend: Backend | str,
    specs: list[JobSpec],
    on_result: Callable[[JobResult], None] | None = None,
) -> AsyncIterator[JobResult]:
    """Run ``specs`` on ``backend`` without blocking the event loop,
    yielding each :class:`JobResult` as it completes.

    The backend's blocking :meth:`~Backend.run` executes in the default
    executor's worker thread; its ``on_result`` callback (which every
    backend fires in the parent, in input order) hands each result to
    the loop via ``call_soon_threadsafe``, so consumers see results
    *while the batch is still running* — the streaming primitive the
    serving front end coalesces micro-batches onto.

    Args:
        backend: a :class:`Backend` instance or a registered name
            (resolved through :func:`make_backend`).
        specs: the jobs to execute, in order.
        on_result: optional callback invoked on the event loop for each
            yielded result (after any raising job has been captured as
            a structured ``ok=False`` record — the same contract as the
            synchronous path).

    Yields:
        One :class:`JobResult` per spec, in input order.

    Raises:
        RuntimeError: if the backend violates its contract by returning
            without delivering one result per spec.
        Exception: whatever the backend itself raises (a crashed pool);
            per-job exceptions never surface here — they come back as
            ``ok=False`` results.
    """
    if isinstance(backend, str):
        backend = make_backend(backend)
    specs = list(specs)
    if not specs:
        return
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue[JobResult] = asyncio.Queue()

    def _deliver(result: JobResult) -> None:
        # Called in the executor thread; put_nowait must run on the loop.
        loop.call_soon_threadsafe(queue.put_nowait, result)

    run_future = loop.run_in_executor(
        None, lambda: backend.run(specs, on_result=_deliver)
    )
    delivered = 0
    getter: asyncio.Task | None = None
    try:
        while delivered < len(specs):
            getter = asyncio.ensure_future(queue.get())
            done, _ = await asyncio.wait(
                {getter, run_future}, return_when=asyncio.FIRST_COMPLETED
            )
            if getter in done:
                result = getter.result()
            else:
                getter.cancel()
                # The backend finished (or crashed).  A crash raises
                # here; on a clean return every _deliver callback was
                # scheduled before the future's completion callback, so
                # any remaining results are already in the queue.
                run_future.result()
                try:
                    result = queue.get_nowait()
                except asyncio.QueueEmpty:
                    raise RuntimeError(
                        f"backend {getattr(backend, 'name', backend)!r} returned "
                        f"after {delivered}/{len(specs)} results — contract "
                        "requires one result per spec"
                    ) from None
            delivered += 1
            if on_result is not None:
                on_result(result)
            yield result
    finally:
        # An abandoned generator must not leak a pending queue getter
        # or let the worker thread's eventual exception reach the
        # loop's default handler.
        if getter is not None and not getter.done():
            getter.cancel()
        if not run_future.done():
            run_future.add_done_callback(lambda f: f.exception())


# -- shipped backends -------------------------------------------------------


@register_backend("serial")
class SerialBackend:
    """In-process execution — the reference for result equivalence."""

    name = "serial"
    workers = 1

    def __init__(self, workers: int | None = None) -> None:
        # ``workers`` is accepted (and ignored) so ``--backend serial
        # --workers N`` and ``make_backend(name, workers=N)`` work
        # uniformly across every registered backend.
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")

    def run(self, specs: list[JobSpec], on_result=None) -> list[JobResult]:
        """Execute ``specs`` one run after another in this process.

        Consecutive ``sample_eval`` specs of one deployment, kernel and
        stream envelope run as one stacked batch; every other spec runs
        on its own.

        Args:
            specs: jobs to run, in order.
            on_result: optional callback fired with each
                :class:`JobResult` once its run (batch) has finished.

        Returns:
            One result per spec, in input order; raising jobs become
            structured ``ok=False`` records, never exceptions.
        """
        out = []
        for run in _batches(list(specs)):
            results = _execute_run(run)
            out.extend(results)
            if on_result is not None:
                for result in results:
                    on_result(result)
        return out


@register_backend("thread")
class ThreadBackend:
    """Fan-out over a thread pool, for IO-bound job kinds.

    CPU-bound simulation jobs gain little under the GIL; jobs that wait
    on disk or sockets (event-file replay, dataset downloads) overlap
    their waits.  Futures are submitted all at once but *consumed* in
    input order, so results and ``on_result`` callbacks keep the serial
    ordering even when later jobs finish first.
    """

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers if workers is not None else min(32, (os.cpu_count() or 1) + 4)
        if self.workers < 1:
            raise ValueError("workers must be positive")

    def run(self, specs: list[JobSpec], on_result=None) -> list[JobResult]:
        """Execute ``specs`` over the thread pool, consuming futures in
        input order so results and ``on_result`` callbacks keep the
        serial ordering.  Single-job or single-worker calls degrade to
        the serial path with no pool overhead.  Returns one result per
        spec; per-job exceptions become ``ok=False`` records."""
        specs = list(specs)
        if not specs:
            return []
        if self.workers == 1 or len(specs) == 1:
            return SerialBackend().run(specs, on_result=on_result)
        out: list[JobResult] = []
        pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.workers)
        try:
            futures = [pool.submit(_execute_one, spec) for spec in specs]
            for future in futures:
                result = future.result()
                out.append(result)
                if on_result is not None:
                    on_result(result)
        except BaseException:
            # Ctrl-C must abandon the queue, not hang until every
            # already-submitted job has run to completion.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        return out


@register_backend("process")
class ProcessBackend:
    """Chunked dispatch over a ``multiprocessing`` pool.

    Jobs are split into ``workers * CHUNKS_PER_WORKER`` chunks (or
    fixed-size ``chunk_size`` chunks) and streamed through
    ``Pool.imap``, which preserves chunk order — so the flattened
    result list is always in input order.  ``workers=1`` degrades to
    the serial path with no pool overhead.
    """

    name = "process"
    #: Chunks per worker when ``chunk_size`` is not given.
    CHUNKS_PER_WORKER = 4

    def __init__(self, workers: int | None = None,
                 chunk_size: int | None = None) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size

    def _chunks(self, specs: list[JobSpec]) -> list[list[JobSpec]]:
        size = self.chunk_size or max(
            1, math.ceil(len(specs) / (self.workers * self.CHUNKS_PER_WORKER))
        )
        return [specs[i : i + size] for i in range(0, len(specs), size)]

    def run(self, specs: list[JobSpec], on_result=None) -> list[JobResult]:
        """Execute ``specs`` chunked over a process pool via
        ``Pool.imap`` (chunk order preserved, so the flattened results
        are in input order).  ``on_result`` fires in the parent as each
        chunk lands.  Single-job or single-worker calls degrade to the
        serial path.  Returns one result per spec; per-job exceptions
        become ``ok=False`` records."""
        specs = list(specs)
        if not specs:
            return []
        if self.workers == 1 or len(specs) == 1:
            return SerialBackend().run(specs, on_result=on_result)
        out: list[JobResult] = []
        with multiprocessing.Pool(processes=self.workers) as pool:
            for chunk_results in pool.imap(_execute_chunk, self._chunks(specs)):
                out.extend(chunk_results)
                if on_result is not None:
                    for result in chunk_results:
                        on_result(result)
        return out
