"""Unified execution-plane API: one ``Dispatcher`` seam for all serving.

Before this module, the serving front end
(:class:`~repro.runtime.serve.AsyncServer`) was hard-wired to the
in-process path — every micro-batch went through
:func:`~repro.runtime.backends.arun` onto one local backend — while the
``cluster`` backend fanned *batch* sweeps across a worker fleet through
the spool broker (:mod:`repro.runtime.dist`).  The two halves did not
compose: a server could not put its traffic on a fleet.

:class:`Dispatcher` is the seam that unifies them.  It is the single
execution-plane contract the server codes against::

    submit(specs)  ->  async iterator of per-job JobResults, input order

with two implementations behind it:

* :class:`LocalDispatcher` — today's path: one in-process backend,
  awaited through :func:`~repro.runtime.backends.arun`.
* :class:`BrokerDispatcher` — the fleet path: each submitted batch is
  written into a spool as one broker chunk, external workers (``repro
  worker`` agents, typically operated by ``repro supervise``) claim and
  execute it, and the submission polls its own broker off the event
  loop until the chunk's per-job results land.

Because each submission runs through a private
:class:`~repro.runtime.dist.Broker`, the fleet path inherits the whole
durability story for free: lease TTL + heartbeat, requeue of chunks
whose worker died mid-execution, a bounded retry budget, and structured
``ok=False`` results for unrecoverable chunks — a serving request is
never lost to a crashed worker, and never raised as an exception.
"""

from __future__ import annotations

import asyncio
import pathlib
import time
from typing import AsyncIterator, Iterable, Protocol, runtime_checkable

from . import obs
from .backends import Backend, JobResult, arun, make_backend
from .dist import DEFAULT_MAX_ATTEMPTS, Broker
from .jobs import JobSpec

__all__ = [
    "Dispatcher",
    "LocalDispatcher",
    "BrokerDispatcher",
]


@runtime_checkable
class Dispatcher(Protocol):
    """The execution-plane contract the serving front end codes against.

    A dispatcher turns a list of :class:`~repro.runtime.jobs.JobSpec`
    into an **async iterator of per-job results in input order**,
    without the caller knowing whether the work runs in-process or on a
    remote fleet.  Failures stay structured: a raising runner, a dead
    worker, an exhausted retry budget all come back as ``ok=False``
    :class:`~repro.runtime.backends.JobResult` records — ``submit``
    raising is reserved for dispatcher-level faults (closed dispatcher,
    broken event loop), which the server converts into per-job
    structured failures itself.
    """

    #: Registry-style identity (``"local"``, ``"broker"``) reported by
    #: the serve ``stats`` op and the startup banner.
    name: str

    def submit(self, specs: Iterable[JobSpec]) -> AsyncIterator[JobResult]:
        """Execute ``specs``, yielding one result per spec in input order."""
        ...

    async def aclose(self) -> None:
        """Release dispatcher resources; safe to call more than once."""
        ...

    def describe(self) -> dict:
        """A JSON-able identity document for ``stats``/banners."""
        ...


class LocalDispatcher:
    """The in-process execution plane: one backend behind the seam.

    Wraps any registered backend (or instance) and delegates to
    :func:`~repro.runtime.backends.arun`, the awaitable submission path
    — exactly what :class:`~repro.runtime.serve.AsyncServer` did before
    the dispatcher seam existed, now expressed through it.
    """

    name = "local"

    def __init__(self, backend: Backend | str = "thread",
                 workers: int | None = None) -> None:
        """Args:
            backend: backend instance or registered name (``thread`` by
                default — serving is latency-bound).
            workers: pool size when ``backend`` is a name (None = the
                backend's own default).
        """
        if isinstance(backend, str):
            backend = make_backend(backend, workers=workers)
        self.backend = backend
        self._m_batches = obs.get_registry().counter(
            "repro_dispatch_batches_total",
            "Batches submitted through the dispatcher seam, by dispatcher.")

    async def submit(self, specs: Iterable[JobSpec]) -> AsyncIterator[JobResult]:
        """Run ``specs`` on the wrapped backend, yielding results in
        input order as the backend delivers them."""
        specs = list(specs)
        if not specs:
            return
        self._m_batches.inc(dispatcher=self.name)
        async for result in arun(self.backend, specs):
            yield result

    async def aclose(self) -> None:
        """Nothing to release — the backend owns its own pool lifetime."""

    def describe(self) -> dict:
        """Identity document: dispatcher, backend name and pool size."""
        return {
            "dispatcher": self.name,
            "backend": getattr(self.backend, "name", type(self.backend).__name__),
            "workers": getattr(self.backend, "workers", 1),
        }


class BrokerDispatcher:
    """The fleet execution plane: serve batches as spool chunks.

    Each :meth:`submit` writes its batch into the shared spool as one
    chunk through a private :class:`~repro.runtime.dist.Broker`, so the
    chunk inherits the queue's full crash story — atomic spool writes,
    lease TTL + heartbeat, requeue on dead workers, bounded retries
    (the broker's default budget), structured failures.  External
    ``repro worker`` agents (usually a ``repro supervise``-managed
    fleet) execute the chunks through the ordinary runner registry;
    payload-carrying ``sample_eval`` jobs cross the spool via the
    ``events`` codec (:func:`~repro.runtime.jobs.spec_to_doc`).

    The submission then polls its own broker until the chunk resolves:
    one :meth:`~repro.runtime.dist.Broker.poll_once` in a worker thread
    per ``poll_s``, so the event loop never blocks on filesystem I/O.
    A submission that exits unresolved (timeout aside: cancelled, or
    woken by :meth:`aclose`) removes its spool files on the way out.

    The dispatcher itself holds no worker processes: point
    ``repro serve --dispatch broker --spool DIR`` and any number of
    ``repro worker --spool DIR`` agents at the same directory and the
    front end serves off the fleet.
    """

    name = "broker"

    def __init__(
        self,
        spool_dir: str | pathlib.Path,
        lease_ttl_s: float = 30.0,
        poll_s: float = 0.02,
        timeout: float | None = None,
    ) -> None:
        """Args:
            spool_dir: the shared spool directory the worker fleet
                watches (created if missing).
            lease_ttl_s: worker lease TTL per chunk; an expired lease
                requeues the chunk (dead-worker recovery).
            poll_s: how often a submission polls for its result.
            timeout: per-submission deadline in seconds; on expiry the
                outstanding jobs resolve as structured ``ok=False``
                failures (None = wait for the fleet forever).

        Raises:
            ValueError: non-positive ``lease_ttl_s``, ``poll_s`` or
                ``timeout``.
        """
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if poll_s <= 0:
            raise ValueError("poll_s must be positive")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.spool = pathlib.Path(spool_dir)
        self.lease_ttl_s = lease_ttl_s
        self.poll_s = poll_s
        self.timeout = timeout
        self._closed = asyncio.Event()
        self._in_flight = 0
        registry = obs.get_registry()
        self._m_batches = registry.counter(
            "repro_dispatch_batches_total",
            "Batches submitted through the dispatcher seam, by dispatcher.")
        self._g_in_flight = registry.gauge(
            "repro_dispatch_broker_in_flight",
            "Serve batches currently spooled and awaiting the fleet.")

    async def submit(self, specs: Iterable[JobSpec]) -> AsyncIterator[JobResult]:
        """Spool ``specs`` as one broker chunk and stream the fleet's
        results back in input order.

        The call returns results only when the fleet (or the retry
        machinery) has resolved every job — each job either carries its
        worker's value or a structured ``ok=False`` failure (exhausted
        retries, per-submission timeout).

        Raises:
            RuntimeError: the dispatcher is closed.
        """
        specs = list(specs)
        if not specs:
            return
        if self._closed.is_set():
            raise RuntimeError("dispatcher is closed")
        # A fresh broker per submission: a fresh run nonce, so chunk
        # ids never collide across a server's lifetime.
        broker = Broker(self.spool, lease_ttl_s=self.lease_ttl_s,
                        poll_s=self.poll_s)
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        results = None
        self._in_flight += 1
        self._g_in_flight.set(self._in_flight)
        try:
            await _off_loop(broker.submit, specs, len(specs))
            self._m_batches.inc(dispatcher=self.name)
            while not await _off_loop(broker.poll_once):
                if deadline is not None and time.monotonic() > deadline:
                    await _off_loop(
                        broker.fail_outstanding,
                        f"no fleet answer within {self.timeout:g}s "
                        f"(spool {self.spool})")
                    break
                try:
                    await asyncio.wait_for(self._closed.wait(), self.poll_s)
                except asyncio.TimeoutError:
                    continue
                raise RuntimeError("dispatcher is closed")
            results = broker.results_in_order()
        finally:
            self._in_flight -= 1
            self._g_in_flight.set(self._in_flight)
            if results is None:
                broker.close()
        for result in results:
            yield result

    async def aclose(self) -> None:
        """Close the dispatcher: new submissions are rejected, and every
        waiting one wakes at once, removes its spool files and raises
        ``RuntimeError``.  Safe to call more than once."""
        self._closed.set()

    def describe(self) -> dict:
        """Identity document: dispatcher, spool path and queue knobs."""
        return {
            "dispatcher": self.name,
            "spool": str(self.spool),
            "lease_ttl_s": self.lease_ttl_s,
            "max_attempts": DEFAULT_MAX_ATTEMPTS,
            "timeout": self.timeout,
        }


async def _off_loop(fn, *args):
    """Run blocking spool I/O in a worker thread.  On cancellation, wait
    for the thread to finish before re-raising (a thread cannot be
    interrupted), so the caller's cleanup never races a spool write."""
    hop = asyncio.ensure_future(asyncio.to_thread(fn, *args))
    try:
        return await asyncio.shield(hop)
    except asyncio.CancelledError:
        await asyncio.wait([hop])
        raise
