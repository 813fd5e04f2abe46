"""Async streaming serving front end over the execution backends.

Everything below :mod:`repro.runtime` up to here runs batch-to-
completion: a caller hands :func:`~repro.runtime.executor.run_jobs` a
finished job list and waits for the whole sweep.  This module turns
that engine into a *server*: requests arrive one at a time, are
coalesced into micro-batches, dispatched to any registered backend
without blocking the event loop, and streamed back **per job as each
completes** — not when the batch completes.

The pieces:

* :class:`AsyncServer` — the front end.  ``submit()`` answers one
  :class:`~repro.runtime.jobs.JobSpec`; ``stream()`` answers many as an
  async generator yielding each result the moment it is available.
  Cache hits are served straight from the
  :class:`~repro.runtime.store.ResultStore` (read inline on the event
  loop, no thread hop) without ever touching the execution plane;
  misses are queued, coalesced without a timer (`docs/ARCHITECTURE.md`,
  "Micro-batching") into batches of up to ``max_batch`` jobs, handed to a
  :class:`~repro.runtime.dispatch.Dispatcher` — the server does not
  know whether the batch runs in-process
  (:class:`~repro.runtime.dispatch.LocalDispatcher`) or on a
  supervised worker fleet through the spool broker
  (:class:`~repro.runtime.dispatch.BrokerDispatcher`).
* **admission control** — ``max_queue_depth`` bounds how many requests
  may wait for a batch slot; past it, :meth:`AsyncServer.submit` sheds
  the request with :exc:`ServerOverloadedError`, which the wire layer
  answers as a structured ``overloaded`` error instead of letting the
  queue grow without bound.
* **metrics** — every request, batch and latency sample is recorded
  once, in the process-wide :mod:`~repro.runtime.obs` registry
  (``repro_serve_requests_total`` by status, ``repro_serve_batches_total``,
  ``repro_serve_latency_seconds`` and the in-flight and queue-depth
  gauges).  :meth:`AsyncServer.stats` — the ``stats`` protocol op and
  the shutdown summary — reads its numbers back from those
  instruments, the same ones ``repro metrics`` and ``repro top``
  render, so the wire and the dashboard agree by construction.
* the **wire protocol** — line-delimited JSON over TCP
  (:func:`serve_tcp`) or stdio (:func:`serve_stdio`), fronted by the
  CLI's ``repro serve``.  A request names a payload-free job kind and
  its parameters; responses stream back tagged with the request ``id``
  as each job finishes, so one connection can keep many requests in
  flight — bounded by the connection's **credit window**
  (``conn_credits``): the pump stops reading a connection whose
  in-flight answers fill the window, pushing backpressure into the
  client's socket.  Protocol **v2** adds a ``hello`` handshake
  (``{"op": "hello", "proto": 2}``) that upgrades the connection to
  structured error codes (``overloaded | bad_request |
  backend_error``) and a ``health`` op returning per-SLO ok/burn-rate
  verdicts (:mod:`repro.runtime.slo`) for load-balancer checks; v1
  clients that never send ``hello`` get the original untagged error
  shape, unchanged.  ``sample_eval`` jobs
  carry live in-memory payloads and are not servable over this wire —
  use :meth:`AsyncServer.submit` in-process (the *spool* wire crosses
  them fine via the ``events`` codec).

Per-job failures stay *structured*: a raising runner comes back as an
``ok=False`` :class:`~repro.runtime.backends.JobResult` (the backend
contract), and a crashed execution plane is converted to one
``ok=False`` result per in-flight job — a client never sees a hung
request.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import sys
from dataclasses import dataclass

from . import obs
from .backends import JobResult
from .dispatch import Dispatcher, LocalDispatcher
from .jobs import (
    JobSpec,
    baseline_compare_job,
    dse_point_job,
    inference_energy_job,
)
from .store import ResultStore, _store_events

__all__ = [
    "AsyncServer",
    "ServerOverloadedError",
    "PROTO_VERSION",
    "WIRE_KINDS",
    "request_to_spec",
    "serve_tcp",
    "serve_stdio",
]

#: Highest wire-protocol version this server speaks.  Connections start
#: at v1 (the pre-handshake shape) and upgrade per connection via the
#: ``hello`` op; v2 adds structured ``code`` fields on error responses.
PROTO_VERSION = 2


class ServerOverloadedError(RuntimeError):
    """Raised by :meth:`AsyncServer.submit` when admission control sheds
    the request: the batch queue is already at ``max_queue_depth``.  The
    wire layer answers it as a structured ``overloaded`` error; direct
    callers should back off and retry."""

#: Wire-servable job kinds: payload-free spec factories keyed by the
#: ``kind`` field of a protocol request.  ``sample_eval`` is absent by
#: design — it needs live in-memory payloads (compiled programs, event
#: streams) that cannot be rebuilt from JSON parameters.
WIRE_KINDS = {
    "dse_point": dse_point_job,
    "inference_energy": inference_energy_job,
    "baseline_compare": baseline_compare_job,
}


def request_to_spec(request: dict) -> JobSpec:
    """Turn one protocol request document into a :class:`JobSpec`.

    Args:
        request: a decoded request line, e.g.
            ``{"id": "r1", "kind": "dse_point", "params": {"n_slices": 4}}``.

    Returns:
        The spec built by the matching :data:`WIRE_KINDS` factory.

    Raises:
        ValueError: unknown/missing ``kind``, non-dict ``params``, or
            parameters the factory rejects — everything a malformed
            client line can get wrong, so the protocol layer can answer
            with one structured error instead of crashing the server.
    """
    kind = request.get("kind")
    try:
        factory = WIRE_KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown job kind {kind!r}; servable kinds: {sorted(WIRE_KINDS)}"
        ) from None
    params = request.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"params must be an object, got {type(params).__name__}")
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad params for {kind!r}: {exc}") from None


@dataclass
class _Pending:
    """One queued request: its spec, the future its caller awaits, and
    the span context ambient at submit time (the batcher task has its
    own context, so the trace must ride the queue explicitly)."""

    spec: JobSpec
    future: asyncio.Future
    ctx: "obs.SpanContext | None" = None


#: Every ``status`` label of ``repro_serve_requests_total``; each
#: request that is no longer in flight has exactly one.
_STATUSES = ("cached", "ok", "failed", "rejected", "shed", "cancelled")

#: Queue sentinel that tells the batcher to drain and exit.
_CLOSE = object()


class AsyncServer:
    """Micro-batching asyncio front end over one execution plane.

    Requests enter through :meth:`submit` / :meth:`stream`.  A cache
    hit short-circuits straight back (one store read inline on the
    event loop, never touching the execution plane; on a network
    filesystem each lookup blocks the loop for that read).  Misses land
    on an internal queue — bounded by ``max_queue_depth``, past which
    admission control sheds with :exc:`ServerOverloadedError` — the
    batcher takes what is queued (:meth:`_batch_loop`, up to
    ``max_batch`` jobs), then hands
    the batch to the configured
    :class:`~repro.runtime.dispatch.Dispatcher` as a concurrent task:
    the event loop stays free, later batches don't wait for earlier
    ones, and each job's result resolves its caller the moment the
    execution plane delivers it.  Whether that plane is an in-process
    pool or a supervised worker fleet is the dispatcher's business, not
    the server's.

    Shutdown is graceful by contract: :meth:`aclose` rejects new
    submissions, drains every queued request through the normal
    dispatch path, and returns only when all in-flight work has been
    answered.  Use ``async with AsyncServer(...) as srv:`` to get that
    on every exit path.
    """

    def __init__(
        self,
        *,
        cache: ResultStore | None = None,
        max_batch: int = 32,
        dispatcher: Dispatcher | None = None,
        max_queue_depth: int | None = None,
        conn_credits: int = 64,
        slo_rules: list | None = None,
    ) -> None:
        """All arguments are keyword-only.

        Args:
            cache: optional read-through/write-through result store.
            max_batch: dispatch as soon as this many requests coalesced.
            dispatcher: the execution plane
                (:class:`~repro.runtime.dispatch.Dispatcher`).  Default:
                a ``LocalDispatcher`` over the ``thread`` backend —
                serving is latency-bound, not throughput-bound.
            max_queue_depth: admission-control bound on requests waiting
                for a batch slot; past it :meth:`submit` raises
                :exc:`ServerOverloadedError` (None = unbounded, the
                pre-v2 behaviour).
            conn_credits: per-connection in-flight window for the wire
                transports — a connection with this many unanswered
                requests stops being read until answers drain.
            slo_rules: :class:`~repro.runtime.slo.SLORule` list backing
                the wire protocol's ``health`` op (None = the built-in
                :func:`~repro.runtime.slo.default_rules`).

        Raises:
            ValueError: non-positive ``max_batch``, ``max_queue_depth``
                or ``conn_credits``.
        """
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if conn_credits < 1:
            raise ValueError("conn_credits must be positive")
        self.dispatcher = (
            dispatcher if dispatcher is not None else LocalDispatcher("thread"))
        self.cache = cache
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        self.conn_credits = conn_credits
        self.slo_rules = slo_rules
        self._queue: asyncio.Queue = asyncio.Queue()
        self._batcher: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()
        self._closing = False
        registry = obs.get_registry()
        self._m_requests = registry.counter(
            "repro_serve_requests_total",
            ("Serve requests by kind and status (cached, ok, failed, rejected, "
             "shed, cancelled)."))
        self._m_batches = registry.counter(
            "repro_serve_batches_total", "Micro-batches dispatched.")
        self._m_latency = registry.histogram(
            "repro_serve_latency_seconds",
            "End-to-end request latency, cache hits included.")
        self._g_in_flight = registry.gauge(
            "repro_serve_in_flight", "Requests currently being answered.")
        self._g_queue_depth = registry.gauge(
            "repro_serve_queue_depth", "Requests waiting for a batch slot.")
        self._m_store = _store_events()
        self._baseline = self._totals()

    # -- lifecycle --------------------------------------------------------
    async def __aenter__(self) -> "AsyncServer":
        """Start the batcher; the server accepts requests on entry."""
        self._ensure_batcher()
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Drain and close on scope exit, whatever the exit path."""
        await self.aclose()

    def _ensure_batcher(self) -> None:
        if self._batcher is None:
            self._batcher = asyncio.get_running_loop().create_task(self._batch_loop())

    @property
    def closed(self) -> bool:
        """True once :meth:`aclose` has begun; submissions are rejected."""
        return self._closing

    async def aclose(self) -> None:
        """Stop accepting work, drain in-flight requests, shut down.

        Every request accepted before the close is answered through the
        normal micro-batch path; only then does this return.  Safe to
        call more than once.
        """
        if self._closing:
            # A concurrent second closer still waits for the drain.
            if self._batcher is not None:
                with contextlib.suppress(asyncio.CancelledError):
                    await asyncio.shield(self._batcher)
            await self._drain_dispatches()
            return
        self._closing = True
        if self._batcher is not None:
            self._queue.put_nowait(_CLOSE)
            await self._batcher
        await self._drain_dispatches()
        obs.flush_metrics()

    async def _drain_dispatches(self) -> None:
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches), return_exceptions=True)

    # -- request paths ----------------------------------------------------
    async def submit(self, spec: JobSpec) -> JobResult:
        """Answer one job: cache hit, or micro-batched computation.

        Args:
            spec: the job to answer (any kind with a registered runner;
                ``sample_eval`` payload-carrying specs are fine here —
                only the *wire* protocol excludes them).

        Returns:
            The structured :class:`JobResult` — ``ok=False`` results
            carry the failure, they are never raised.

        Raises:
            ServerOverloadedError: admission control shed the request —
                the batch queue is already at ``max_queue_depth``.
            RuntimeError: the server is closed (or closes before the
                request could be queued).
        """
        if self._closing:
            self._m_requests.inc(kind=spec.kind, status="rejected")
            raise RuntimeError("server is closed")
        self._ensure_batcher()
        loop = asyncio.get_running_loop()
        start = loop.time()
        self._g_in_flight.add(1)
        try:
            # The lookup never suspends (`ResultStore.aget` reads on the
            # loop), so the close check above still holds at the enqueue.
            hit = None if self.cache is None else await self.cache.aget(spec)
            if hit is not None:
                self._m_requests.inc(kind=spec.kind, status="cached")
                self._m_latency.observe(loop.time() - start)
                return hit
            if (self.max_queue_depth is not None
                    and self._queue.qsize() >= self.max_queue_depth):
                self._m_requests.inc(kind=spec.kind, status="shed")
                raise ServerOverloadedError(
                    f"queue depth {self._queue.qsize()} at max_queue_depth="
                    f"{self.max_queue_depth}; retry with backoff")
            pending = _Pending(spec=spec, future=loop.create_future(),
                               ctx=obs.current_span())
            self._queue.put_nowait(pending)  # same loop step as the check
            self._set_queue_depth()
            result: JobResult = await pending.future
            self._m_requests.inc(kind=spec.kind,
                                 status="ok" if result.ok else "failed")
            self._m_latency.observe(loop.time() - start)
            return result
        except asyncio.CancelledError:
            self._m_requests.inc(kind=spec.kind, status="cancelled")
            raise
        finally:
            self._g_in_flight.add(-1)

    async def stream(self, specs: list[JobSpec]):
        """Answer many jobs, yielding each result as soon as it exists.

        All specs are submitted up front (so they coalesce into shared
        micro-batches); results are yielded **in input order**, each
        the moment it is available — the head of the stream arrives
        while the tail is still computing.

        Args:
            specs: jobs to answer, in the order results should stream.

        Yields:
            ``(index, JobResult)`` pairs in input order.

        Raises:
            RuntimeError: the server is closed.
        """
        tasks = [asyncio.ensure_future(self.submit(spec)) for spec in specs]
        try:
            for i, task in enumerate(tasks):
                yield i, await task
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    def _set_queue_depth(self) -> None:
        """Publish the live queue depth on the process-wide
        ``repro_serve_queue_depth`` gauge (read by the ``stats`` op and
        ``repro top`` alike)."""
        self._g_queue_depth.set(self._queue.qsize())

    # -- batching ---------------------------------------------------------
    async def _batch_loop(self) -> None:
        """Coalesce queued requests into micro-batches and dispatch.

        A batch takes what is queued when the batcher wakes, up to
        ``max_batch`` (`docs/ARCHITECTURE.md`, "Micro-batching"); there
        is no timer.  Requests submitted in one loop turn are all queued
        by then, since a lookup never suspends.  Dispatch is a
        fire-and-forget task, so collection of the next batch overlaps
        execution of the previous one.
        """
        draining = False
        while not draining:
            item = await self._queue.get()
            if item is _CLOSE:
                break
            batch = [item]
            while len(batch) < self.max_batch and not self._queue.empty():
                nxt = self._queue.get_nowait()
                if nxt is _CLOSE:
                    draining = True
                    break
                batch.append(nxt)
            self._set_queue_depth()
            task = asyncio.create_task(self._run_batch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        """Execute one micro-batch through the dispatcher, resolving
        each caller as the execution plane delivers its job (never at
        batch end), writing fresh successes through to the cache."""
        self._m_batches.inc()
        delivered = 0
        # Re-adopt the submitter's span so a broker dispatch journals
        # its chunk under the request's trace (the batcher task was
        # spawned outside any request context).  Only an unambiguous
        # single-request batch can be attributed; a coalesced batch
        # fans many traces into one dispatch, so it stays parentless.
        trace_ctx = batch[0].ctx if len(batch) == 1 else None
        try:
            # The activate() spans the whole iteration: an async
            # generator runs its body inside each __anext__, so the
            # dispatcher's journal emits only see the adopted span
            # while we are actively pulling from it.
            with obs.activate(trace_ctx):
                async for result in self.dispatcher.submit(
                        [p.spec for p in batch]):
                    pending = batch[delivered]
                    # Write-through completes *before* the caller is
                    # resolved: a client that re-asks the question it
                    # just had answered must hit the store
                    # (read-your-writes).  The cost is that one entry
                    # write sits on the latency path of this and later
                    # results in the batch.  A failed write costs only
                    # the cached copy (the store counts it as put_error).
                    if self.cache is not None:
                        await self.cache.aput(pending.spec, result)
                    if not pending.future.done():
                        pending.future.set_result(result)
                    # Count a request delivered only once its future is
                    # resolved, so an exception anywhere above still
                    # sweeps it into the structured-error path below —
                    # a request must never be left hanging.
                    delivered += 1
        except Exception as exc:  # plane-level crash, not a job failure
            plane = self.stats_backend_name()
            error = f"backend {plane} crashed: {exc!r}"
            for pending in batch[delivered:]:
                if not pending.future.done():
                    pending.future.set_result(
                        JobResult(
                            job_hash=pending.spec.job_hash,
                            kind=pending.spec.kind,
                            ok=False,
                            value=None,
                            error=error,
                            duration_s=0.0,
                        )
                    )

    # -- reporting --------------------------------------------------------
    def stats_backend_name(self) -> str:
        """The execution-plane identity reported to clients: the local
        backend's registry name, or the dispatcher's own name when the
        plane is remote (``"broker"``)."""
        desc = self.dispatcher.describe()
        return desc.get("backend", self.dispatcher.name)

    def _totals(self) -> collections.Counter:
        """Cumulative readings of this server's registry counters:
        requests by status, batches, cache write errors and the latency
        histogram's per-bucket counts, sum and count."""
        totals = collections.Counter(
            batches=self._m_batches.total(),
            cache_errors=self._m_store.value(op="put_error"))
        for rec in self._m_requests._snapshot_series():
            totals[rec["labels"].get("status")] += rec["value"]
        for rec in self._m_latency._snapshot_series():
            totals["latency_sum"] += rec["sum"]
            totals["latency_count"] += rec["count"]
            for i, n in enumerate(rec["counts"]):
                totals[i] += n
        return totals

    def stats(self) -> dict:
        """The server's counters plus execution-plane/cache identity —
        the document the protocol's ``stats`` op returns.

        Every number is read from the obs registry.  The registry is
        process-wide, so counters and the latency histogram report
        their growth since this server was constructed; the
        ``in_flight`` and ``queue_depth`` gauges are read as they
        stand (the same values ``repro top`` renders).  ``requests``
        is every request ended with a status plus those in flight, so
        once the server is idle it equals the growth of
        ``repro_serve_requests_total``.  ``computed`` (equal to
        ``dispatched``) counts requests answered by the execution
        plane, ``ok`` or ``failed``.  Latency percentiles resolve to
        the histogram's bucket bounds.
        """
        n = self._totals()
        n.subtract(self._baseline)
        in_flight = int(self._g_in_flight.value())
        requests = int(sum(n[s] for s in _STATUSES)) + in_flight
        hits = int(n["cached"])
        computed = int(n["ok"] + n["failed"])
        batches = int(n["batches"])
        buckets = self._m_latency.buckets
        counts = [n[i] for i in range(len(buckets))]
        count = int(n["latency_count"])
        desc = self.dispatcher.describe()
        return {
            "requests": requests,
            "in_flight": in_flight,
            "queue_depth": int(self._g_queue_depth.value()),
            "batches": batches,
            "dispatched": computed,
            "mean_batch": computed / batches if batches else 0.0,
            "cache_hits": hits,
            "computed": computed,
            "failures": int(n["failed"]),
            "cache_errors": int(n["cache_errors"]),
            "rejected": int(n["rejected"]),
            "shed": int(n["shed"]),
            "cache_hit_ratio": hits / requests if requests else 0.0,
            "latency": {
                "count": count,
                "mean_s": n["latency_sum"] / count if count else 0.0,
                "p50_s": obs.quantile_from_counts(buckets, counts, count, 50)[0],
                "p99_s": obs.quantile_from_counts(buckets, counts, count, 99)[0],
            },
            "dispatcher": desc,
            "backend": desc.get("backend", self.dispatcher.name),
            "workers": desc.get("workers", 0),
            "max_batch": self.max_batch,
            "max_queue_depth": self.max_queue_depth,
            "proto": PROTO_VERSION,
            "cache": None if self.cache is None else str(self.cache.root),
        }


# -- wire protocol ----------------------------------------------------------

@dataclass
class _ConnState:
    """Per-connection protocol state: the negotiated wire version
    (starts at 1; the ``hello`` op can raise it) and the credit
    semaphore bounding this connection's in-flight answers."""

    proto: int = 1
    credits: asyncio.Semaphore | None = None


def _error_response(rid, error: str, code: str, conn: _ConnState | None) -> dict:
    """One structured error line; the machine-readable ``code``
    (``overloaded | bad_request | backend_error``) is attached only on
    connections that negotiated protocol v2, so v1 clients see the
    original shape unchanged."""
    doc = {"id": rid, "ok": False, "error": error}
    if conn is not None and conn.proto >= 2:
        doc["code"] = code
    return doc


def _result_response(rid, result: JobResult, conn: _ConnState | None = None) -> dict:
    """One per-job response line; v2 connections get a ``code`` of
    ``backend_error`` on ``ok=False`` results."""
    doc = {
        "id": rid,
        "ok": result.ok,
        "cached": result.cached,
        "job_hash": result.job_hash,
        "kind": result.kind,
        "duration_s": result.duration_s,
        "value": result.value,
        "error": result.error,
    }
    if not result.ok and conn is not None and conn.proto >= 2:
        doc["code"] = "backend_error"
    return doc


async def _answer_hello(server: AsyncServer, request: dict, send,
                        conn: _ConnState) -> None:
    """Handle the v2 ``hello`` handshake **synchronously in the pump**
    (never as a concurrent task), so the negotiated version is already
    in force for every request line that follows it on the connection.

    The negotiated version is ``min(requested, PROTO_VERSION)``, never
    below 1 — a v3 client degrades to v2, and a malformed ``proto``
    is a plain bad request that leaves the connection at its current
    version.
    """
    rid = request.get("id")
    requested = request.get("proto", 1)
    if not isinstance(requested, int) or isinstance(requested, bool) or requested < 1:
        await send(_error_response(
            rid, f"bad request: proto must be a positive integer, "
                 f"got {requested!r}", "bad_request", conn))
        return
    conn.proto = min(requested, PROTO_VERSION)
    await send({"id": rid, "ok": True, "proto": conn.proto,
                "server_proto": PROTO_VERSION,
                "dispatcher": server.dispatcher.name})


async def _evaluate_health(server: AsyncServer) -> dict:
    """The ``health`` op's document: per-SLO verdicts + one bit.

    Evaluates the server's rules (or the defaults) against the
    observability directory's journal and merged registry — both read
    off the event loop.  Without an obs dir, only the in-process
    registry is available; journal-backed rules then report no data,
    which counts as healthy.
    """
    from . import slo as slo_mod
    from pathlib import Path as _Path

    rules = (server.slo_rules if server.slo_rules is not None
             else slo_mod.default_rules())
    target = obs.obs_dir()
    events: list = []
    registry = obs.get_registry()
    if target is not None:
        journal = _Path(target) / "journal.ndjson"
        if journal.exists():
            events = await asyncio.to_thread(obs.read_journal, journal)
        registry = await asyncio.to_thread(obs.read_metrics, target)
    statuses = slo_mod.evaluate_slos(rules, events=events, registry=registry)
    return {"healthy": all(s.ok for s in statuses),
            "slos": [s.to_doc() for s in statuses]}


async def _answer_line(server: AsyncServer, line: bytes | str, send,
                       conn: _ConnState | None = None) -> None:
    """Answer one request line through ``send`` (an async callable).

    Protocol errors (bad JSON, unknown kind, bad params, server closed,
    admission-control shed) become structured ``{"ok": false, "error":
    ...}`` responses on the same connection — tagged with a ``code`` on
    v2 connections — so a malformed line or an overload never kills the
    server or the connection.
    """
    rid = None
    try:
        request = json.loads(line)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        rid = request.get("id")
        op = request.get("op")
        if op == "hello":
            # Normally intercepted by the pump; answered here too so
            # direct _answer_line callers (stdio tests) still work.
            await _answer_hello(server, request, send,
                                conn if conn is not None else _ConnState())
            return
        if op == "ping":
            await send({"id": rid, "ok": True, "pong": True})
            return
        if op == "stats":
            await send({"id": rid, "ok": True, "stats": server.stats()})
            return
        if op == "metrics":
            # Prometheus text exposition of the process-wide registry —
            # the same registry `repro metrics` and `repro top` read.
            await send({"id": rid, "ok": True,
                        "content_type": "text/plain; version=0.0.4",
                        "metrics": obs.get_registry().render_prometheus()})
            return
        if op == "health":
            # Per-SLO burn-rate verdicts for load-balancer checks: a
            # fresh server with no traffic reports healthy (empty
            # windows are skipped, not breached).
            await send({"id": rid, "ok": True,
                        "health": await _evaluate_health(server)})
            return
        if op is not None:
            raise ValueError(
                f"unknown op {op!r}; ops: hello, ping, stats, metrics, "
                "health")
        spec = request_to_spec(request)
    except (ValueError, RecursionError) as exc:
        await send(_error_response(rid, f"bad request: {exc}",
                                   "bad_request", conn))
        return
    try:
        with obs.span("serve.request", kind=spec.kind) as ctx:
            result = await server.submit(spec)
    except ServerOverloadedError as exc:
        await send(_error_response(rid, f"overloaded: {exc}",
                                   "overloaded", conn))
        return
    except RuntimeError as exc:
        # Closing/closed server: retryable from the client's seat, so
        # v2 tags it overloaded as well.
        await send(_error_response(rid, str(exc), "overloaded", conn))
        return
    response = _result_response(rid, result, conn)
    if obs.get_journal() is not None:
        # Close the trace loop for journaled deployments: the client
        # can correlate its answer with the server-side span events.
        response["trace_id"] = ctx.trace_id
    await send(response)


def _parse_hello(line: bytes | str) -> dict | None:
    """The pump's cheap peek: the decoded request if this line is a
    well-formed ``hello`` op, else None (the line goes down the normal
    concurrent path, which re-reports any JSON error properly).

    Only a line that spells ``hello`` is decoded here, so a job request
    is decoded once, by :func:`_answer_line`.  A ``hello`` written with
    JSON escapes is still answered there, just not inline.
    """
    if (b"hello" if isinstance(line, bytes) else "hello") not in line:
        return None
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if isinstance(doc, dict) and doc.get("op") == "hello":
        return doc
    return None


async def _serve_lines(server: AsyncServer, readline, send) -> None:
    """The protocol pump shared by every transport: read request lines
    until EOF, answer each in its own task (so responses stream back in
    *completion* order, tagged by request id), then drain.

    Two protocol duties live in the pump itself rather than in answer
    tasks:

    * ``hello`` handshakes are answered inline, so version negotiation
      can never race the request lines that follow it;
    * each answer task costs one **credit** from the connection's
      ``server.conn_credits`` window, acquired *before* the next read —
      a connection with a full window stops being read, and the
      backpressure lands in the client's socket instead of in server
      memory.

    Args:
        server: the :class:`AsyncServer` answering requests.
        readline: async callable returning the next line (bytes or
            str), falsy at EOF.
        send: async callable writing one response document; must emit
            whole lines (callers guard it with a lock).

    On EOF every in-flight answer task is awaited; if the transport
    errors out instead, pending tasks are cancelled and the error
    propagates to the caller.
    """
    conn = _ConnState(credits=asyncio.Semaphore(server.conn_credits))
    tasks: set[asyncio.Task] = set()
    try:
        while True:
            line = await readline()
            if not line:
                break
            if not line.strip():
                continue
            hello = _parse_hello(line)
            if hello is not None:
                await _answer_hello(server, hello, send, conn)
                continue
            await conn.credits.acquire()
            task = asyncio.ensure_future(_answer_line(server, line, send, conn))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            task.add_done_callback(lambda _t: conn.credits.release())
        while tasks:
            await asyncio.gather(*list(tasks), return_exceptions=True)
    except BaseException:
        for task in tasks:
            task.cancel()
        raise


async def _handle_connection(
    server: AsyncServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One TCP client on the shared protocol pump."""
    lock = asyncio.Lock()

    async def send(obj: dict) -> None:
        async with lock:  # whole lines only, even with many in flight
            writer.write(json.dumps(obj).encode() + b"\n")
            await writer.drain()

    try:
        await _serve_lines(server, reader.readline, send)
    except (ConnectionResetError, BrokenPipeError):
        pass  # client went away; in-flight jobs still complete server-side
    finally:
        with contextlib.suppress(OSError, ConnectionResetError):
            writer.close()
            await writer.wait_closed()


async def serve_tcp(
    server: AsyncServer, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose ``server`` over TCP with the line-delimited JSON protocol.

    Args:
        server: the :class:`AsyncServer` answering requests.
        host: bind address (loopback by default — this protocol has no
            authentication, so binding wider is an explicit choice).
        port: TCP port; 0 picks an ephemeral one (read it back from
            ``sockets[0].getsockname()``).

    Returns:
        The listening :class:`asyncio.AbstractServer`; the caller owns
        its lifetime (``async with tcp: await tcp.serve_forever()``).
    """
    server._ensure_batcher()
    return await asyncio.start_server(
        lambda r, w: _handle_connection(server, r, w), host, port
    )


async def serve_stdio(server: AsyncServer, stdin=None, stdout=None) -> None:
    """Serve the same protocol over stdio until EOF, then drain.

    Reads request lines from ``stdin`` (a blocking file object, read in
    a worker thread so the loop never blocks), streams responses to
    ``stdout``, and closes the server gracefully when input ends —
    the shape ``repro serve --stdio`` and subprocess-driven tests use.

    Args:
        server: the :class:`AsyncServer` answering requests.
        stdin: readable text file (default ``sys.stdin``).
        stdout: writable text file (default ``sys.stdout``).
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    lock = asyncio.Lock()

    async def send(obj: dict) -> None:
        async with lock:
            stdout.write(json.dumps(obj) + "\n")
            stdout.flush()

    def readline():
        return asyncio.to_thread(stdin.readline)

    try:
        await _serve_lines(server, readline, send)
    finally:
        # Runs on EOF *and* on cancellation (Ctrl-C): drain what was
        # accepted and flush the store's counters.  Note a cancelled
        # readline leaves its worker thread blocked on stdin until the
        # process exits — an asyncio.to_thread limitation.
        await server.aclose()
