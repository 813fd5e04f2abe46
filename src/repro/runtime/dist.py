"""Distributed work queue: broker, workers and the ``cluster`` backend.

This module turns the single-machine runtime into a fleet.  Three
pieces cooperate through a *spool directory* — a durable, filesystem
-backed work queue any number of machines can share (NFS, a bind
mount, or just ``/tmp`` for a local fleet):

* :class:`Broker` — owned by the submitting process.  It splits a job
  list into hashed chunks, writes them into the spool, then collects
  chunk results as workers land them, **re-queueing** any chunk whose
  worker lease expired (crashed or SIGKILLed worker) and converting
  unrecoverable chunks into structured ``ok=False`` results — the same
  failure semantics as :mod:`repro.runtime.backends`.
* :func:`worker_loop` / ``repro worker`` — the pull agent.  It claims
  chunks with an atomic lease file, heartbeats the lease while
  executing each job through the existing runner registry
  (:func:`repro.runtime.jobs.execute_job`), optionally short-circuits
  and write-throughs the shared content-addressed
  :class:`~repro.runtime.store.ResultStore`, and writes one ordered
  result file per chunk.
* :class:`ClusterBackend` — registered as ``cluster`` in the backend
  registry.  ``run()`` spools the specs, spawns (or attaches to) the
  workers, and returns ordered, bit-identical
  :class:`~repro.runtime.backends.JobResult` lists, so
  ``tests/test_backend_parity.py`` holds it to the exact contract the
  in-process backends obey.

Spool layout (all writes atomic: temp file + ``os.replace``, claims
via ``O_CREAT | O_EXCL``)::

    spool/
    ├── chunks/   <chunk_id>.chunk   # pending work units
    ├── claims/   <chunk_id>.claim   # worker leases (JSON, wall-clock expiry)
    └── results/  <chunk_id>.json    # ordered result records per chunk

Chunks are JSON documents of per-spec codec docs
(:func:`~repro.runtime.jobs.spec_to_doc`): payload-free specs encode as
``codec: "json"``, ``sample_eval`` payloads cross as ``codec:
"events"`` (base64 arrays — portable and inspectable, what lets the
serving front end put payload jobs on a remote fleet).  A payload kind
with no codec is refused at :meth:`Broker.submit`.  Nothing read from
the spool is ever unpickled: a spool is shared state, so a chunk file
must not be able to run code in the workers that read it.

Crash safety rests on idempotence: equal job hash ⇒ equal result, so
a lease takeover that races a slow-but-alive worker merely computes
the same chunk twice and the atomic result replace keeps whichever
landed last — never a torn or mixed file.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import socket
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass

from . import obs
from ._fsutil import atomic_write_bytes, read_file, write_temp
from .backends import JobResult, _execute_one, register_backend
from .jobs import JobSpec, spec_from_doc, spec_to_doc

__all__ = [
    "DIST_SCHEMA",
    "DistError",
    "Broker",
    "ClusterBackend",
    "worker_loop",
    "claim_chunk",
    "claim_state",
    "release_claim",
    "write_chunk_result",
]

#: Version stamp on every chunk, claim and result envelope; a spool
#: written by a different schema reads as corrupt, never as wrong work.
DIST_SCHEMA = 1

#: A broker's default per-chunk retry budget.
DEFAULT_MAX_ATTEMPTS = 3

#: Subdirectories making up a spool.
_SPOOL_DIRS = ("chunks", "claims", "results")


class DistError(RuntimeError):
    """An unrecoverable distributed-execution failure (dead fleet,
    exhausted retries at the broker level).  Per-job failures never
    raise this — they come back as structured ``ok=False`` results."""


def _spool_dirs(spool: pathlib.Path) -> tuple[pathlib.Path, pathlib.Path, pathlib.Path]:
    """Create (if needed) and return the spool's three subdirectories."""
    dirs = tuple(spool / name for name in _SPOOL_DIRS)
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    return dirs


#: The spool's atomic-write primitive (shared with the store entries).
_atomic_write = atomic_write_bytes


def _default_worker_id() -> str:
    """hostname-pid-nonce: unique per agent, readable in claim files."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


# -- chunk encoding ---------------------------------------------------------

def _encode_chunk(chunk_id: str, index: int, specs: list[JobSpec],
                  trace: obs.SpanContext | None = None) -> bytes:
    """Serialise one chunk as a JSON document of per-spec codec docs.

    :func:`~repro.runtime.jobs.spec_to_doc` picks the codec per spec:
    ``json`` for payload-free specs and ``events`` for ``sample_eval``
    payloads (base64 event arrays — wire-portable); a payload kind with
    no codec raises ``ValueError``.

    ``trace`` embeds the chunk's span context in the document, so every
    worker attempt — including a requeue after a SIGKILL, which reuses
    the chunk's original context — executes under one trace.
    """
    doc = {
        "schema": DIST_SCHEMA,
        "chunk": chunk_id,
        "index": index,
        "jobs": [spec_to_doc(s) for s in specs],
    }
    if trace is not None:
        doc["trace"] = trace.to_doc()
    return json.dumps(doc).encode()


def _decode_chunk(data: bytes) -> tuple[list[JobSpec], obs.SpanContext | None]:
    """Decode a chunk file back into ``(ordered specs, trace context)``.

    The trace context is ``None`` for chunks written without one.
    Raises ``ValueError`` on any corruption (truncated write, hand
    edits, schema drift) — the worker converts that into a structured
    chunk-level failure instead of crashing.
    """
    try:
        doc = json.loads(data.decode())
        specs = [spec_from_doc(j) for j in doc["jobs"]]
    except Exception as exc:  # json/KeyError/... → one corruption shape
        raise ValueError(f"corrupt spool chunk: {type(exc).__name__}: {exc}") from exc
    if doc.get("schema") != DIST_SCHEMA:
        raise ValueError(
            f"corrupt spool chunk: unsupported schema {doc.get('schema')!r}"
        )
    if not isinstance(specs, list) or not all(isinstance(s, JobSpec) for s in specs):
        raise ValueError("corrupt spool chunk: no spec list")
    return specs, obs.SpanContext.from_doc(doc.get("trace"))


def _chunk_digest(specs: list[JobSpec]) -> str:
    """Content digest of a chunk: the hash of its member job hashes."""
    h = hashlib.sha256()
    for s in specs:
        h.update(s.job_hash.encode())
    return h.hexdigest()[:12]


# -- claims (leases) --------------------------------------------------------

def _claim_path(spool: pathlib.Path, chunk_id: str) -> pathlib.Path:
    return spool / "claims" / f"{chunk_id}.claim"


def _claim_doc(worker_id: str, lease_ttl_s: float, clock=None) -> bytes:
    now = (clock or time.time)()
    return json.dumps(
        {
            "schema": DIST_SCHEMA,
            "worker": worker_id,
            "pid": os.getpid(),
            "claimed_at": now,
            "expires": now + lease_ttl_s,
        }
    ).encode()


def claim_state(spool: str | os.PathLike, chunk_id: str,
                clock=None) -> tuple[str, dict | None]:
    """Classify ``chunk_id``'s claim: ``(state, doc)``.

    ``state`` is one of ``"missing"`` (no claim file), ``"live"``
    (unexpired lease, ``doc`` is the claim), ``"expired"`` (lease
    outlived its TTL, ``doc`` is the claim) or ``"corrupt"`` (the file
    exists but does not decode to a claim document).  A corrupt claim
    is never in-flight: claims appear atomically via ``os.link`` of a
    fully written temp file, so torn bytes mean a writer died mid
    -replace — the lease is dead, not pending.  ``clock`` overrides the
    wall clock used for the expiry comparison (tests).
    """
    path = _claim_path(pathlib.Path(spool), chunk_id)
    try:
        data = read_file(path)
    except OSError:
        return "missing", None
    try:
        doc = json.loads(data)
    except ValueError:
        return "corrupt", None
    if not isinstance(doc, dict) or not isinstance(doc.get("expires"), (int, float)):
        return "corrupt", None
    now = (clock or time.time)()
    return ("live" if doc["expires"] > now else "expired"), doc


def claim_chunk(
    spool: str | os.PathLike,
    chunk_id: str,
    worker_id: str,
    lease_ttl_s: float,
    clock=None,
) -> bool:
    """Try to lease ``chunk_id`` for ``worker_id``; True on success.

    The claim lands as an ``os.link`` of a fully written temp file, so
    it appears atomically *with its content* and exactly one of any
    number of racing workers wins (the link fails with ``EEXIST`` for
    everyone else) — a reader can never observe a half-written lease.
    An *expired* existing claim (dead worker) — or a *corrupt* one
    (torn bytes from a writer that died mid-replace) — is taken over
    with an atomic replace; if two workers race that takeover both may
    briefly hold the lease, which is safe — results are idempotent by
    the equal-hash ⇒ equal-result contract and land via atomic
    replace.  ``clock`` overrides the wall clock used for lease stamps
    and expiry checks (tests).
    """
    spool = pathlib.Path(spool)
    path = _claim_path(spool, chunk_id)
    tmp = write_temp(path.parent, _claim_doc(worker_id, lease_ttl_s, clock=clock))
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        state, _ = claim_state(spool, chunk_id, clock=clock)
        if state == "live":
            return False  # live lease held by someone else
        # Expired (or corrupt) lease: take it over atomically.
        try:
            os.replace(tmp, path)
        except OSError:
            return False
        tmp = None  # consumed by the replace
        return True
    except OSError:
        return False
    finally:
        if tmp is not None:
            pathlib.Path(tmp).unlink(missing_ok=True)


def release_claim(spool: str | os.PathLike, chunk_id: str) -> None:
    """Drop the lease on ``chunk_id`` (missing-ok)."""
    _claim_path(pathlib.Path(spool), chunk_id).unlink(missing_ok=True)


class _Heartbeat:
    """Background lease refresher: rewrites the claim at ttl/3 cadence
    while the worker executes, so a healthy-but-slow chunk is never
    requeued under its worker.  ``clock`` overrides the wall clock the
    refreshed lease stamps carry (tests)."""

    def __init__(self, spool: pathlib.Path, chunk_id: str, worker_id: str,
                 lease_ttl_s: float, clock=None) -> None:
        self._spool = spool
        self._chunk_id = chunk_id
        self._worker_id = worker_id
        self._ttl = lease_ttl_s
        self._clock = clock
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._ttl / 3.0):
            try:
                _atomic_write(
                    _claim_path(self._spool, self._chunk_id),
                    _claim_doc(self._worker_id, self._ttl, clock=self._clock),
                )
            except OSError:
                pass  # an unwritable spool costs lease freshness only
            else:
                obs.get_registry().counter(
                    "repro_worker_heartbeats_total",
                    "Lease refreshes written by workers.").inc(
                        worker=self._worker_id)
                obs.emit("worker.heartbeat", worker=self._worker_id,
                         chunk=self._chunk_id)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# -- results ----------------------------------------------------------------

def _result_path(spool: pathlib.Path, chunk_id: str) -> pathlib.Path:
    return spool / "results" / f"{chunk_id}.json"


def _record_to_result(record: dict) -> JobResult:
    return JobResult(
        job_hash=record["job_hash"],
        kind=record["kind"],
        ok=bool(record["ok"]),
        value=record["value"],
        error=record["error"],
        duration_s=float(record["duration_s"]),
        cached=bool(record.get("cached", False)),
    )


def write_chunk_result(
    spool: str | os.PathLike,
    chunk_id: str,
    worker_id: str,
    records: list[dict] | None = None,
    chunk_error: str | None = None,
    obs_doc: dict | None = None,
) -> None:
    """Atomically publish one chunk's outcome into the spool.

    Either ``records`` (one ordered dict per job, the
    :class:`~repro.runtime.backends.JobResult` fields) or
    ``chunk_error`` (a chunk-level failure such as a corrupt chunk
    file, which the broker expands into per-job structured failures).
    ``obs_doc`` optionally piggybacks the worker's chunk metrics —
    ``{"metrics": <snapshot>}`` — which the broker merges on ingest;
    old brokers ignore the extra key.
    """
    doc: dict = {"schema": DIST_SCHEMA, "chunk": chunk_id, "worker": worker_id}
    if chunk_error is not None:
        doc["chunk_error"] = chunk_error
    else:
        doc["records"] = records or []
    if obs_doc:
        doc["obs"] = obs_doc
    _atomic_write(_result_path(pathlib.Path(spool), chunk_id), json.dumps(doc).encode())


# -- worker -----------------------------------------------------------------

def _pending_chunks(spool: pathlib.Path) -> list[pathlib.Path]:
    """Chunk files with no published result yet, oldest run first."""
    out = []
    for path in sorted((spool / "chunks").glob("*.chunk")):
        if not _result_path(spool, path.stem).exists():
            out.append(path)
    return out


def worker_loop(
    spool_dir: str | os.PathLike,
    worker_id: str | None = None,
    store=None,
    poll_s: float = 0.1,
    lease_ttl_s: float = 30.0,
    drain: bool = False,
    max_chunks: int | None = None,
    stop: threading.Event | None = None,
    on_chunk=None,
    clock=None,
) -> int:
    """Pull-execute-publish loop: the body of ``repro worker``.

    Scans the spool for unleased chunks, claims one atomically,
    executes its jobs in order through the runner registry (with
    ``store`` read/write-through when given), and publishes the ordered
    result file.  Runs until ``stop`` is set, ``max_chunks`` chunks
    have been processed, or — with ``drain=True`` — the spool has no
    unfinished chunks left.

    Args:
        spool_dir: the shared spool directory.
        worker_id: lease owner name (default ``host-pid-nonce``).
        store: optional :class:`~repro.runtime.store.ResultStore` to
            short-circuit hits from and write fresh successes into.
        poll_s: sleep between empty scans.
        lease_ttl_s: claim lifetime; heartbeats refresh it at ttl/3.
        drain: exit once no unfinished chunk remains (a batch agent);
            False keeps the agent polling forever (a fleet daemon).
        max_chunks: stop after this many chunks (None = unbounded).
        stop: optional event that ends the loop from another thread.
        on_chunk: optional callback ``(chunk_id, n_jobs, elapsed_s)``
            fired after each published chunk.
        clock: optional wall-clock override for lease stamps and
            expiry checks (tests; default ``time.time``).

    Returns:
        The number of chunks this worker published.
    """
    spool = pathlib.Path(spool_dir)
    _spool_dirs(spool)
    worker_id = worker_id or _default_worker_id()
    done = 0
    while not (stop is not None and stop.is_set()):
        pending = _pending_chunks(spool)
        claimed = None
        for path in pending:
            if claim_chunk(spool, path.stem, worker_id, lease_ttl_s, clock=clock):
                claimed = path
                break
        if claimed is None:
            if drain and not pending:
                break
            time.sleep(poll_s)
            continue
        chunk_id = claimed.stem
        started = time.perf_counter()
        try:
            data = read_file(claimed)
        except OSError:
            # The chunk file vanished between our scan and claim:
            # another worker already published it (it unlinks the chunk
            # only after the atomic result write).  Stand down quietly —
            # publishing an error here could clobber the real result.
            release_claim(spool, chunk_id)
            continue
        with _Heartbeat(spool, chunk_id, worker_id, lease_ttl_s, clock=clock):
            try:
                specs, trace = _decode_chunk(data)
            except ValueError as exc:
                # Publish the corruption and drop the torn file; a live
                # broker heals by re-spooling the chunk from its
                # authoritative spec list (brokerless spools just lose
                # the unreadable chunk, which no retry could fix here).
                write_chunk_result(spool, chunk_id, worker_id,
                                   chunk_error=f"{exc}")
                claimed.unlink(missing_ok=True)
                release_claim(spool, chunk_id)
                done += 1
                continue
            # Execute under the chunk's trace (embedded by the broker at
            # submit and preserved across requeues), so store writes and
            # any nested spans share the sweep's trace ID.
            with obs.activate(trace):
                obs.emit("worker.claim", worker=worker_id, chunk=chunk_id,
                         jobs=len(specs))
                records = []
                for spec in specs:
                    result = None if store is None else store.get(spec)
                    if result is None:
                        result = _execute_one(spec)
                        if store is not None:
                            store.put(spec, result)
                    # The record is the result's own field dict (JSON by
                    # the runner contract); no copy, unlike asdict().
                    records.append(vars(result))
            chunk_s = time.perf_counter() - started
            # The chunk's metrics ship back in the result envelope (the
            # broker may be on another machine), which the broker merges
            # into its own registry.
            chunk_metrics = obs.MetricsRegistry()
            chunk_metrics.counter(
                "repro_worker_chunks_total",
                "Chunks published by worker.").inc(worker=worker_id)
            # Observe under the chunk's trace so the histogram captures
            # an exemplar: a bad p99 in `repro metrics` then links
            # straight to this chunk's waterfall (`repro trace show`).
            with obs.activate(trace):
                chunk_metrics.histogram(
                    "repro_worker_chunk_seconds",
                    "Wall-clock seconds per published chunk.").observe(
                        chunk_s, worker=worker_id)
            write_chunk_result(
                spool, chunk_id, worker_id, records=records,
                obs_doc={"metrics": chunk_metrics.snapshot()})
        claimed.unlink(missing_ok=True)
        release_claim(spool, chunk_id)
        done += 1
        if on_chunk is not None:
            on_chunk(chunk_id, len(records), time.perf_counter() - started)
        if max_chunks is not None and done >= max_chunks:
            break
    obs.flush_metrics()
    return done


# -- broker -----------------------------------------------------------------

@dataclass
class _Chunk:
    """Broker-side state for one spooled chunk."""

    chunk_id: str
    index: int
    specs: list[JobSpec]
    attempts: int = 0
    results: list[JobResult] | None = None
    #: The chunk's span context, fixed at submit: every attempt
    #: (including requeues) runs and is journaled under this identity.
    trace: obs.SpanContext | None = None
    #: Submit wall-clock: the broker-side chunk latency (submit to
    #: ingest, requeues included) is measured from here.
    submitted_at: float = 0.0


class Broker:
    """Submits hashed job chunks into a spool and collects their results.

    The broker is the authoritative side of the queue: it keeps the
    ordered spec list in memory, so even a chunk whose spool entry is
    corrupted or whose workers keep dying resolves to structured
    per-job failures in the right positions.  ``submit`` then
    ``collect`` is the whole lifecycle; :class:`ClusterBackend` wraps
    both behind the standard backend contract.
    """

    def __init__(
        self,
        spool_dir: str | os.PathLike,
        lease_ttl_s: float = 30.0,
        poll_s: float = 0.05,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock=None,
    ) -> None:
        """Args: the spool directory, the worker lease TTL, the collect
        poll interval, the per-chunk retry budget (lease requeues,
        corrupt chunks and corrupt result files all consume it) and a
        wall-clock override for lease-expiry checks (tests; default
        ``time.time``)."""
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.spool = pathlib.Path(spool_dir)
        self.lease_ttl_s = lease_ttl_s
        self.poll_s = poll_s
        self.max_attempts = max_attempts
        self.clock = clock or time.time
        self._chunks: list[_Chunk] = []
        self._run = uuid.uuid4().hex[:8]
        self._metrics = obs.get_registry().counter(
            "repro_broker_events_total",
            "Broker queue events by op (submit, complete, requeue, "
            "lease_expired, chunk_failed).")
        self._queue_gauge = obs.get_registry().gauge(
            "repro_broker_outstanding_chunks",
            "Chunks submitted but not yet resolved.")
        self._latency_hist = obs.get_registry().histogram(
            "repro_chunk_latency_seconds",
            "Broker-side chunk latency, submit to ingest (requeues "
            "included); exemplars link slow chunks to their trace.")
        _spool_dirs(self.spool)

    @property
    def chunk_ids(self) -> list[str]:
        """The submitted chunk ids, in delivery order."""
        return [c.chunk_id for c in self._chunks]

    def submit(self, specs: list[JobSpec], chunk_size: int | None = None) -> list[str]:
        """Split ``specs`` into chunks and write them into the spool.

        Chunk ids embed a run nonce, the chunk index and a digest of
        the member job hashes, so two brokers sharing one spool can
        never collide and a chunk is self-identifying in listings.
        Returns the chunk ids in input (= delivery) order.

        Raises:
            ValueError: a spec's payload kind has no wire codec (checked
                for every chunk before any chunk is written).
        """
        specs = list(specs)
        if chunk_size is None:
            chunk_size = max(1, len(specs) // 8 or 1)
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        # One trace for the whole submission, parented on the ambient
        # span (run_jobs' ``run.jobs``) when there is one; each chunk
        # gets its own span ID under it, embedded in the spool document.
        parent = obs.current_span()
        trace_id = parent.trace_id if parent else obs.new_id()
        encoded = []
        for index, start in enumerate(range(0, len(specs), chunk_size)):
            members = specs[start:start + chunk_size]
            chunk_id = f"{self._run}-{index:05d}-{_chunk_digest(members)}"
            trace = obs.SpanContext(
                trace_id=trace_id, span_id=obs.new_id(),
                parent_id=parent.span_id if parent else None)
            blob = _encode_chunk(chunk_id, index, members, trace=trace)
            encoded.append((index, chunk_id, members, trace, blob))
        for index, chunk_id, members, trace, blob in encoded:
            _atomic_write(self.spool / "chunks" / f"{chunk_id}.chunk", blob)
            self._chunks.append(
                _Chunk(chunk_id=chunk_id, index=index, specs=members,
                       trace=trace, submitted_at=self.clock()))
            self._metrics.inc(op="submit")
            obs.emit("chunk.submit", ctx=trace, chunk=chunk_id, jobs=len(members))
        self._queue_gauge.set(len(self.outstanding()))
        return self.chunk_ids

    def outstanding(self) -> list[str]:
        """Chunk ids submitted but not yet resolved to results."""
        return [c.chunk_id for c in self._chunks if c.results is None]

    def has_unconsumed_results(self) -> bool:
        """True when some outstanding chunk already has a result file
        on disk that ``collect`` has not ingested yet (used by the
        cluster backend's watchdog to avoid declaring a drained fleet
        dead while its last results are still being read)."""
        return any(
            _result_path(self.spool, c.chunk_id).exists()
            for c in self._chunks if c.results is None
        )

    def expire_worker(self, worker_id: str) -> int:
        """Requeue every outstanding chunk leased by ``worker_id``.

        The cluster backend calls this the moment one of its local
        worker processes dies, so recovery does not wait out the lease
        TTL.  Returns the number of chunks requeued.
        """
        requeued = 0
        for chunk in self._chunks:
            if chunk.results is not None:
                continue
            _, claim = claim_state(self.spool, chunk.chunk_id)
            if claim is not None and claim.get("worker") == worker_id:
                self._requeue(chunk, f"worker {worker_id} died")
                requeued += 1
        return requeued

    def _requeue(self, chunk: _Chunk, why: str) -> None:
        """Release a chunk back to the queue (or fail it permanently
        once its retry budget is spent)."""
        chunk.attempts += 1
        _result_path(self.spool, chunk.chunk_id).unlink(missing_ok=True)
        if chunk.attempts >= self.max_attempts:
            self._fail_chunk(chunk, f"chunk gave up after {chunk.attempts} "
                                    f"attempt(s); last cause: {why}")
            return
        # Re-spool before releasing the claim: the worker may have
        # unlinked the chunk file when it published the (now discarded)
        # result, and a free claim on a missing chunk would strand it.
        # The re-encoded chunk carries the *original* trace context, so
        # the retry shares one trace with the killed attempt.
        chunk_path = self.spool / "chunks" / f"{chunk.chunk_id}.chunk"
        if not chunk_path.exists():
            _atomic_write(chunk_path,
                          _encode_chunk(chunk.chunk_id, chunk.index, chunk.specs,
                                        trace=chunk.trace))
        release_claim(self.spool, chunk.chunk_id)
        self._metrics.inc(op="requeue")
        if "lease expired" in why:
            self._metrics.inc(op="lease_expired")
        obs.emit("chunk.requeue", ctx=chunk.trace, chunk=chunk.chunk_id,
                 attempt=chunk.attempts, why=why)

    def _fail_chunk(self, chunk: _Chunk, error: str) -> None:
        """Resolve every job of a chunk as a structured failure."""
        chunk.results = [
            JobResult(job_hash=s.job_hash, kind=s.kind, ok=False, value=None,
                      error=f"DistError: {error}", duration_s=0.0)
            for s in chunk.specs
        ]
        self._metrics.inc(op="chunk_failed")
        self._queue_gauge.set(len(self.outstanding()))
        obs.emit("chunk.failed", ctx=chunk.trace, chunk=chunk.chunk_id,
                 error=error)
        self._cleanup_chunk(chunk)

    def _cleanup_chunk(self, chunk: _Chunk) -> None:
        (self.spool / "chunks" / f"{chunk.chunk_id}.chunk").unlink(missing_ok=True)
        release_claim(self.spool, chunk.chunk_id)

    def _ingest(self, chunk: _Chunk) -> None:
        """Try to consume a published result file for ``chunk``."""
        path = _result_path(self.spool, chunk.chunk_id)
        try:
            doc = json.loads(read_file(path))
        except OSError:
            return  # not published yet (or already consumed by cleanup)
        except ValueError:
            path.unlink(missing_ok=True)
            self._requeue(chunk, "corrupt result file")
            return
        if doc.get("chunk_error") is not None:
            # Chunk-level failure — usually a corrupt spool entry.  The
            # broker holds the authoritative spec list, so requeueing
            # *heals* it: ``_requeue`` re-spools the chunk from the
            # in-memory specs (the worker dropped the torn file) and a
            # retry executes clean bytes.  The retry budget still
            # bounds it: ``max_attempts=1`` restores fail-fast.
            path.unlink(missing_ok=True)
            self._requeue(chunk, f"worker reported: {doc['chunk_error']}")
            return
        records = doc.get("records")
        valid = (
            doc.get("schema") == DIST_SCHEMA
            and isinstance(records, list)
            and len(records) == len(chunk.specs)
            and all(
                isinstance(r, dict) and r.get("job_hash") == s.job_hash
                for r, s in zip(records, chunk.specs)
            )
        )
        if valid:
            try:
                results = [_record_to_result(r) for r in records]
            except (KeyError, TypeError, ValueError):
                valid = False  # field drift: same corruption path as below
        if not valid:
            path.unlink(missing_ok=True)
            self._requeue(chunk, "result file does not match the chunk's "
                                 "specs or schema")
            return
        chunk.results = results
        self._merge_obs(chunk, doc)
        self._metrics.inc(op="complete")
        # Observed under the chunk's own span so the bucket keeps a
        # trace exemplar; a requeued chunk's latency spans all attempts.
        if chunk.submitted_at:
            with obs.activate(chunk.trace):
                self._latency_hist.observe(self.clock() - chunk.submitted_at)
        self._queue_gauge.set(len(self.outstanding()))
        obs.emit("chunk.complete", ctx=chunk.trace, chunk=chunk.chunk_id,
                 worker=str(doc.get("worker", "?")), jobs=len(records),
                 attempt=chunk.attempts + 1)
        path.unlink(missing_ok=True)
        self._cleanup_chunk(chunk)

    def _merge_obs(self, chunk: _Chunk, doc: dict) -> None:
        """Fold the worker's piggybacked chunk metrics snapshot into the
        broker's registry; malformed payloads are dropped rather than
        failing the ingest."""
        payload = doc.get("obs")
        if not isinstance(payload, dict):
            return
        metrics = payload.get("metrics")
        if isinstance(metrics, dict):
            try:
                obs.get_registry().merge(metrics)
            except (ValueError, TypeError, KeyError):
                pass

    def _expire_leases(self) -> None:
        """Requeue chunks whose lease outlived its TTL (dead worker).

        A *corrupt* claim file is treated like an expired one: claims
        appear atomically with their content, so torn bytes mean the
        writer died mid-replace — that lease will never heartbeat
        again, and waiting on it would stall the chunk forever.
        """
        for chunk in self._chunks:
            if chunk.results is not None:
                continue
            if _result_path(self.spool, chunk.chunk_id).exists():
                continue  # published; ingest will pick it up this poll
            state, claim = claim_state(self.spool, chunk.chunk_id,
                                       clock=self.clock)
            if state == "expired":
                self._requeue(chunk, f"lease expired (worker "
                                     f"{claim.get('worker', '?')})")
            elif state == "corrupt":
                self._requeue(chunk, "lease expired (corrupt claim file)")

    def poll_once(self) -> bool:
        """One non-blocking collect step; True when every chunk resolved.

        Ingests any published result files for outstanding chunks and
        requeues expired/corrupt leases — exactly one iteration of the
        :meth:`collect` loop, exposed so an async caller (each
        :class:`~repro.runtime.dispatch.BrokerDispatcher` submission)
        can poll its broker from a worker thread between waits instead
        of blocking in ``collect``.  The scan is incremental:
        already-resolved chunks are never re-examined.
        """
        for chunk in self._chunks:
            if chunk.results is None:
                self._ingest(chunk)
        self._expire_leases()
        return all(c.results is not None for c in self._chunks)

    def results_in_order(self) -> list[JobResult]:
        """The resolved per-job results in submission order.

        Raises:
            DistError: some chunk is still outstanding — call
                :meth:`poll_once` (or :meth:`collect`) until it reports
                completion first.
        """
        unresolved = self.outstanding()
        if unresolved:
            raise DistError(
                f"{len(unresolved)} chunk(s) still outstanding: "
                f"{', '.join(unresolved[:4])}"
            )
        return [r for c in self._chunks for r in c.results]

    def fail_outstanding(self, reason: str) -> int:
        """Resolve every outstanding chunk as structured failures.

        The dispatcher's per-submission deadline and other give-up
        paths use this: each unresolved job becomes an ``ok=False``
        result carrying ``reason`` — the queue's usual failure shape,
        never an exception in a submitter's face.  Returns the number
        of chunks failed.
        """
        failed = 0
        for chunk in self._chunks:
            if chunk.results is None:
                self._fail_chunk(chunk, reason)
                failed += 1
        return failed

    def collect(self, on_result=None, timeout: float | None = None,
                watchdog=None) -> list[JobResult]:
        """Wait for every submitted chunk and return ordered results.

        Results are delivered strictly in submission order: chunk *i*'s
        jobs (and their ``on_result`` callbacks, fired here in the
        calling process) are released only after every chunk before it —
        exactly the ordering contract of the in-process backends.
        ``watchdog`` is an optional zero-argument callable invoked every
        poll (the cluster backend uses it to respawn dead local
        workers); ``timeout`` bounds the whole wait and raises
        ``TimeoutError`` listing the unresolved chunks.
        """
        start = time.perf_counter()
        delivered = 0
        out: list[JobResult] = []
        while True:
            self.poll_once()
            while delivered < len(self._chunks) and (
                self._chunks[delivered].results is not None
            ):
                for result in self._chunks[delivered].results:
                    out.append(result)
                    if on_result is not None:
                        on_result(result)
                delivered += 1
            if delivered >= len(self._chunks):
                break
            if watchdog is not None:
                watchdog()
            if timeout is not None and time.perf_counter() - start > timeout:
                raise TimeoutError(
                    f"cluster run timed out after {timeout:g}s with "
                    f"{len(self.outstanding())} chunk(s) outstanding: "
                    f"{', '.join(self.outstanding()[:4])}"
                )
            time.sleep(self.poll_s)
        return out

    def close(self) -> None:
        """Remove this run's leftover spool files (best effort)."""
        for chunk in self._chunks:
            _result_path(self.spool, chunk.chunk_id).unlink(missing_ok=True)
            self._cleanup_chunk(chunk)


# -- the cluster backend ----------------------------------------------------

def _spawned_worker(spool_dir: str, worker_id: str, poll_s: float,
                    lease_ttl_s: float) -> None:
    """Entry point of a worker process spawned by :class:`ClusterBackend`.

    Runs a draining :func:`worker_loop` with no store attached — the
    submitting side's :func:`~repro.runtime.executor.run_jobs` already
    layers the cache, so worker-side write-through would double-count.
    """
    worker_loop(spool_dir, worker_id=worker_id, poll_s=poll_s,
                lease_ttl_s=lease_ttl_s, drain=True)


@register_backend("cluster")
class ClusterBackend:
    """Broker + worker fleet behind the standard backend contract.

    ``run()`` spools the specs as hashed chunks, spawns ``workers``
    local worker processes (or, with ``spawn_workers=False``, relies on
    external ``repro worker`` agents already attached to
    ``spool_dir``), and collects ordered, bit-identical results.  A
    worker that dies mid-chunk is detected by the watchdog (local) or
    by lease expiry (external), its chunks are requeued, and a
    replacement is spawned — the sweep finishes with identical results
    either way.
    """

    name = "cluster"
    #: Chunks per worker when ``chunk_size`` is not given.
    CHUNKS_PER_WORKER = 2

    def __init__(
        self,
        workers: int | None = None,
        spool_dir: str | os.PathLike | None = None,
        chunk_size: int | None = None,
        lease_ttl_s: float = 30.0,
        poll_s: float = 0.02,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        spawn_workers: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Args mirror the process backend (``workers``; ``chunk_size``,
        else ``CHUNKS_PER_WORKER`` chunks per worker) plus the queue
        knobs: ``spool_dir`` (None = a private temp spool per run),
        ``lease_ttl_s``/``max_attempts`` for dead-worker recovery,
        ``spawn_workers=False`` to attach to an external fleet, and
        ``timeout`` as a hard bound on one run."""
        self.workers = workers if workers is not None else max(2, min(4, os.cpu_count() or 2))
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.spool_dir = spool_dir
        self.chunk_size = chunk_size
        self.lease_ttl_s = lease_ttl_s
        self.poll_s = poll_s
        self.max_attempts = max_attempts
        self.spawn_workers = spawn_workers
        self.timeout = timeout

    def _chunk_size_for(self, n_specs: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(n_specs / (self.workers * self.CHUNKS_PER_WORKER)))

    def _spawn(self, spool: pathlib.Path, seq: int):
        worker_id = f"local-{self._run_nonce}-{seq}"
        proc = multiprocessing.Process(
            target=_spawned_worker,
            args=(str(spool), worker_id, self.poll_s, self.lease_ttl_s),
            daemon=True,
        )
        proc.start()
        return worker_id, proc

    def run(self, specs: list[JobSpec], on_result=None) -> list[JobResult]:
        """Execute ``specs`` over the cluster queue.

        Returns one result per spec in input order; raising jobs and
        unrecoverable chunks become structured ``ok=False`` records,
        matching every other backend.  With spawned workers a dead
        worker is replaced (bounded respawn budget) and its chunks are
        requeued immediately; if the whole fleet dies with work left,
        a :class:`DistError` is raised — a crashed pool, not a result.
        """
        specs = list(specs)
        if not specs:
            return []
        tmp = None
        if self.spool_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-spool-")
            spool = pathlib.Path(tmp.name)
        else:
            spool = pathlib.Path(self.spool_dir)
        self._run_nonce = uuid.uuid4().hex[:6]
        broker = Broker(
            spool,
            lease_ttl_s=self.lease_ttl_s,
            poll_s=self.poll_s,
            max_attempts=self.max_attempts,
        )
        procs: dict[str, object] = {}
        try:
            broker.submit(specs, chunk_size=self._chunk_size_for(len(specs)))
            watchdog = None
            if self.spawn_workers:
                n_procs = min(self.workers, len(broker.chunk_ids))
                seq = [0]
                for _ in range(n_procs):
                    wid, proc = self._spawn(spool, seq[0])
                    procs[wid] = proc
                    seq[0] += 1
                respawn_budget = [2 * self.workers]

                def watchdog() -> None:
                    for wid, proc in list(procs.items()):
                        if proc.is_alive():
                            continue
                        proc.join()
                        died = proc.exitcode != 0
                        procs.pop(wid)
                        if died:
                            broker.expire_worker(wid)
                            if broker.outstanding() and respawn_budget[0] > 0:
                                respawn_budget[0] -= 1
                                new_id, new_proc = self._spawn(spool, seq[0])
                                procs[new_id] = new_proc
                                seq[0] += 1
                    if (not procs and broker.outstanding()
                            and not broker.has_unconsumed_results()):
                        raise DistError(
                            f"all cluster workers exited with "
                            f"{len(broker.outstanding())} chunk(s) outstanding"
                        )

            return broker.collect(on_result=on_result, timeout=self.timeout,
                                  watchdog=watchdog)
        finally:
            obs.flush_metrics()
            for proc in procs.values():
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join()
            broker.close()
            if tmp is not None:
                tmp.cleanup()
