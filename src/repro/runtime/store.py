"""Shared, eviction-aware result store keyed by job hash.

Every entry is one JSON file carrying a versioned envelope::

    {"schema": 1, "kind": ..., "key": ..., "job_hash": ...,
     "value": {...}, "duration_s": ...}

A lookup validates the envelope against the requesting spec — schema
version, kind, hash *and* the full canonical key must all match — so a
truncated write, a hand-edited file, a hash collision across schema
versions or a partially-copied directory degrades to a miss (the
offending file is deleted and the job recomputed), never to a wrong
result.  The store reads and writes
:class:`~repro.runtime.backends.JobResult` records: ``get`` answers a hit
with ``cached=True``, and ``put`` stores only successes and turns a
failed write into ``False`` (one ``put_error``), so every caller loses
at most the cached copy.  Every lookup and write counts once, into the
process-wide ``repro_store_events_total{op=…}`` counter of :mod:`.obs`;
``repro metrics --obs-dir DIR`` merges the per-process snapshots into
lifetime, fleet-wide totals.

:class:`ResultStore` is built for a directory that many runs and
processes share — sweeps, servers, workers and CI jobs of one user.
Entries are created 0600 (by ``mkstemp``) and shards follow the umask,
so another uid can neither read the entries nor add to the shards:

* **content-addressed two-level layout** — an entry for job hash
  ``abcdef…`` lives at ``ab/abcdef….json``, keeping any one directory
  small enough for fast scans on network filesystems;
* **LRU eviction under a size cap** — an entry file's own mtime is its
  recency: every store and hit stamps it with ``time.time_ns()``, and
  eviction deletes the oldest-stamped entries (job hash breaking ties)
  until the store fits ``max_bytes``;
* **concurrent-safe by construction** — entry writes are temp file +
  ``os.replace`` (no torn entries), a hit's recency stamp lands on the
  entry itself so every process sees it at once, eviction runs under
  an ``fcntl`` file lock, and every scan/stat/unlink
  tolerates entries vanishing mid-operation because another process
  evicted them.

A sweep pointed at a shared store therefore hits results computed by
any other run of the same jobs — the "cross-run cache reuse" item from
the roadmap — while the cap keeps the directory from growing without
bound.  Entries are read and written through raw descriptors and
string paths (`docs/ARCHITECTURE.md`, "Entry IO").  The CLI front end
is ``repro cache stats|evict|clear``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass

from . import obs
from ._fsutil import READ_FLAGS, UTIME_FD, atomic_write_bytes, read_fd
from .backends import JobResult
from .jobs import SCHEMA_VERSION, JobSpec

try:  # pragma: no cover - fcntl is POSIX-only; Windows degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = [
    "ResultStore",
    "open_store",
    "default_cache_dir",
    "default_max_bytes",
    "MAX_BYTES_ENV",
]

#: Environment variable overriding the default store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable giving the default store size cap in bytes.
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


#: ``(registry, counter)``: the store counter, held for the registry in
#: force when it was looked up.
_held_events: tuple = (None, None)


def _store_events():
    """The shared ``repro_store_events_total`` counter (labels:
    ``op=hit|miss|store|corrupt|evict|put_error``) on the process-wide
    registry — the store's only counter.  A lookup counts one of
    ``hit``, ``miss`` or ``corrupt`` (an invalid entry it deleted);
    ``put_error`` counts :meth:`ResultStore.put` calls whose write failed.

    The counter is held rather than looked up by name on every call,
    and looked up again whenever the process-wide registry is another
    one (:func:`~repro.runtime.obs.set_registry`, or a fork's reset)."""
    global _held_events
    registry = obs.get_registry()
    held_registry, counter = _held_events
    if held_registry is not registry:
        counter = registry.counter(
            "repro_store_events_total",
            "Result-store operations by op "
            "(hit, miss, store, corrupt, evict, put_error).")
        _held_events = (registry, counter)
    return counter

#: Cap-triggered evictions clear down to this fraction of ``max_bytes``
#: so a store sitting at its cap doesn't pay a full scan-and-evict on
#: every subsequent put — one eviction buys ~10% of cap in headroom.
_EVICT_WATERMARK = 0.9

#: How long an orphaned temp file (mkstemp leftover from a SIGKILLed
#: writer) must sit untouched before eviction sweeps it.
_DEBRIS_GRACE_S = 3600.0

#: Where those temp files land: entry writes in their shard; the root
#: pattern also sweeps any left beside the shards.
_DEBRIS_PATTERNS = ("*.tmp", "??/*.tmp")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro_cache`` in the cwd."""
    env = os.environ.get(CACHE_DIR_ENV)
    return pathlib.Path(env) if env else pathlib.Path(".repro_cache")


def default_max_bytes() -> int | None:
    """``$REPRO_CACHE_MAX_BYTES`` as an int, or None (uncapped)."""
    raw = os.environ.get(MAX_BYTES_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_BYTES_ENV} must be an integer byte count, got {raw!r}")
    if value < 0:
        raise ValueError(f"{MAX_BYTES_ENV} must be non-negative, got {value}")
    return value


@dataclass
class ResultStore:
    """A sharded, size-capped, LRU-evicting directory of job results,
    validated on every read.

    ``max_bytes=None`` disables eviction (the store keeps the sharded
    layout and recency stamps); a cap is enforced after every store,
    so a long sweep can never overshoot by more than one entry.
    """

    root: pathlib.Path
    schema_version: int = SCHEMA_VERSION
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root_str = os.fspath(self.root)
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        # Running size estimate so a capped put only pays for a full
        # scan + lock when the cap is plausibly crossed, not every time.
        # Per-process: concurrent writers each under-count the others,
        # so under contention the cap is enforced approximately — each
        # writer still converges on it at its own next over-cap put.
        self._approx_bytes: int | None = None
        # Serialises the worker-thread puts of :meth:`aput` (a put
        # updates ``_approx_bytes``).  An :meth:`aget` runs ``get`` on
        # the loop thread and touches no instance state, so it needs no
        # lock: entry files are replaced atomically and the obs counter
        # takes its own lock.  The synchronous API stays lock-free.
        self._mutex = threading.Lock()

    # -- layout -----------------------------------------------------------
    def path(self, job_hash: str) -> pathlib.Path:
        """The sharded entry file for ``job_hash``: ``ab/abcdef….json``."""
        return pathlib.Path(self._entry_path(job_hash))

    def _entry_path(self, job_hash: str) -> str:
        """:meth:`path` as a string, built without ``pathlib`` — the
        form every entry read and write opens."""
        return f"{self._root_str}/{job_hash[:2]}/{job_hash}.json"

    def _iter_entries(self):
        """Every entry file currently on disk."""
        return self.root.glob("??/*.json")

    @property
    def _lock_path(self) -> pathlib.Path:
        # Named for the recency index older versions kept, so their
        # evictions still serialise against this version's.
        return self.root / "index.lock"

    @staticmethod
    def _stamp(target: int | str) -> None:
        """Set the mtime of ``target`` (an open descriptor or a path) —
        its LRU recency — to now.  Explicit ``time.time_ns()`` stamps
        order back-to-back uses, which kernel stamps (advancing once per
        clock tick) do not.  A failure (read-only store) costs recency
        accuracy, not correctness."""
        t = time.time_ns()
        try:
            os.utime(target, ns=(t, t))
        except OSError:
            pass

    @contextlib.contextmanager
    def _lock(self):
        """Exclusive flock on ``index.lock`` (best effort), serialising
        eviction across processes."""
        if fcntl is None:
            yield
            return
        try:
            fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR)
        except OSError:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing drops the flock

    # -- cache interface --------------------------------------------------
    def get(self, spec: JobSpec) -> JobResult | None:
        """The stored result for ``spec`` as a ``cached=True``
        :class:`JobResult` carrying its original compute time, or None;
        hits re-stamp the entry's recency.  Each call counts exactly one
        ``op``: ``hit``, ``miss`` (no entry) or ``corrupt`` (an invalid
        entry: empty, undecodable, not a JSON object or not this spec's;
        deleted best effort — an unwritable store degrades to
        recomputation, not a crash).  The entry is read, and its
        recency stamped, through one raw descriptor."""
        path = self._entry_path(spec.job_hash)
        op, entry = self._read(path, spec)
        _store_events().inc(op=op)
        if op == "corrupt":
            with contextlib.suppress(OSError):
                os.unlink(path)
        if op != "hit":
            return None
        return JobResult(
            job_hash=spec.job_hash,
            kind=spec.kind,
            ok=True,
            value=entry["value"],
            error=None,
            duration_s=float(entry["duration_s"]),
            cached=True,
        )

    def _read(self, path: str, spec: JobSpec) -> tuple[str, dict | None]:
        """The ``op`` a lookup of ``spec`` in the entry at ``path``
        counts, with the entry on a hit.  A hit is re-stamped through
        the descriptor it was read from."""
        try:
            fd = os.open(path, READ_FLAGS)
        except OSError:
            return "miss", None
        try:
            try:
                entry = json.loads(read_fd(fd))
            except OSError:  # not a readable file (a directory, say)
                return "miss", None
            except ValueError:  # empty or undecodable bytes
                return "corrupt", None
            if not (isinstance(entry, dict) and self._valid_for(entry, spec)):
                return "corrupt", None
            self._stamp(fd if UTIME_FD else path)
            return "hit", entry
        finally:
            os.close(fd)

    def _valid_for(self, entry: dict, spec: JobSpec) -> bool:
        return (
            entry.get("schema") == self.schema_version
            and entry.get("kind") == spec.kind
            and entry.get("key") == spec.key
            and entry.get("job_hash") == spec.job_hash
            and isinstance(entry.get("value"), dict)
            and isinstance(entry.get("duration_s"), (int, float))
        )

    def _locked_put(self, spec: JobSpec, result: JobResult) -> bool:
        with self._mutex:
            return self.put(spec, result)

    async def aget(self, spec: JobSpec) -> JobResult | None:
        """Read-through for asyncio callers: :meth:`get` inline, on the
        event loop; the coroutine never suspends.

        A local entry read costs less CPU than a round trip to a worker
        thread, so the read blocks the loop instead.  On a network
        filesystem every lookup blocks the loop for that filesystem's
        read latency (`docs/ARCHITECTURE.md`, "Micro-batching").
        """
        return self.get(spec)

    async def aput(self, spec: JobSpec, result: JobResult) -> bool:
        """Async-safe write-through: :meth:`put` off the event loop, in a
        worker thread, serialised per instance."""
        return await asyncio.to_thread(self._locked_put, spec, result)

    def invalidate(self, spec: JobSpec) -> bool:
        """Drop one entry; True if this call removed it.  One unlink, so
        an entry a concurrent evictor deletes first reads as False,
        never as a removal."""
        try:
            self.path(spec.job_hash).unlink()
        except FileNotFoundError:
            return False
        return True

    def put(self, spec: JobSpec, result: JobResult) -> bool:
        """Persist a successful ``result`` atomically into its shard,
        stamped as the most recently used entry, and enforce
        ``max_bytes`` (evicting LRU entries if the running size estimate
        crosses the cap).  Returns whether the entry was written.

        A failed result is never stored.  A write that fails (disk
        full, read-only directory, a value JSON cannot encode) costs
        only the cached copy: it returns False and counts one
        ``repro_store_events_total{op=put_error}``, never raises — so a
        computed answer is never lost to its write-through.
        """
        if not result.ok:
            return False
        target = self._entry_path(spec.job_hash)
        old_size = 0
        if self.max_bytes is not None and self._approx_bytes is not None:
            try:  # a re-put replaces bytes rather than adding them
                old_size = os.stat(target).st_size
            except OSError:
                pass
        entry = {
            "schema": self.schema_version,
            "kind": spec.kind,
            "key": spec.key,
            "job_hash": spec.job_hash,
            "value": result.value,
            "duration_s": float(result.duration_s),
        }
        try:
            data = json.dumps(entry).encode()
            atomic_write_bytes(target, data, mtime_ns=time.time_ns())
        except (OSError, TypeError, ValueError):
            _store_events().inc(op="put_error")
            return False
        _store_events().inc(op="store")
        # The write-through step of the trace chain: journaled under the
        # ambient span, so a chunk's store writes share its trace ID.
        obs.emit("store.put", job_hash=spec.job_hash, kind=spec.kind)
        if self.max_bytes is None:
            return True
        if self._approx_bytes is None:
            self._approx_bytes = sum(size for _, _, size, _ in self._scan())
        else:
            self._approx_bytes += len(data) - old_size
        if self._approx_bytes > self.max_bytes:
            self.evict(int(self.max_bytes * _EVICT_WATERMARK))
        return True

    def clear(self) -> int:
        """Remove every entry, returning how many were deleted."""
        n = 0
        for path in self._iter_entries():
            path.unlink(missing_ok=True)
            n += 1
        self._lock_path.unlink(missing_ok=True)
        for pattern in _DEBRIS_PATTERNS:
            for p in self.root.glob(pattern):
                p.unlink(missing_ok=True)
        for p in self.root.iterdir():
            # rmdir only succeeds on empty dirs, so a shard a concurrent
            # writer is repopulating survives untouched.
            if p.is_dir() and len(p.name) == 2:
                with contextlib.suppress(OSError):
                    p.rmdir()
        self._approx_bytes = 0
        return n

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_entries())

    def size_bytes(self) -> int:
        """Total bytes currently held by entry files."""
        return sum(size for _, _, size, _ in self._scan())

    # -- eviction ---------------------------------------------------------
    def _sweep_debris(self) -> int:
        """Remove temp files (mkstemp leftovers from SIGKILLed writers)
        older than the grace period — nothing else reclaims them, and
        they'd silently eat into a shared store's real disk budget."""
        removed = 0
        now = time.time()
        for pattern in _DEBRIS_PATTERNS:
            for p in self.root.glob(pattern):
                try:
                    if now - p.stat().st_mtime > _DEBRIS_GRACE_S:
                        p.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed

    def _scan(self) -> list[tuple[str, pathlib.Path, int, int]]:
        """(job_hash, path, size, mtime_ns) for every live entry.

        Entries another process deletes between the directory listing
        and the stat are skipped (a shared-store TOCTOU), never a crash.
        """
        out = []
        for path in self._iter_entries():
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((path.stem, path, st.st_size, st.st_mtime_ns))
        return out

    def evict(self, target_bytes: int | None = None) -> int:
        """Delete least-recently-used entries until the store fits.

        ``target_bytes`` defaults to ``max_bytes`` (it must be given
        for an uncapped store).  Returns the number of entries removed.
        """
        if target_bytes is None:
            target_bytes = self.max_bytes
        if target_bytes is None:
            raise ValueError("evict() needs target_bytes on an uncapped store")
        if target_bytes < 0:
            raise ValueError("target_bytes must be non-negative")
        with self._lock():
            self._sweep_debris()
            entries = self._scan()
            total = sum(size for _, _, size, _ in entries)
            # Least recent first: the mtime is the last write or hit, so
            # a concurrent writer's fresh entry is the newest by
            # construction; the hash breaks ties on coarse-mtime
            # filesystems.
            entries.sort(key=lambda e: (e[3], e[0]))
            removed = 0
            for _, path, size, _ in entries:
                if total <= target_bytes:
                    break
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass  # someone else removed it
                except OSError:
                    continue
                total -= size
            self._approx_bytes = total
            if removed:
                _store_events().inc(removed, op="evict")
                obs.emit("store.evict", removed=removed,
                         target_bytes=target_bytes)
            return removed

    def shrink(self, fraction: float = 0.5) -> int:
        """Evict the least-recently-used ``fraction`` of current bytes.

        A relative form of :meth:`evict` that needs no size cap — the
        chaos harness and operators use it to force eviction pressure
        on an uncapped store mid-run.  Safe under load by the same
        rules as :meth:`evict`: the exclusive lock serialises
        concurrent evictors, and a neighbour's freshly written entry
        carries the newest stamp, so it is evicted last — forcing
        eviction during a sweep costs cache hits, never correctness.
        Returns the number of entries removed.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        total = sum(size for _, _, size, _ in self._scan())
        return self.evict(target_bytes=int(total * (1.0 - fraction)))

    # -- reporting --------------------------------------------------------
    def usage(self) -> dict:
        """Current disk usage — ``entries``, ``bytes``, ``shards`` and
        ``max_bytes`` — the document the CLI's ``cache stats`` prints.
        Hit/miss totals live in ``repro_store_events_total``."""
        entries = self._scan()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "shards": sum(1 for p in self.root.iterdir()
                          if p.is_dir() and len(p.name) == 2),
        }


def open_store(
    cache_dir: str | os.PathLike | None = None,
    max_bytes: int | None = None,
) -> ResultStore:
    """The store at ``cache_dir`` (default: ``$REPRO_CACHE_DIR`` or
    ``.repro_cache``), capped at ``max_bytes`` (default:
    ``$REPRO_CACHE_MAX_BYTES`` or uncapped)."""
    root = pathlib.Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if max_bytes is None:
        max_bytes = default_max_bytes()
    return ResultStore(root, max_bytes=max_bytes)
