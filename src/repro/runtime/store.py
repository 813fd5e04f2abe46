"""Shared, eviction-aware result store keyed by job hash.

Every entry is one JSON file carrying a versioned envelope::

    {"schema": 1, "kind": ..., "key": ..., "job_hash": ...,
     "value": {...}, "duration_s": ...}

A lookup validates the envelope against the requesting spec — schema
version, kind, hash *and* the full canonical key must all match — so a
truncated write, a hand-edited file, a hash collision across schema
versions or a partially-copied directory degrades to a miss (the
offending file is deleted and the job recomputed), never to a wrong
result.  Hit/miss/store/corrupt counters accumulate in
:class:`CacheStats`; the sweep engine and CLI report them after every
run, and they merge — with each entry's hit count — into one
``stats.json`` sidecar that totals them across every run of the store.

:class:`ResultStore` is built for a directory many runs, users and CI
jobs can share:

* **content-addressed two-level layout** — an entry for job hash
  ``abcdef…`` lives at ``ab/abcdef….json``, keeping any one directory
  small enough for fast scans on network filesystems;
* **LRU eviction under a size cap** — an entry file's own mtime is its
  recency: every store and hit stamps it with ``time.time_ns()``, and
  eviction deletes the oldest-stamped entries (job hash breaking ties)
  until the store fits ``max_bytes``;
* **concurrent-safe by construction** — entry writes are temp file +
  ``os.replace`` (no torn entries), a hit's recency stamp lands on the
  entry itself so every process sees it at once, eviction and sidecar
  merges run under an ``fcntl`` file lock, and every scan/stat/unlink
  tolerates entries vanishing mid-operation because another process
  evicted them.

A sweep pointed at a shared store therefore hits results computed by
anyone else who ran the same jobs — the "cross-run cache reuse" item
from the roadmap — while the cap keeps the directory from growing
without bound.  The CLI front end is ``repro cache stats|evict|clear``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import pathlib
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field

from . import obs
from ._fsutil import atomic_write_bytes
from .jobs import SCHEMA_VERSION, JobSpec

try:  # pragma: no cover - fcntl is POSIX-only; Windows degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = [
    "CacheStats",
    "CachedResult",
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

#: A full SHA-256 job hash: an entry's file stem and sidecar key.
_JOB_HASH = re.compile(r"^[0-9a-f]{64}$")


def _store_events():
    """The shared ``repro_store_events_total`` counter (labels:
    ``op=hit|miss|store|evict|put_error``) on the process-wide registry;
    ``put_error`` counts serve write-throughs the store refused."""
    return obs.get_registry().counter(
        "repro_store_events_total",
        "Result-store operations by op (hit, miss, store, evict, put_error).")

#: Cap-triggered evictions clear down to this fraction of ``max_bytes``
#: so a store sitting at its cap doesn't pay a full scan-and-evict on
#: every subsequent put — one eviction buys ~10% of cap in headroom.
_EVICT_WATERMARK = 0.9

#: Counter deltas merge into the ``stats.json`` sidecar once this many
#: have accumulated, so the warm replay path pays a counter bump per hit
#: instead of a locked read-modify-write per hit.
_TOUCH_FLUSH_COUNT = 32

#: How long an orphaned temp file (mkstemp leftover from a SIGKILLed
#: writer) must sit untouched before eviction sweeps it.
_DEBRIS_GRACE_S = 3600.0

#: Where those temp files land: sidecar writes in the root, entry
#: writes in their shard.
_DEBRIS_PATTERNS = ("*.tmp", "??/*.tmp")

#: How often a store that found no flat-layout entries re-checks for
#: them (a collaborator still on an older version may write some).
_FLAT_RECHECK_S = 60.0

#: Counter fields persisted to the ``stats.json`` sidecar — the
#: lifetime hit/miss/store/corrupt totals ``repro cache stats`` prints.
_STATS_FIELDS = ("hits", "misses", "stores", "corrupt")

#: Upper edges (seconds) of the entry-age histogram buckets reported by
#: :meth:`ResultStore.entry_stats`; the last bucket is unbounded.
_AGE_BUCKETS = ((60.0, "<1m"), (600.0, "<10m"), (3600.0, "<1h"),
                (86400.0, "<1d"), (float("inf"), ">=1d"))


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
class CacheStats:
    """Counters for one store instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups: hits plus misses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class CachedResult:
    """A value served from disk, with its original compute time."""

    job_hash: str
    kind: str
    value: dict
    duration_s: float


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
    stats: CacheStats = field(default_factory=CacheStats)
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        # Running size estimate so a capped put only pays for a full
        # scan + lock when the cap is plausibly crossed, not every time.
        # Per-process: concurrent writers each under-count the others,
        # so under contention the cap is enforced approximately — each
        # writer still converges on it at its own next over-cap put.
        self._approx_bytes: int | None = None
        # Whether the root may still hold older versions' flat entries;
        # resolved on first use (and re-checked at most every
        # _FLAT_RECHECK_S while negative, in case a legacy writer is
        # still active) so stores that never saw the old layout pay an
        # occasional glob, not a stat per operation.
        self._may_have_flat: bool | None = None
        self._flat_checked_at = 0.0
        # Per-entry hit-count deltas, merged into the stats.json
        # sidecar alongside the lifetime counters — the telemetry
        # cost-aware eviction will be built on.
        self._entry_hits: dict[str, int] = {}
        # Counter values already merged into the stats sidecar; the
        # delta against ``self.stats`` is what the next flush adds.
        self._merged_stats = CacheStats()
        # Serialises get/put/stats when the asyncio wrappers drive this
        # instance from executor worker threads (the synchronous API
        # stays lock-free for the single-threaded sweep path).
        # Re-entrant because a locked get/put can itself reach
        # flush_stats through the counter-merge cadence.
        self._mutex = threading.RLock()

    # -- layout -----------------------------------------------------------
    def path(self, job_hash: str) -> pathlib.Path:
        """The sharded entry file for ``job_hash``: ``ab/abcdef….json``."""
        return self.root / job_hash[:2] / f"{job_hash}.json"

    def _iter_entries(self):
        """Every entry file currently on disk."""
        # Root-level hash-named *.json files are entries from the flat
        # layout older versions wrote; counting (and evicting/
        # clearing) them too keeps an upgraded directory fully
        # administered.  Non-hash names (``stats.json``, stray files)
        # are metadata, never entries.
        return itertools.chain(
            self.root.glob("??/*.json"), self._iter_flat_entries()
        )

    def _iter_flat_entries(self):
        return (p for p in self.root.glob("*.json") if _JOB_HASH.match(p.stem))

    def _adopt_flat(self, job_hash: str) -> None:
        """Move a flat-layout entry (an older version's ``<hash>.json``
        in the root) into its shard, so results cached before the upgrade stay
        hittable.  Atomic rename on one filesystem; a concurrent
        adopter losing the race is harmless."""
        # Re-resolve periodically in both directions: a legacy writer
        # may add flat entries after a negative check, and adoption
        # eventually empties the root after a positive one.
        if (
            self._may_have_flat is None
            or time.monotonic() - self._flat_checked_at > _FLAT_RECHECK_S
        ):
            self._may_have_flat = any(True for _ in self._iter_flat_entries())
            self._flat_checked_at = time.monotonic()
        if not self._may_have_flat:
            return
        flat = self.root / f"{job_hash}.json"
        if not flat.exists():
            return
        target = self.path(job_hash)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(flat, target)
        except OSError:
            pass

    @property
    def stats_path(self) -> pathlib.Path:
        """The ``stats.json`` sidecar: lifetime counter totals plus
        per-entry hit counts."""
        return self.root / "stats.json"

    @property
    def _lock_path(self) -> pathlib.Path:
        # Named for the recency index older versions kept, so their
        # sidecar merges still serialise against this version's.
        return self.root / "index.lock"

    @staticmethod
    def _stamp(path: str | os.PathLike) -> None:
        """Set ``path``'s mtime — its LRU recency — to now.  Explicit
        ``time.time_ns()`` stamps order back-to-back uses, which kernel
        stamps (advancing once per clock tick) do not.  A failure
        (read-only store) costs recency accuracy, not correctness."""
        t = time.time_ns()
        try:
            os.utime(path, ns=(t, t))
        except OSError:
            pass

    @contextlib.contextmanager
    def _lock(self):
        """Exclusive flock on the sidecar lock file (best effort),
        serialising eviction and sidecar merges across processes."""
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

    # -- persisted counters -----------------------------------------------
    def _read_sidecar(self) -> tuple[dict[str, int], dict[str, int]]:
        """``stats.json`` as (lifetime totals, per-entry hit counts):
        zeroes and no entries where it is absent or corrupt — telemetry
        damage must never crash a sweep."""
        try:
            raw = json.loads(self.stats_path.read_bytes())
        except (OSError, ValueError):
            raw = None
        if not isinstance(raw, dict):
            raw = {}
        totals = {}
        for f in _STATS_FIELDS:
            try:
                totals[f] = int(raw.get(f, 0))
            except (TypeError, ValueError):
                totals[f] = 0
        hits: dict[str, int] = {}
        entries = raw.get("entries")
        for k, v in (entries.items() if isinstance(entries, dict) else ()):
            if _JOB_HASH.match(k):
                try:
                    hits[k] = int(v)
                except (TypeError, ValueError):
                    continue
        return totals, hits

    def _write_sidecar(self, totals: dict[str, int], hits: dict[str, int]) -> None:
        """Atomically replace ``stats.json`` (caller holds the lock)."""
        atomic_write_bytes(self.stats_path,
                           json.dumps({**totals, "entries": hits}).encode())

    def _forget_hits(self, dead: set[str]) -> None:
        """Drop the ``dead`` entries' hit counts from the sidecar (caller
        holds the lock), so it tracks live entries, not the store's
        history.  Best effort: a failed write leaves the records for
        the next pruner."""
        totals, hits = self._read_sidecar()
        if dead & hits.keys():
            with contextlib.suppress(OSError):
                self._write_sidecar(
                    totals, {h: n for h, n in hits.items() if h not in dead})

    def _maybe_flush_stats(self) -> None:
        """Merge counter deltas once at least :data:`_TOUCH_FLUSH_COUNT`
        have accumulated."""
        delta = sum(
            getattr(self.stats, f) - getattr(self._merged_stats, f)
            for f in _STATS_FIELDS
        )
        if delta >= _TOUCH_FLUSH_COUNT:
            self.flush_stats()

    def flush_stats(self) -> None:
        """Merge this instance's counter and per-entry hit deltas into
        ``stats.json``.

        The read-modify-write runs under the exclusive lock and lands
        as one temp file + ``os.replace``, so concurrent runs each add
        exactly their own delta — the sidecar accumulates lifetime
        hit/miss/store/corrupt totals across every process that ever
        used the store.  Hits on entries evicted since are dropped.  A
        write failure (read-only store) keeps every delta local for the
        next flush, which then adds each exactly once.  The instance
        mutex serialises this against concurrent async accessors, so
        two threads can never merge the same delta twice.
        """
        with self._mutex:
            delta = {
                f: getattr(self.stats, f) - getattr(self._merged_stats, f)
                for f in _STATS_FIELDS
            }
            if not any(delta.values()) and not self._entry_hits:
                return
            try:
                with self._lock():
                    totals, hits = self._read_sidecar()
                    for f in _STATS_FIELDS:
                        totals[f] += delta[f]
                    for job_hash, n in self._entry_hits.items():
                        if self.path(job_hash).exists():
                            hits[job_hash] = hits.get(job_hash, 0) + n
                    self._write_sidecar(totals, hits)
            except OSError:
                return
            for f in _STATS_FIELDS:
                setattr(self._merged_stats, f, getattr(self.stats, f))
            self._entry_hits = {}

    def lifetime_stats(self) -> dict:
        """Hit/miss/store/corrupt totals across every run of this store.

        Flushes this instance's unmerged counters first, then returns
        the sidecar totals plus a derived ``hit_rate`` — the number the
        serve path and ``repro cache stats`` report as the store's
        all-time cache-hit ratio.
        """
        self.flush_stats()
        totals: dict = self._read_sidecar()[0]
        # Include any delta a failed flush (read-only store) kept local.
        for f in _STATS_FIELDS:
            totals[f] += getattr(self.stats, f) - getattr(self._merged_stats, f)
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return totals

    def entry_stats(self, limit: int | None = 20) -> dict:
        """Per-entry usage telemetry: hit counts and an age histogram.

        Flushes buffered counters first, then reports, for every live
        entry, its lifetime hit count (from ``stats.json``) and its age
        (seconds since the entry was last written or hit).  The ``top``
        list holds the ``limit`` most-hit entries enriched with each
        envelope's ``kind`` and original compute ``duration_s`` — the
        inputs a cost-aware eviction policy needs (hot, slow-to-
        recompute entries are the ones worth keeping past plain LRU).

        Returns a dict with ``entries`` (total live entries),
        ``tracked_hits`` (sum of recorded hit counts),
        ``age_histogram`` (bucket label → entry count) and ``top``
        (list of ``{hash, hits, age_s, bytes, kind, duration_s}``).
        """
        self.flush_stats()
        usage = self._read_sidecar()[1]
        scanned = self._scan()
        # Drop records whose entry is gone (evicted by a process whose
        # buffered hits merged after the prune).
        dead = usage.keys() - {job_hash for job_hash, _, _, _ in scanned}
        if dead:
            usage = {h: n for h, n in usage.items() if h not in dead}
            with contextlib.suppress(OSError), self._lock():
                self._forget_hits(dead)
        now_ns = time.time_ns()
        hist = {label: 0 for _, label in _AGE_BUCKETS}
        rows = []
        for job_hash, path, size, mtime_ns in scanned:
            age = max(0.0, (now_ns - mtime_ns) / 1e9)
            for edge, label in _AGE_BUCKETS:
                if age < edge:
                    hist[label] += 1
                    break
            rows.append({"hash": job_hash, "hits": usage.get(job_hash, 0),
                         "age_s": age, "bytes": size, "path": path})
        rows.sort(key=lambda r: (-r["hits"], r["hash"]))
        top = rows if limit is None else rows[:limit]
        for row in top:
            path = row.pop("path")
            row["kind"], row["duration_s"] = None, None
            try:
                entry = json.loads(path.read_text())
                if isinstance(entry, dict):  # valid JSON non-objects stay None
                    row["kind"] = entry.get("kind")
                    row["duration_s"] = float(entry.get("duration_s", 0.0))
            except (OSError, ValueError, TypeError):
                pass  # entry evicted or corrupt mid-scan: telemetry only
        for row in rows[len(top):]:
            row.pop("path", None)
        return {
            "entries": len(scanned),
            "tracked_hits": sum(usage.values()),
            "age_histogram": hist,
            "top": top,
        }

    # -- cache interface --------------------------------------------------
    def get(self, spec: JobSpec) -> CachedResult | None:
        """The stored result for ``spec``, or None (miss / corruption);
        hits re-stamp the entry's recency and count in the per-entry
        usage telemetry."""
        self._adopt_flat(spec.job_hash)
        path = self.path(spec.job_hash)
        entry = self._load(path)
        if entry is not None and not self._valid_for(entry, spec):
            self.stats.corrupt += 1
            self._evict(path)
            entry = None
        if entry is None:
            self.stats.misses += 1
            _store_events().inc(op="miss")
            return None
        self.stats.hits += 1
        self._entry_hits[spec.job_hash] = self._entry_hits.get(spec.job_hash, 0) + 1
        self._stamp(path)
        _store_events().inc(op="hit")
        self._maybe_flush_stats()
        return CachedResult(
            job_hash=spec.job_hash,
            kind=entry["kind"],
            value=entry["value"],
            duration_s=float(entry["duration_s"]),
        )

    def _load(self, path: pathlib.Path) -> dict | None:
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            self.stats.corrupt += 1
            self._evict(path)
            return None
        # Signal "present but needs validation" vs "absent" to get().
        return entry if isinstance(entry, dict) else {}

    @staticmethod
    def _evict(path: pathlib.Path) -> None:
        """Best-effort removal: an unwritable store (read-only mount,
        shared CI directory) degrades to recomputation, not a crash."""
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

    def _valid_for(self, entry: dict, spec: JobSpec) -> bool:
        return (
            entry.get("schema") == self.schema_version
            and entry.get("kind") == spec.kind
            and entry.get("key") == spec.key
            and entry.get("job_hash") == spec.job_hash
            and isinstance(entry.get("value"), dict)
            and isinstance(entry.get("duration_s"), (int, float))
        )

    def _locked_get(self, spec: JobSpec) -> CachedResult | None:
        with self._mutex:
            return self.get(spec)

    def _locked_put(self, spec: JobSpec, value: dict, duration_s: float) -> None:
        with self._mutex:
            self.put(spec, value, duration_s)

    async def aget(self, spec: JobSpec) -> CachedResult | None:
        """Async-safe read-through: :meth:`get` off the event loop.

        The lookup (file read + validation + recency stamp) runs in a
        worker thread, serialised against other async accessors of this
        instance by an internal mutex, so an asyncio server can overlap
        cache reads with request handling without blocking the loop.
        """
        return await asyncio.to_thread(self._locked_get, spec)

    async def aput(self, spec: JobSpec, value: dict, duration_s: float) -> None:
        """Async-safe write-through: :meth:`put` off the event loop."""
        await asyncio.to_thread(self._locked_put, spec, value, duration_s)

    def invalidate(self, spec: JobSpec) -> bool:
        """Drop one entry (sharded or legacy flat); True if this call
        removed it.  One unlink, so an entry a concurrent evictor
        deletes first reads as False, never as a removal."""
        self._adopt_flat(spec.job_hash)
        try:
            self.path(spec.job_hash).unlink()
        except FileNotFoundError:
            return False
        return True

    def put(self, spec: JobSpec, value: dict, duration_s: float) -> None:
        """Persist one result atomically into its shard, stamped as the
        most recently used entry, and enforce ``max_bytes`` (evicting
        LRU entries if the running size estimate crosses the cap).

        The temp file lives in the target's own shard so the final
        ``os.replace`` stays on one filesystem and is atomic; it is
        stamped before the replace, so the entry appears already
        carrying its recency.
        """
        self._adopt_flat(spec.job_hash)  # else the old flat copy would linger
        target = self.path(spec.job_hash)
        old_size = 0
        if self.max_bytes is not None and self._approx_bytes is not None:
            try:  # a re-put replaces bytes rather than adding them
                old_size = target.stat().st_size
            except OSError:
                pass
        entry = {
            "schema": self.schema_version,
            "kind": spec.kind,
            "key": spec.key,
            "job_hash": spec.job_hash,
            "value": value,
            "duration_s": float(duration_s),
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            self._stamp(tmp)
            os.replace(tmp, target)
        except BaseException:
            pathlib.Path(tmp).unlink(missing_ok=True)
            raise
        self.stats.stores += 1
        _store_events().inc(op="store")
        # The write-through step of the trace chain: journaled under the
        # ambient span, so a chunk's store writes share its trace ID.
        obs.emit("store.put", job_hash=spec.job_hash, kind=spec.kind)
        self._maybe_flush_stats()
        if self.max_bytes is None:
            return
        if self._approx_bytes is None:
            self._approx_bytes = sum(size for _, _, size, _ in self._scan())
        else:
            try:
                self._approx_bytes += target.stat().st_size - old_size
            except OSError:
                pass
        if self._approx_bytes > self.max_bytes:
            self.evict(int(self.max_bytes * _EVICT_WATERMARK))

    def clear(self) -> int:
        """Remove every entry and the lifetime counters, returning how
        many entries were deleted."""
        n = 0
        for path in self._iter_entries():
            path.unlink(missing_ok=True)
            n += 1
        self._entry_hits = {}
        self.stats_path.unlink(missing_ok=True)
        # Forget unmerged deltas too: a cleared store starts its
        # lifetime counters from zero.
        self._merged_stats = CacheStats(**{
            f: getattr(self.stats, f) for f in _STATS_FIELDS
        })
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

    def __del__(self):  # pragma: no cover - interpreter-exit best effort
        """Flush buffered counter deltas on teardown."""
        try:
            self.flush_stats()
        except Exception:
            pass

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
            removed_hashes: set[str] = set()
            for job_hash, path, size, _ in entries:
                if total <= target_bytes:
                    break
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass  # someone else removed it
                except OSError:
                    continue
                removed_hashes.add(job_hash)
                total -= size
            self._approx_bytes = total
            if removed_hashes:
                self._forget_hits(removed_hashes)
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
        """Entry/byte totals plus lifetime hit/miss counters.

        This is the document the CLI's ``cache stats`` prints: current
        disk usage (``entries``, ``bytes``, ``shards``, ``max_bytes``)
        and the persisted all-run counters under ``lifetime`` (hits,
        misses, stores, corrupt, hit_rate) from :meth:`lifetime_stats`.
        """
        entries = self._scan()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "shards": sum(1 for p in self.root.iterdir()
                          if p.is_dir() and len(p.name) == 2),
            "lifetime": self.lifetime_stats(),
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
