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
run.

:class:`ResultStore` is built for a directory many runs, users and CI
jobs can share:

* **content-addressed two-level layout** — an entry for job hash
  ``abcdef…`` lives at ``ab/abcdef….json``, keeping any one directory
  small enough for fast scans on network filesystems;
* **LRU eviction under a size cap** — every hit and store appends the
  job hash to an append-only index file (``index.log``); eviction
  replays the log to rank entries by recency and deletes the least
  recently used until the store fits ``max_bytes``;
* **concurrent-safe by construction** — entry writes are temp file +
  ``os.replace`` (no torn entries), index appends are single
  ``O_APPEND`` writes (no interleaved lines), log compaction runs
  under an ``fcntl`` file lock, and every scan/stat/unlink tolerates
  entries vanishing mid-operation because another process evicted them.

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

#: One index line: a full SHA-256 job hash.
_HASH_LINE = re.compile(r"^[0-9a-f]{64}$")


def _store_events():
    """The shared ``repro_store_events_total`` counter (labels:
    ``op=hit|miss|store|evict|put_error``) on the process-wide registry;
    ``put_error`` counts serve write-throughs the store refused."""
    return obs.get_registry().counter(
        "repro_store_events_total",
        "Result-store operations by op (hit, miss, store, evict, put_error).")

#: Index size past which a touch triggers opportunistic compaction, so
#: the log stays bounded even on uncapped stores that never evict.
_COMPACT_THRESHOLD_BYTES = 256 * 1024

#: Cap-triggered evictions clear down to this fraction of ``max_bytes``
#: so a store sitting at its cap doesn't pay a full scan-and-evict on
#: every subsequent put — one eviction buys ~10% of cap in headroom.
_EVICT_WATERMARK = 0.9

#: Entries younger than this with no index record are assumed to be a
#: concurrent writer's in-flight results (entry write and index touch
#: are two steps), not stale leftovers, and are evicted last.
_FRESH_GRACE_S = 60.0

#: Cache-hit touches are buffered and appended in batches of this many,
#: so the warm replay path pays a list append per hit instead of an
#: open+flock+write per hit.
_TOUCH_FLUSH_COUNT = 32

#: How long an orphaned temp file (mkstemp leftover from a SIGKILLed
#: writer) must sit untouched before eviction sweeps it.
_DEBRIS_GRACE_S = 3600.0

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
    layout and recency tracking); a cap is enforced after every store,
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
        # Compaction trigger; doubles past the last compacted size so a
        # store whose *deduplicated* index legitimately exceeds the base
        # threshold doesn't recompact on every touch.
        self._compact_floor: int = _COMPACT_THRESHOLD_BYTES
        # Whether the root may still hold older versions' flat entries;
        # resolved on first use (and re-checked at most every
        # _FLAT_RECHECK_S while negative, in case a legacy writer is
        # still active) so stores that never saw the old layout pay an
        # occasional glob, not a stat per operation.
        self._may_have_flat: bool | None = None
        self._flat_checked_at = 0.0
        # Buffered cache-hit touches, flushed in batches (and before
        # any index read) — losing them to a crash costs recency
        # accuracy only.
        self._pending_touches: list[str] = []
        # Per-entry hit-count deltas, merged into the usage.json
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
        # flush_stats through the touch-flush path.
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
        return (p for p in self.root.glob("*.json") if _HASH_LINE.match(p.stem))

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
    def index_path(self) -> pathlib.Path:
        """The append-only recency log driving LRU eviction."""
        return self.root / "index.log"

    @property
    def stats_path(self) -> pathlib.Path:
        """The ``stats.json`` sidecar holding lifetime counter totals."""
        return self.root / "stats.json"

    @property
    def usage_path(self) -> pathlib.Path:
        """The ``usage.json`` sidecar holding per-entry hit counts."""
        return self.root / "usage.json"

    @property
    def _lock_path(self) -> pathlib.Path:
        return self.root / "index.lock"

    # -- recency index ----------------------------------------------------
    def _touch(self, job_hash: str) -> None:
        """Record one use.  Touches are buffered and flushed in batches
        (every ``_TOUCH_FLUSH_COUNT``, and before any index read), so
        the warm hit path costs a list append, not file I/O; a crash
        loses at most a batch of recency records, never an entry."""
        self._pending_touches.append(job_hash)
        if len(self._pending_touches) >= _TOUCH_FLUSH_COUNT:
            self._flush_touches()

    def _flush_touches(self) -> None:
        """Append the buffered touches as one O_APPEND write: concurrent
        processes interleave whole batches, never fragments.  Each
        record's leading newline terminates any torn tail a crashed
        writer left behind, so one torn record can never corrupt the
        next; blank lines are skipped on read.  The append runs under a
        *shared* index lock so it cannot land inside a compactor's
        read-tail→replace window (which holds the lock exclusively) and
        vanish with the old inode; shared holders don't serialise
        against each other.  A write failure (read-only store) costs
        recency accuracy, not correctness."""
        if not self._pending_touches:
            return
        pending, self._pending_touches = self._pending_touches, []
        try:
            with self._index_lock(shared=True):
                with open(self.index_path, "a") as fh:
                    fh.write("".join("\n" + h + "\n" for h in pending))
                    size = fh.tell()
            if size > self._compact_floor:
                self.compact()
        except OSError:
            pass
        # Piggyback the counter merge, but only once enough deltas have
        # accumulated: every put takes this path, and paying stats.json's
        # exclusive-lock read-modify-write per put would serialise
        # concurrent writers that the append path deliberately leaves on
        # the shared lock.  Explicit flush points (``flush_stats``,
        # ``lifetime_stats``, ``usage``, ``__del__``, the CLI, serve
        # shutdown) keep the sidecar exact where it is read.
        self._maybe_flush_stats()

    def _maybe_flush_stats(self) -> None:
        """Merge counter deltas once at least a touch-batch's worth
        (:data:`_TOUCH_FLUSH_COUNT`) has accumulated."""
        delta = sum(
            getattr(self.stats, f) - getattr(self._merged_stats, f)
            for f in _STATS_FIELDS
        )
        if delta >= _TOUCH_FLUSH_COUNT:
            self.flush_stats()

    def _read_index_bytes(self) -> bytes:
        # Callers holding the exclusive lock must have flushed pending
        # touches *before* acquiring it (a flush takes the shared lock,
        # which would deadlock against our own exclusive hold).
        try:
            return self.index_path.read_bytes()
        except OSError:
            return b""

    def _read_index(self) -> str:
        # Undecodable bytes (disk corruption, binary garbage) become
        # replacement chars, fail the hash-line regex, and are skipped —
        # index damage must never crash a sweep.
        return self._read_index_bytes().decode(errors="replace")

    @staticmethod
    def _parse_ranks(text: str) -> dict[str, int]:
        """job_hash → rank of its most recent use (higher = fresher).

        Malformed lines (a torn write from a crash, hand edits) are
        skipped; hashes never logged simply rank as least recent.
        """
        ranks: dict[str, int] = {}
        for i, line in enumerate(text.splitlines()):
            if _HASH_LINE.match(line):
                ranks[line] = i
        return ranks

    def _recency(self) -> dict[str, int]:
        self._flush_touches()
        return self._parse_ranks(self._read_index())

    def compact(self) -> None:
        """Rewrite the index to one record per hash, keeping recency order.

        Runs under the index lock; appends that land while the rewrite
        is in flight are preserved by the tail merge in
        :meth:`_rewrite_index`, never silently dropped.
        """
        self._flush_touches()
        with self._index_lock():
            raw = self._read_index_bytes()
            ranks = self._parse_ranks(raw.decode(errors="replace"))
            ordered = sorted(ranks, key=ranks.get)  # type: ignore[arg-type]
            # The tail offset is the RAW byte length — replacement
            # decoding can inflate the text, and an overshot seek would
            # drop concurrently appended records.
            written = self._rewrite_index(ordered, snapshot_bytes=len(raw))
        self._compact_floor = max(_COMPACT_THRESHOLD_BYTES, 2 * written)

    @contextlib.contextmanager
    def _index_lock(self, shared: bool = False):
        """flock on the sidecar lock file (best effort).

        Exclusive holders (eviction, compaction) exclude everyone;
        shared holders (index appends) exclude only the exclusive ones,
        keeping concurrent readers unserialised.
        """
        if fcntl is None:
            yield
            return
        try:
            fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR)
        except OSError:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing drops the flock

    # -- persisted counters -----------------------------------------------
    def _read_lifetime(self) -> dict[str, int]:
        """The raw totals in ``stats.json`` (zeroes if absent/corrupt)."""
        try:
            raw = json.loads(self.stats_path.read_text())
        except (OSError, ValueError):
            raw = None
        if not isinstance(raw, dict):
            return {f: 0 for f in _STATS_FIELDS}
        out = {}
        for f in _STATS_FIELDS:
            try:
                out[f] = int(raw.get(f, 0))
            except (TypeError, ValueError):
                out[f] = 0
        return out

    def flush_stats(self) -> None:
        """Merge this instance's counter deltas into ``stats.json``.

        The read-modify-write runs under the exclusive index lock and
        lands via temp file + ``os.replace``, so concurrent runs each
        add exactly their own delta — the sidecar accumulates lifetime
        hit/miss/store/corrupt totals across every process that ever
        used the store.  A write failure (read-only store) keeps the
        counters local and is retried at the next flush.  The instance
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
                with self._index_lock():
                    totals = self._read_lifetime()
                    for f in _STATS_FIELDS:
                        totals[f] += delta[f]
                    atomic_write_bytes(self.stats_path, json.dumps(totals).encode())
                    # The replace landed: record the merge *before* any
                    # further failable step, or a later failure would
                    # re-add this delta on the next flush.
                    for f in _STATS_FIELDS:
                        setattr(self._merged_stats, f, getattr(self.stats, f))
                    with contextlib.suppress(OSError):
                        # A failed usage merge keeps its deltas buffered
                        # in _entry_hits for the next flush; it must not
                        # disturb the already-recorded counter merge.
                        self._merge_entry_usage()
            except OSError:
                return

    def lifetime_stats(self) -> dict:
        """Hit/miss/store/corrupt totals across every run of this store.

        Flushes this instance's unmerged counters first, then returns
        the sidecar totals plus a derived ``hit_rate`` — the number the
        serve path and ``repro cache stats`` report as the store's
        all-time cache-hit ratio.
        """
        self.flush_stats()
        totals: dict = self._read_lifetime()
        # Include any delta a failed flush (read-only store) kept local.
        for f in _STATS_FIELDS:
            totals[f] += getattr(self.stats, f) - getattr(self._merged_stats, f)
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return totals

    # -- per-entry usage telemetry ----------------------------------------
    def _read_usage(self) -> dict[str, int]:
        """The raw ``usage.json`` per-entry hit counts (empty if absent
        or corrupt — telemetry damage must never crash a sweep)."""
        try:
            raw = json.loads(self.usage_path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict):
            return {}
        out: dict[str, int] = {}
        for k, v in raw.items():
            if isinstance(k, str) and _HASH_LINE.match(k):
                try:
                    out[k] = int(v)
                except (TypeError, ValueError):
                    continue
        return out

    def _write_usage(self, usage: dict[str, int]) -> None:
        """Atomically replace ``usage.json`` (caller holds the lock)."""
        atomic_write_bytes(self.usage_path, json.dumps(usage).encode())

    def _merge_entry_usage(self) -> None:
        """Add this instance's buffered per-entry hit deltas into
        ``usage.json``.  Runs under the exclusive index lock (called
        from :meth:`flush_stats`), so concurrent processes each add
        exactly their own counts.  Deltas for entries that no longer
        exist (evicted since the hits were buffered) are dropped — the
        sidecar tracks live entries, not the store's history.  A write
        failure keeps the deltas buffered for the next flush."""
        if not self._entry_hits:
            return
        usage = self._read_usage()
        for job_hash, n in self._entry_hits.items():
            if not self.path(job_hash).exists():
                continue
            usage[job_hash] = usage.get(job_hash, 0) + n
        self._write_usage(usage)
        self._entry_hits = {}

    def entry_stats(self, limit: int | None = 20) -> dict:
        """Per-entry usage telemetry: hit counts and an age histogram.

        Flushes buffered counters first, then reports, for every live
        entry, its lifetime hit count (from ``usage.json``) and its age
        (seconds since the entry file was last written).  The ``top``
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
        usage = self._read_usage()
        scanned = self._scan()
        # Drop records whose entry is gone (evicted by a process whose
        # buffered hits merged after the prune): the sidecar tracks
        # live entries only.  Best effort — a lock/write failure just
        # defers the cleanup to the next reader.
        live = {job_hash for job_hash, _, _, _ in scanned}
        if set(usage) - live:
            usage = {h: n for h, n in usage.items() if h in live}
            try:
                with self._index_lock():
                    # Re-read under the lock: a concurrent merge may
                    # have landed since the unlocked read above.
                    fresh = self._read_usage()
                    pruned = {h: n for h, n in fresh.items() if h in live}
                    if len(pruned) != len(fresh):
                        self._write_usage(pruned)
            except OSError:
                pass
        now = time.time()
        hist = {label: 0 for _, label in _AGE_BUCKETS}
        rows = []
        for job_hash, path, size, mtime in scanned:
            age = max(0.0, now - mtime)
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
        hits are touched and counted in the per-entry usage telemetry."""
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
        self._touch(spec.job_hash)
        _store_events().inc(op="hit")
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

        The lookup (file read + validation + recency touch) runs in a
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
        """Persist one result atomically into its shard, touch its
        recency record, and enforce ``max_bytes`` (evicting LRU entries
        if the running size estimate crosses the cap).

        The temp file lives in the target's own shard so the final
        ``os.replace`` stays on one filesystem and is atomic.
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
            os.replace(tmp, target)
        except BaseException:
            pathlib.Path(tmp).unlink(missing_ok=True)
            raise
        self.stats.stores += 1
        self._touch(spec.job_hash)
        _store_events().inc(op="store")
        # The write-through step of the trace chain: journaled under the
        # ambient span, so a chunk's store writes share its trace ID.
        obs.emit("store.put", job_hash=spec.job_hash, kind=spec.kind)
        # A put already pays an entry write; flushing here keeps stored
        # results' recency durable (only hit touches stay buffered).
        self._flush_touches()
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
        """Remove every entry, the recency index and the lifetime
        counters, returning how many entries were deleted."""
        n = 0
        for path in self._iter_entries():
            path.unlink(missing_ok=True)
            n += 1
        self._pending_touches = []
        self._entry_hits = {}
        self.index_path.unlink(missing_ok=True)
        self.stats_path.unlink(missing_ok=True)
        self.usage_path.unlink(missing_ok=True)
        # Forget unmerged deltas too: a cleared store starts its
        # lifetime counters from zero.
        self._merged_stats = CacheStats(**{
            f: getattr(self.stats, f) for f in _STATS_FIELDS
        })
        self._lock_path.unlink(missing_ok=True)
        for pattern in ("*.tmp", "??/*.tmp", "*.idx"):
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
        """Flush buffered touches and counter deltas on teardown."""
        try:
            self._flush_touches()
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
        for pattern in ("*.tmp", "??/*.tmp", "*.idx"):
            for p in self.root.glob(pattern):
                try:
                    if now - p.stat().st_mtime > _DEBRIS_GRACE_S:
                        p.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed

    def _scan(self) -> list[tuple[str, pathlib.Path, int, float]]:
        """(job_hash, path, size, mtime) for every live entry.

        Entries another process deletes between the directory listing
        and the stat are skipped (a shared-store TOCTOU), never a crash.
        """
        out = []
        for path in self._iter_entries():
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((path.stem, path, st.st_size, st.st_mtime))
        return out

    def evict(self, target_bytes: int | None = None) -> int:
        """Delete least-recently-used entries until the store fits.

        ``target_bytes`` defaults to ``max_bytes`` (it must be given
        for an uncapped store).  Returns the number of entries removed.
        Afterwards the index log is compacted to one line per survivor,
        bounding its growth across long-running shared use.
        """
        if target_bytes is None:
            target_bytes = self.max_bytes
        if target_bytes is None:
            raise ValueError("evict() needs target_bytes on an uncapped store")
        if target_bytes < 0:
            raise ValueError("target_bytes must be non-negative")
        self._flush_touches()  # must precede the exclusive lock
        with self._index_lock():
            self._sweep_debris()
            entries = self._scan()
            total = sum(size for _, _, size, _ in entries)
            if total <= target_bytes:
                self._approx_bytes = total
                return 0
            raw_snapshot = self._read_index_bytes()
            ranks = self._parse_ranks(raw_snapshot.decode(errors="replace"))
            # Least recent first.  Unlogged entries are ambiguous: an
            # old one is a leftover whose log was lost (evict first, by
            # mtime), a *fresh* one is a concurrent writer's result
            # whose index touch hasn't landed yet (evict last) — a
            # shared store must not eat a neighbour's newest work.
            now = time.time()

            def lru_key(e):
                job_hash, _, _, mtime = e
                if job_hash in ranks:
                    return (1, ranks[job_hash], mtime)
                if now - mtime < _FRESH_GRACE_S:
                    return (2, 0, mtime)
                return (0, 0, mtime)

            entries.sort(key=lru_key)
            removed = 0
            removed_hashes: set[str] = set()
            survivors = []
            for job_hash, path, size, _ in entries:
                if total > target_bytes:
                    try:
                        path.unlink()
                        removed += 1
                        removed_hashes.add(job_hash)
                    except FileNotFoundError:
                        removed_hashes.add(job_hash)  # someone else removed it
                    except OSError:
                        survivors.append(job_hash)
                        continue
                    total -= size
                else:
                    survivors.append(job_hash)
            self._approx_bytes = total
            survivors.sort(key=lambda h: ranks.get(h, -1))
            written = self._rewrite_index(survivors, snapshot_bytes=len(raw_snapshot))
            self._compact_floor = max(_COMPACT_THRESHOLD_BYTES, 2 * written)
            if removed_hashes:
                # Evicted entries leave the usage telemetry too, so the
                # sidecar tracks live entries, not the store's history.
                usage = self._read_usage()
                pruned = {h: n for h, n in usage.items() if h not in removed_hashes}
                if len(pruned) != len(usage):
                    with contextlib.suppress(OSError):
                        self._write_usage(pruned)
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
        rules as :meth:`evict`: the exclusive index lock serialises
        concurrent evictors, and a neighbour's fresh unlogged entry
        (a write-through whose index touch has not landed yet) is
        evicted last, so forcing eviction during a sweep costs cache
        hits, never correctness.  Returns the number of entries
        removed.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        total = sum(size for _, _, size, _ in self._scan())
        return self.evict(target_bytes=int(total * (1.0 - fraction)))

    def _rewrite_index(self, hashes: list[str], snapshot_bytes: int) -> int:
        """Atomically replace the index with ``hashes`` (one line each),
        re-appending any records other processes logged after the
        ``snapshot_bytes``-long snapshot was read — an unlocked
        ``_touch`` racing a compaction must not lose its recency record
        (an unlogged entry would wrongly rank least-recent).  Appends
        are whole ``\\n``-framed records, so the byte offset always
        lands on a record boundary.  Returns the bytes written."""
        tail = ""
        try:
            with open(self.index_path, "rb") as fh:
                fh.seek(snapshot_bytes)
                tail = fh.read().decode(errors="replace")
        except OSError:
            pass
        content = "".join(h + "\n" for h in hashes) + tail
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".idx")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(content)
            os.replace(tmp, self.index_path)
        except OSError:
            pathlib.Path(tmp).unlink(missing_ok=True)
        return len(content.encode())

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
