"""Shared result store: layout, LRU eviction, corruption, concurrency.

:class:`~repro.runtime.store.ResultStore` is the piece that lets many
runs — and many *processes* — share one cache directory, so these
tests pin down exactly the behaviours concurrent sharing relies on:

* content-addressed two-level layout (``ab/abcdef….json``);
* LRU eviction under a size cap, with hits — in any instance —
  promoting entries through the entry file's own mtime;
* recovery from corrupted entries and a corrupted ``stats.json``;
* two concurrent writer processes sharing one store without lost or
  torn entries, with and without a size cap.
"""

import json
import multiprocessing
import pathlib

import pytest

from repro.runtime import (
    JobResult,
    JobSpec,
    ResultStore,
    canonical_json,
    dse_point_job,
    open_store,
    run_jobs,
)
from repro.runtime.store import MAX_BYTES_ENV, default_max_bytes


def blob_spec(tag: str) -> JobSpec:
    """A synthetic spec with a deterministic key (no runner needed —
    these tests drive put/get directly)."""
    return JobSpec(kind="blob", key=canonical_json({"tag": tag}))


def ok_result(spec: JobSpec, value: dict, duration_s: float = 0.0) -> JobResult:
    """A successful computed result for ``spec``."""
    return JobResult(spec.job_hash, spec.kind, True, value, None, duration_s)


def put_blob(store: ResultStore, tag: str, pad: int = 200) -> JobSpec:
    spec = blob_spec(tag)
    store.put(spec, ok_result(spec, {"tag": tag, "pad": "x" * pad}))
    return spec


def entry_hits(store: ResultStore) -> dict:
    """The per-entry hit counts persisted in ``stats.json``."""
    try:
        return json.loads(store.stats_path.read_text())["entries"]
    except FileNotFoundError:
        return {}


class TestLayout:
    def test_two_level_content_addressed_paths(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        path = store.path(spec.job_hash)
        assert path.exists()
        assert path.parent == tmp_path / spec.job_hash[:2]
        assert path.name == f"{spec.job_hash}.json"
        assert store.get(spec).value["tag"] == "a"

    def test_flat_cache_api_still_works_on_store(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [put_blob(store, t) for t in "abc"]
        assert len(store) == 3
        assert store.size_bytes() > 0
        assert store.invalidate(specs[0]) is True
        assert store.invalidate(specs[0]) is False
        assert store.clear() == 2
        assert len(store) == 0
        assert list(tmp_path.iterdir()) == []

    def test_real_jobs_roundtrip_through_sharded_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = [dse_point_job(n) for n in (1, 2, 4, 8)]
        cold = run_jobs(jobs, cache=store)
        warm = run_jobs(jobs, cache=ResultStore(tmp_path))  # fresh instance
        assert cold.stats.misses == 4
        assert warm.stats.hits == 4
        assert [r.value for r in warm.results] == [r.value for r in cold.results]

    def test_open_store_env_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env_store"))
        monkeypatch.setenv(MAX_BYTES_ENV, "12345")
        store = open_store()
        assert store.root == tmp_path / "env_store"
        assert store.max_bytes == 12345
        monkeypatch.setenv(MAX_BYTES_ENV, "not-a-number")
        with pytest.raises(ValueError, match=MAX_BYTES_ENV):
            default_max_bytes()


class TestLRUEviction:
    def test_lru_order_under_explicit_evict(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [put_blob(store, t) for t in "abcd"]
        sizes = {s.job_hash: store.path(s.job_hash).stat().st_size for s in specs}
        store.get(specs[0])  # promote "a" to most recently used
        keep_two = sizes[specs[0].job_hash] + sizes[specs[3].job_hash]
        removed = store.evict(keep_two)
        assert removed == 2
        # Promoted "a" and freshest "d" survive; "b" and "c" (least
        # recently used) are gone.
        assert store.get(specs[0]) is not None
        assert store.get(specs[3]) is not None
        assert store.get(specs[1]) is None
        assert store.get(specs[2]) is None

    def test_cap_enforced_on_every_put(self, tmp_path):
        one_entry = len(json.dumps({"tag": "a", "pad": "x" * 200})) + 200
        store = ResultStore(tmp_path, max_bytes=3 * one_entry)
        for t in "abcdefgh":
            put_blob(store, t)
            assert store.size_bytes() <= store.max_bytes
        # The most recent put always survives its own cap enforcement.
        assert store.get(blob_spec("h")) is not None
        assert store.get(blob_spec("a")) is None

    def test_evict_to_zero_empties_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        for t in "ab":
            put_blob(store, t)
        assert store.evict(0) == 2
        assert len(store) == 0

    def test_shrink_drops_the_lru_fraction(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [put_blob(store, t) for t in "abcd"]
        store.get(specs[0])  # a is now most recent
        assert store.shrink(0.5) >= 2
        assert store.get(specs[0]) is not None  # the hot entry survives
        assert store.get(specs[1]) is None

    def test_shrink_full_fraction_empties_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        for t in "ab":
            put_blob(store, t)
        assert store.shrink(1.0) == 2
        assert len(store) == 0
        assert store.shrink(1.0) == 0  # idempotent on empty

    def test_shrink_validates_fraction(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                store.shrink(bad)

    def test_evict_needs_a_target_on_uncapped_store(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="target_bytes"):
            store.evict()
        with pytest.raises(ValueError):
            store.evict(-1)
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=-5)

    def test_stale_unlogged_entries_rank_least_recent(self, tmp_path):
        # An entry whose mtime was aged (a leftover nobody has hit since)
        # goes first, whatever order the puts ran in.
        import os
        import time

        store = ResultStore(tmp_path)
        new = put_blob(store, "new")
        old = put_blob(store, "old")
        stale = time.time() - 3600
        os.utime(store.path(old.job_hash), (stale, stale))
        store.evict(store.path(new.job_hash).stat().st_size)
        assert store.get(new) is not None
        assert store.get(old) is None

    def test_fresh_unlogged_entries_evicted_last(self, tmp_path):
        # Another instance's fresh write carries the newest stamp, so an
        # evictor never eats a neighbour's newest work — even over
        # entries the evictor itself just hit.
        evictor = ResultStore(tmp_path)
        mine = [put_blob(evictor, t) for t in "ab"]
        for spec in mine:
            assert evictor.get(spec) is not None
        fresh = put_blob(ResultStore(tmp_path), "fresh")
        evictor.evict(evictor.path(fresh.job_hash).stat().st_size)
        assert evictor.get(fresh) is not None
        assert all(evictor.get(spec) is None for spec in mine)

    def test_hit_in_another_instance_counts_for_recency(self, tmp_path):
        # Regression: run B's hit on "a" must be visible to run A's
        # eviction at once, not sit in B's process until a flush.
        run_a = ResultStore(tmp_path)
        a, b = put_blob(run_a, "a"), put_blob(run_a, "b")
        run_b = ResultStore(tmp_path)
        assert run_b.get(a) is not None
        assert run_a.evict(run_a.path(a.job_hash).stat().st_size) == 1
        assert run_a.path(a.job_hash).exists()
        assert not run_a.path(b.job_hash).exists()

    def test_puts_and_hits_stamp_time_ns(self, tmp_path, monkeypatch):
        # Kernel mtimes advance once per clock tick at best; the store's
        # explicit time_ns stamps keep back-to-back uses in order.
        import itertools

        import repro.runtime.store as store_mod

        ticks = itertools.count(1_700_000_000_000_000_001, 7)
        handed = []

        def fake_time_ns():
            handed.append(next(ticks))
            return handed[-1]

        monkeypatch.setattr(store_mod.time, "time_ns", fake_time_ns)
        store = ResultStore(tmp_path)
        a, b = put_blob(store, "a"), put_blob(store, "b")
        assert store.get(a) is not None
        stamp_a, stamp_b = (store.path(s.job_hash).stat().st_mtime_ns
                            for s in (a, b))
        assert stamp_b in handed and stamp_a == handed[-1] > stamp_b

    def test_failed_stamp_still_serves_the_hit(self, tmp_path, monkeypatch):
        import os

        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")

        def read_only(*args, **kwargs):
            raise PermissionError("read-only store")

        monkeypatch.setattr(os, "utime", read_only)
        assert store.get(spec).value["tag"] == "a"
        assert store.stats.hits == 1


class TestCorruptionRecovery:
    def test_corrupted_entry_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = dse_point_job(8)
        run_jobs([spec], cache=store)
        store.path(spec.job_hash).write_text("{ torn write")
        again = run_jobs([spec], cache=store)
        assert store.stats.corrupt == 1
        assert again.stats.misses == 1 and again.results[0].ok
        assert run_jobs([spec], cache=store).stats.hits == 1

    def test_tampered_envelope_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        path = store.path(spec.job_hash)
        entry = json.loads(path.read_text())
        entry["key"] = canonical_json({"tag": "tampered"})
        path.write_text(json.dumps(entry))
        assert store.get(spec) is None
        assert store.stats.corrupt == 1
        assert not path.exists()

    def test_debris_swept_on_evict_and_clear(self, tmp_path):
        import os
        import time

        store = ResultStore(tmp_path)
        put_blob(store, "a")
        dead = tmp_path / "tmpdead.tmp"      # SIGKILLed writer's leftover
        dead.write_text("partial")
        stale = time.time() - 7200
        os.utime(dead, (stale, stale))
        live = tmp_path / "tmplive.tmp"      # an in-flight writer's temp
        live.write_text("in-flight")
        store.evict(0)
        assert not dead.exists()             # reclaimed past the grace period
        assert live.exists()                 # fresh temp left alone
        store.clear()
        assert not live.exists()             # clear wipes unconditionally


class TestLifetimeStats:
    """The persisted hit/miss counters behind ``repro cache stats`` and
    the serve path's cache-hit ratio."""

    def test_counters_accumulate_across_instances(self, tmp_path):
        s1 = ResultStore(tmp_path)
        spec = put_blob(s1, "a")           # 1 store
        assert s1.get(spec) is not None    # 1 hit
        s1.flush_stats()

        s2 = ResultStore(tmp_path)
        assert s2.get(spec) is not None    # 1 hit (second run)
        assert s2.get(blob_spec("absent")) is None  # 1 miss
        s2.flush_stats()

        life = ResultStore(tmp_path).lifetime_stats()
        assert life["hits"] == 2
        assert life["misses"] == 1
        assert life["stores"] == 1
        assert life["hit_rate"] == pytest.approx(2 / 3)

    def test_lifetime_includes_unflushed_deltas(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        store.get(spec)                    # hit still buffered
        life = store.lifetime_stats()      # flushes, then reads
        assert life["hits"] == 1 and life["stores"] == 1
        assert store.stats_path.exists()

    def test_clear_resets_lifetime_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        store.get(spec)
        store.flush_stats()
        store.clear()
        assert not store.stats_path.exists()
        life = ResultStore(tmp_path).lifetime_stats()
        assert life["hits"] == 0 and life["stores"] == 0
        # The clearing instance's already-merged counters don't re-merge.
        store.flush_stats()
        assert ResultStore(tmp_path).lifetime_stats()["hits"] == 0

    def test_corrupt_sidecar_degrades_to_zeroes(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        store.stats_path.write_text("{ torn")
        store.get(spec)
        life = store.lifetime_stats()      # rewrites through the damage
        assert life["hits"] == 1
        assert json.loads(store.stats_path.read_text())["hits"] == 1

    def test_sidecar_is_not_an_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        put_blob(store, "a")
        store.flush_stats()
        assert store.stats_path.exists()
        assert len(store) == 1             # stats.json never counted
        assert store.usage()["entries"] == 1
        store.evict(0)                     # ... and never evicted
        assert store.stats_path.exists()
        assert len(store) == 0

    def test_cli_stats_reports_lifetime_counters(self, tmp_path, capsys):
        from repro.runtime.cli import main

        cache_dir = str(tmp_path)
        main(["sweep", "--slices", "1,8", "--cache-dir", cache_dir, "--quiet"])
        main(["sweep", "--slices", "1,8", "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "lifetime: 2 hit(s), 2 miss(es) (hit rate 50%), 2 stored" in out

    def test_async_read_write_through(self, tmp_path):
        import asyncio

        store = ResultStore(tmp_path)
        spec = blob_spec("async")

        async def body():
            assert await store.aget(spec) is None
            assert await store.aput(spec, ok_result(spec, {"tag": "async"}, 0.1))
            hit = await store.aget(spec)
            assert hit is not None and hit.value["tag"] == "async"

        asyncio.run(body())
        assert store.lifetime_stats()["hits"] == 1


def _writer(root: str, writer_id: int, n: int, max_bytes) -> None:
    store = ResultStore(pathlib.Path(root), max_bytes=max_bytes)
    for i in range(n):
        put_blob(store, f"w{writer_id}-{i}")


class TestConcurrentWriters:
    N_PER_WRITER = 25

    def _run_writers(self, root, max_bytes=None) -> None:
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_writer,
                        args=(str(root), w, self.N_PER_WRITER, max_bytes))
            for w in (1, 2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

    def test_two_writers_no_lost_or_torn_entries(self, tmp_path):
        self._run_writers(tmp_path)
        store = ResultStore(tmp_path)
        assert len(store) == 2 * self.N_PER_WRITER
        for w in (1, 2):
            for i in range(self.N_PER_WRITER):
                hit = store.get(blob_spec(f"w{w}-{i}"))
                assert hit is not None, f"lost entry w{w}-{i}"
                assert hit.value["tag"] == f"w{w}-{i}"
        # Every file on disk parses as a complete envelope (no torn JSON).
        for path in store._iter_entries():
            json.loads(path.read_text())

    def test_two_writers_with_cap_stay_consistent(self, tmp_path):
        entry_size = 300  # generous upper bound per entry
        cap = 10 * entry_size
        self._run_writers(tmp_path, max_bytes=cap)
        store = ResultStore(tmp_path)
        # The cap may be overshot by at most the writes that raced the
        # final evictions — never unboundedly.
        assert store.size_bytes() <= cap + 2 * entry_size
        for path in store._iter_entries():
            entry = json.loads(path.read_text())  # no torn files
            assert {"schema", "kind", "key", "job_hash", "value"} <= set(entry)

    def test_evicting_under_a_concurrent_reader_skips_vanished(self, tmp_path):
        # Single-process stand-in for the cross-process race: an entry
        # listed by the scan disappears before it can be statted.
        store = ResultStore(tmp_path)
        for t in "abcd":
            put_blob(store, t)
        real_scan = store._scan

        def racing_scan():
            entries = real_scan()
            victim = entries[0][1]
            victim.unlink()  # a concurrent evictor beats us to it
            return entries

        store._scan = racing_scan
        store.evict(0)  # must not raise despite the vanished entry
        assert len(ResultStore(tmp_path)) == 0


def _hitter(root: str, n: int) -> None:
    store = ResultStore(pathlib.Path(root))
    specs = [blob_spec(t) for t in "abc"]
    for i in range(n):
        assert store.get(specs[i % 3]) is not None
    store.flush_stats()


class TestEntryTelemetry:
    """Per-entry hit counts + age histogram (`repro cache stats --detail`)."""

    def test_hits_are_counted_per_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        a, b = put_blob(store, "a"), put_blob(store, "b")
        for _ in range(3):
            assert store.get(a) is not None
        assert store.get(b) is not None
        detail = store.entry_stats()
        assert detail["entries"] == 2
        assert detail["tracked_hits"] == 4
        by_hash = {r["hash"]: r for r in detail["top"]}
        assert by_hash[a.job_hash]["hits"] == 3
        assert by_hash[b.job_hash]["hits"] == 1
        # Top list is sorted by hits, carries kind and compute cost.
        assert detail["top"][0]["hash"] == a.job_hash
        assert detail["top"][0]["kind"] == "blob"
        assert detail["top"][0]["duration_s"] == 0.0

    def test_counts_accumulate_across_instances(self, tmp_path):
        a = put_blob(ResultStore(tmp_path), "a")
        for _ in range(2):
            s = ResultStore(tmp_path)
            assert s.get(a) is not None
            s.flush_stats()
        detail = ResultStore(tmp_path).entry_stats()
        assert detail["tracked_hits"] == 2

    def test_age_histogram_buckets_every_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        for tag in "abc":
            put_blob(store, tag)
        hist = store.entry_stats()["age_histogram"]
        assert sum(hist.values()) == 3
        assert hist["<1m"] == 3

    def test_top_limit(self, tmp_path):
        store = ResultStore(tmp_path)
        for tag in "abcdef":
            put_blob(store, tag)
        detail = store.entry_stats(limit=2)
        assert len(detail["top"]) == 2 and detail["entries"] == 6

    def test_eviction_prunes_usage_records(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [put_blob(store, t) for t in "abcd"]
        for spec in specs:
            assert store.get(spec) is not None
        store.flush_stats()
        assert len(entry_hits(store)) == 4
        store.evict(0)  # everything goes
        assert entry_hits(store) == {}
        assert store.entry_stats()["entries"] == 0

    def test_clear_removes_usage_sidecar(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        assert store.get(spec) is not None
        store.flush_stats()
        assert entry_hits(store) == {spec.job_hash: 1}
        store.clear()
        assert not store.stats_path.exists()
        assert store.entry_stats()["tracked_hits"] == 0

    def test_corrupt_usage_sidecar_degrades_to_empty(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        store.stats_path.write_text(json.dumps(
            {"hits": 5, "entries": {spec.job_hash: "many", "not-a-hash": 3}}))
        assert store.get(spec) is not None  # reads still work
        store.flush_stats()                 # merge over the bad records
        detail = store.entry_stats()
        assert detail["top"][0]["hits"] == 1
        assert store.lifetime_stats()["hits"] == 6
        store.stats_path.write_bytes(b"\xff\xfe binary garbage")
        assert store.entry_stats()["tracked_hits"] == 0

    def test_failed_usage_merge_never_double_counts_lifetime_stats(
            self, tmp_path, monkeypatch):
        """A sidecar write that fails once and is retried counts each
        hit — lifetime and per-entry — exactly once."""
        import repro.runtime.store as store_mod

        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        assert store.get(spec) is not None
        original = store_mod.atomic_write_bytes
        calls = {"n": 0}

        def flaky(path, data):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("disk full")
            return original(path, data)

        monkeypatch.setattr(store_mod, "atomic_write_bytes", flaky)
        store.flush_stats()  # the one sidecar write fails: nothing merged
        assert not store.stats_path.exists()
        store.flush_stats()  # retry merges every delta once
        store.flush_stats()  # nothing left to add
        assert calls["n"] == 2
        doc = json.loads(store.stats_path.read_text())
        assert doc == {"hits": 1, "misses": 0, "stores": 1, "corrupt": 0,
                       "entries": {spec.job_hash: 1}}

    def test_buffered_hits_for_evicted_entries_are_dropped(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        assert store.get(spec) is not None  # hit buffered, not yet merged
        store.evict(0)                      # entry gone before the flush
        store.flush_stats()
        assert entry_hits(store) == {}

    def test_entry_stats_prunes_dead_usage_records(self, tmp_path):
        store = ResultStore(tmp_path)
        put_blob(store, "a")
        dead = "f" * 64
        store.stats_path.write_text(json.dumps({"hits": 7, "entries": {dead: 7}}))
        detail = store.entry_stats()
        assert detail["tracked_hits"] == 0
        assert dead not in entry_hits(store)
        assert store.lifetime_stats()["hits"] == 7  # totals survive the prune

    def test_one_sidecar_and_no_recency_log(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [put_blob(store, t) for t in "ab"]
        for spec in specs:
            assert store.get(spec) is not None
        store.flush_stats()
        store.evict(store.path(specs[1].job_hash).stat().st_size)
        names = {p.name for p in tmp_path.iterdir() if p.is_file()}
        assert names == {"stats.json", "index.lock"}

    def test_entry_stats_tolerates_non_dict_entry_json(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        store.path(spec.job_hash).write_text("[]")  # valid JSON, not an object
        detail = store.entry_stats()
        assert detail["top"][0]["kind"] is None
        assert detail["top"][0]["duration_s"] is None

    def test_concurrent_sidecar_merges_lose_no_hit(self, tmp_path):
        # Four processes (more than cores) re-stamp the same entries and
        # merge into stats.json every few dozen hits: a lost update in
        # the locked read-modify-write would drop counts.
        seed = ResultStore(tmp_path)
        for t in "abc":
            put_blob(seed, t)
        seed.flush_stats()
        ctx = multiprocessing.get_context()
        procs = [ctx.Process(target=_hitter, args=(str(tmp_path), 100))
                 for _ in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        life = ResultStore(tmp_path).lifetime_stats()
        assert life["hits"] == 400 and life["stores"] == 3
        assert sum(entry_hits(seed).values()) == 400
