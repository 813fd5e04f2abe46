"""Shared result store: layout, LRU eviction, corruption, concurrency.

:class:`~repro.runtime.store.ResultStore` is the piece that lets many
runs — and many *processes* — share one cache directory, so these
tests pin down exactly the behaviours concurrent sharing relies on:

* content-addressed two-level layout (``ab/abcdef….json``);
* LRU eviction under a size cap, with hits — in any instance —
  promoting entries through the entry file's own mtime;
* recovery from corrupted entries;
* two concurrent writer processes sharing one store without lost or
  torn entries, with and without a size cap;
* one ``repro_store_events_total`` count per lookup or write, and no
  sidecar file beside the entries.
"""

import asyncio
import json
import multiprocessing
import pathlib
import sys

import pytest

from repro.runtime import (
    AsyncServer,
    Broker,
    JobResult,
    JobSpec,
    ResultStore,
    canonical_json,
    dse_point_job,
    open_store,
    run_jobs,
    worker_loop,
)
from repro.runtime import obs
from repro.runtime.dispatch import LocalDispatcher
from repro.runtime.obs import MetricsRegistry
from repro.runtime.store import MAX_BYTES_ENV, default_max_bytes

#: Every op ``repro_store_events_total`` counts.
STORE_OPS = ("hit", "miss", "store", "corrupt", "evict", "put_error")


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


@pytest.fixture
def events():
    """A fresh process-wide obs registry; ``events()`` reads its
    ``repro_store_events_total`` as ``{op: count}``."""
    old = obs.set_registry(MetricsRegistry())
    try:
        counter = obs.get_registry().counter("repro_store_events_total")
        yield lambda: {op: counter.value(op=op) for op in STORE_OPS}
    finally:
        obs.set_registry(old)


def moved(events, before: dict) -> dict:
    """The ops whose count changed since ``before`` (a reading of
    ``events()``; ``{}`` for all zeroes), with their deltas."""
    after = events()
    delta = {op: after[op] - before.get(op, 0) for op in STORE_OPS}
    return {op: n for op, n in delta.items() if n}


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
        assert cold.misses == 4
        assert warm.hits == 4
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

    def test_failed_stamp_still_serves_the_hit(self, tmp_path, monkeypatch,
                                               events):
        import os

        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")

        def read_only(*args, **kwargs):
            raise PermissionError("read-only store")

        monkeypatch.setattr(os, "utime", read_only)
        assert store.get(spec).value["tag"] == "a"
        assert events()["hit"] == 1


class TestCorruptionRecovery:
    def test_corrupted_entry_recomputed(self, tmp_path, events):
        store = ResultStore(tmp_path)
        spec = dse_point_job(8)
        run_jobs([spec], cache=store)
        store.path(spec.job_hash).write_text("{ torn write")
        again = run_jobs([spec], cache=store)
        assert events()["corrupt"] == 1
        assert again.misses == 1 and again.results[0].ok
        assert run_jobs([spec], cache=store).hits == 1

    def test_tampered_envelope_evicted(self, tmp_path, events):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        path = store.path(spec.job_hash)
        entry = json.loads(path.read_text())
        entry["key"] = canonical_json({"tag": "tampered"})
        path.write_text(json.dumps(entry))
        assert store.get(spec) is None
        assert events()["corrupt"] == 1
        assert not path.exists()

    def test_undecodable_entry_is_corrupt(self, tmp_path, events):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        path = store.path(spec.job_hash)
        path.write_bytes(b"\xff\xfe\x00 binary garbage \x80")
        assert store.get(spec) is None     # a miss, not a UnicodeDecodeError
        assert events()["corrupt"] == 1
        assert not path.exists()

    @pytest.mark.parametrize("doc", [b"", b"[1, 2]", b'"entry"', b"null", b"7"])
    def test_empty_or_non_object_entry_is_corrupt(self, tmp_path, events, doc):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        path = store.path(spec.job_hash)
        path.write_bytes(doc)
        assert store.get(spec) is None
        assert events()["corrupt"] == 1
        assert not path.exists()

    def test_unreadable_entry_is_a_miss(self, tmp_path, events):
        store = ResultStore(tmp_path)
        spec = blob_spec("a")
        store.path(spec.job_hash).mkdir(parents=True)  # opens, cannot be read
        assert store.get(spec) is None
        assert moved(events, {}) == {"miss": 1}

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


class TestEntryIO:
    """The raw-descriptor reads and writes behind ``get`` and ``put``."""

    def test_entry_bytes_and_mode(self, tmp_path):
        import os
        import stat

        store = ResultStore(tmp_path)
        spec = blob_spec("a")
        value = {"tag": "a", "pad": "x" * 10}
        assert store.put(spec, ok_result(spec, value, duration_s=0.5))
        path = store.path(spec.job_hash)
        envelope = {"schema": store.schema_version, "kind": spec.kind,
                    "key": spec.key, "job_hash": spec.job_hash,
                    "value": value, "duration_s": 0.5}
        assert path.read_bytes() == json.dumps(envelope).encode()
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600

    def test_entry_larger_than_one_read_round_trips(self, tmp_path, events):
        store = ResultStore(tmp_path)
        spec = put_blob(store, "big", pad=200_000)
        assert store.path(spec.job_hash).stat().st_size > 1 << 16
        assert store.get(spec).value["pad"] == "x" * 200_000
        assert events()["hit"] == 1

    def test_short_writes_still_write_the_whole_entry(self, tmp_path,
                                                      monkeypatch):
        import os

        real_write = os.write
        store = ResultStore(tmp_path)
        spec = blob_spec("a")
        with monkeypatch.context() as m:
            m.setattr(os, "write", lambda fd, data: real_write(fd, data[:100]))
            assert store.put(spec, ok_result(spec, {"pad": "y" * 5000}))
        assert len(store.path(spec.job_hash).read_bytes()) > 5000
        assert store.get(spec).value == {"pad": "y" * 5000}

    @pytest.mark.skipif(not pathlib.Path("/proc/self/fd").is_dir(),
                        reason="needs /proc/self/fd")
    def test_no_descriptor_leaks(self, tmp_path, monkeypatch, events):
        import os
        import tempfile

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def refuse(*args, **kwargs):
            raise PermissionError("read-only store")

        def full_disk(*args, **kwargs):
            raise OSError("disk full")

        store = ResultStore(tmp_path)
        store.get(blob_spec("warm-up"))
        before = open_fds()
        for i in range(50):
            spec = blob_spec(f"fd-{i}")
            result = ok_result(spec, {"i": i})
            assert store.get(spec) is None                     # miss
            assert store.put(spec, result)
            store.path(spec.job_hash).write_bytes(b"")
            assert store.get(spec) is None                     # corrupt
            assert store.put(spec, result)
            with monkeypatch.context() as m:
                m.setattr(os, "utime", refuse)
                assert store.get(spec).value == {"i": i}       # stamp refused
                assert not store.put(spec, result)             # stamp refused
                m.setattr(tempfile, "mkstemp", full_disk)
                assert not store.put(spec, result)             # disk full
            assert store.get(spec).value == {"i": i}
        assert open_fds() == before
        assert moved(events, {}) == {"hit": 100, "miss": 51, "corrupt": 50,
                                     "store": 100, "put_error": 100}
        assert not list(tmp_path.glob("??/*.tmp"))


class TestAsyncAccess:
    """The asyncio wrappers the serve path reads and writes through."""

    def test_async_read_write_through(self, tmp_path, events):
        store = ResultStore(tmp_path)
        spec = blob_spec("async")

        async def body():
            assert await store.aget(spec) is None
            assert await store.aput(spec, ok_result(spec, {"tag": "async"}, 0.1))
            hit = await store.aget(spec)
            assert hit is not None and hit.value["tag"] == "async"

        asyncio.run(body())
        assert moved(events, {}) == {"miss": 1, "store": 1, "hit": 1}

    def test_loop_reads_race_thread_writes_without_a_torn_entry(
            self, tmp_path, events):
        # aget reads on the loop thread, unlocked, while aput rewrites
        # the same entries from worker threads.  Entry replaces are
        # atomic, so a read sees no entry or a whole one: nothing is
        # ever counted corrupt, and no count is lost.
        store = ResultStore(tmp_path)
        specs = [blob_spec(f"race-{i}") for i in range(8)]
        writers, passes, reads = 4, 10, 40

        async def write(w):
            for n in range(passes):
                for spec in specs:
                    assert await store.aput(
                        spec, ok_result(spec, {"tag": spec.key, "n": n}))

        async def read():
            hits = 0
            for _ in range(reads):
                for spec in specs:
                    hit = await store.aget(spec)
                    if hit is not None:
                        assert hit.value["tag"] == spec.key
                        hits += 1
                await asyncio.sleep(0)
            return hits

        async def body():
            done = await asyncio.gather(read(), *(write(w) for w in range(writers)))
            return done[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            hits = asyncio.run(asyncio.wait_for(body(), 60))
        finally:
            sys.setswitchinterval(interval)
        counts = moved(events, {})
        assert "corrupt" not in counts and "put_error" not in counts
        assert counts["store"] == writers * passes * len(specs)
        assert counts.get("hit", 0) == hits
        assert counts.get("hit", 0) + counts.get("miss", 0) == reads * len(specs)


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




class TestStoreEvents:
    """``repro_store_events_total`` is the store's only counter: each
    lookup or write moves exactly its own ``op`` by one."""

    def test_each_outcome_moves_exactly_its_own_op(
            self, tmp_path, events, monkeypatch):
        import tempfile

        store = ResultStore(tmp_path)
        spec = blob_spec("a")
        result = ok_result(spec, {"tag": "a"})

        before = events()
        assert store.get(spec) is None
        assert moved(events, before) == {"miss": 1}

        before = events()
        assert store.put(spec, result) is True
        assert moved(events, before) == {"store": 1}

        before = events()
        assert store.get(spec).value == {"tag": "a"}
        assert moved(events, before) == {"hit": 1}

        before = events()
        store.path(spec.job_hash).write_text("{ torn write")
        assert store.get(spec) is None
        assert moved(events, before) == {"corrupt": 1}

        before = events()
        failed = JobResult(spec.job_hash, spec.kind, False, None, "boom", 0.0)
        assert store.put(spec, failed) is False  # never stored, never counted
        assert moved(events, before) == {}

        def full_disk(*args, **kwargs):
            raise OSError("disk full")

        before = events()
        with monkeypatch.context() as m:
            m.setattr(tempfile, "mkstemp", full_disk)
            assert store.put(spec, result) is False
        assert moved(events, before) == {"put_error": 1}

        assert store.put(spec, result) is True
        before = events()
        assert store.evict(0) == 1
        assert moved(events, before) == {"evict": 1}

    def test_counts_follow_a_registry_swap(self, tmp_path):
        """The store holds its counter, yet each count lands in the
        registry in force when the lookup ran."""
        store = ResultStore(tmp_path)
        spec = put_blob(store, "a")
        first, second = MetricsRegistry(), MetricsRegistry()
        old = obs.set_registry(first)
        try:
            assert store.get(spec) is not None
            obs.set_registry(second)
            assert store.get(spec) is not None
            assert store.get(blob_spec("b")) is None
        finally:
            obs.set_registry(old)
        counts = [
            {op: registry.counter("repro_store_events_total").value(op=op)
             for op in ("hit", "miss")}
            for registry in (first, second)
        ]
        assert counts == [{"hit": 1, "miss": 0}, {"hit": 1, "miss": 1}]

    def test_root_holds_only_shards_and_the_lock(self, tmp_path, events):
        """A sweep, a served round and a worker chunk on one store leave
        entries in their shards and no sidecar beside them."""
        root = tmp_path / "store"
        store = ResultStore(root)
        run_jobs([dse_point_job(n) for n in (1, 2)], cache=store)

        async def serve():
            async with AsyncServer(dispatcher=LocalDispatcher("serial"),
                                   cache=store) as srv:
                assert (await srv.submit(dse_point_job(1))).cached
                assert not (await srv.submit(dse_point_job(4))).cached

        asyncio.run(serve())
        broker = Broker(tmp_path / "spool")
        broker.submit([dse_point_job(n) for n in (2, 8)], chunk_size=2)
        assert worker_loop(tmp_path / "spool", store=store, drain=True,
                           poll_s=0.01) == 1
        assert [r.cached for r in broker.collect(timeout=30)] == [True, False]
        assert store.evict(store.size_bytes()) == 0  # takes index.lock
        assert moved(events, {}) == {"miss": 4, "store": 4, "hit": 2}
        assert len(store) == 4
        assert {p.name for p in root.iterdir() if p.is_file()} == {"index.lock"}
        assert all(len(p.name) == 2 for p in root.iterdir() if p.is_dir())
