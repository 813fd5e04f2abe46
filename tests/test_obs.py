"""Observability core: metrics registry, trace spans, event journal.

Covers what the integration suites (``test_dist.py``, ``test_serve.py``)
assume: labeled counters/gauges/histograms that snapshot to JSON and
merge across processes, Prometheus text rendering, span nesting and
context adoption, journal append semantics under concurrent writers
(threads sharing one descriptor and forked processes appending to one
file), per-process snapshot flush/merge, and the configure/env gates
that keep all of it a no-op when observability is off.
"""

import json
import multiprocessing
import os
import re
import threading

import pytest

from repro.runtime import obs
from repro.runtime.obs import (
    Histogram,
    Journal,
    MetricsRegistry,
    SpanContext,
    read_journal,
)


@pytest.fixture(autouse=True)
def _isolated_obs(monkeypatch):
    # Every test runs with a private registry and observability off;
    # tests that need a journal call obs.configure themselves.
    old = obs.set_registry(MetricsRegistry())
    monkeypatch.delenv(obs.OBS_DIR_ENV, raising=False)
    obs.configure(False)
    yield
    obs.configure(False)
    obs.set_registry(old)


class TestCountersAndGauges:
    def test_counter_labels_value_total(self):
        c = MetricsRegistry().counter("jobs_total", "help text")
        c.inc(kind="eval", status="ok")
        c.inc(2, kind="eval", status="ok")
        c.inc(kind="eval", status="failed")
        assert c.value(kind="eval", status="ok") == 3
        assert c.value(status="ok", kind="eval") == 3  # order-insensitive
        assert c.value(kind="eval", status="failed") == 1
        assert c.value(kind="never") == 0.0
        assert c.total() == 4

    def test_counter_rejects_negative_increment(self):
        c = MetricsRegistry().counter("jobs_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_sets_and_goes_negative(self):
        g = MetricsRegistry().gauge("queue_depth")
        g.set(5, shard="a")
        g.inc(-2, shard="a")
        assert g.value(shard="a") == 3
        g.set(-1, shard="a")
        assert g.value(shard="a") == -1


class TestLabelKey:
    @staticmethod
    def sorted_key(labels):
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    @pytest.mark.parametrize("labels", [
        {},
        {"op": "store"},
        {"kind": "sample_eval", "status": "ok"},
        {"status": "ok", "kind": "sample_eval"},
        {"b": 1, "a": 2.5},
        {"a": None, "b": True},
        {1: "x", "1": "y"},
        {"z": "1", "y": 2, "x": None, "w": "v"},
    ])
    def test_fast_paths_give_the_sorted_key(self, labels):
        assert obs._label_key(labels) == self.sorted_key(labels)
        assert all(type(s) is str for pair in obs._label_key(labels) for s in pair)

    def test_non_str_values_share_the_str_series(self):
        c = MetricsRegistry().counter("x")
        c.inc(worker=7)
        c.inc(worker="7")
        assert c.value(worker=7) == 2


class TestHistogram:
    def test_observe_count_and_quantile(self):
        h = Histogram("latency", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5):
            h.observe(v)
        assert h.count() == 4
        assert h.quantile(0) == 0.01    # nearest rank 1 -> first bucket
        assert h.quantile(50) == 0.1
        assert h.quantile(100) == 1.0
        h.observe(5.0)  # overflow lands past the last bound
        assert h.quantile(100) == 1.0   # reported at bucket resolution
        assert h.count() == 5

    def test_quantile_validates_and_handles_empty(self):
        h = Histogram("latency", buckets=(1.0,))
        assert h.quantile(99) == 0.0
        with pytest.raises(ValueError):
            h.quantile(101)

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("latency", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.names() == ["a"]

    def test_kind_mismatch_is_an_error(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("a")
        with pytest.raises(ValueError, match="already registered"):
            r.histogram("a")

    def test_snapshot_merge_round_trip(self):
        src = MetricsRegistry()
        src.counter("jobs", "n").inc(3, kind="eval")
        src.gauge("depth").set(7)
        src.histogram("lat", buckets=(0.1, 1.0)).observe(0.05, op="get")
        dst = MetricsRegistry()
        dst.counter("jobs").inc(1, kind="eval")
        dst.merge(src.snapshot())
        dst.merge(src.snapshot())  # fleet view: two identical workers
        assert dst.counter("jobs").value(kind="eval") == 7
        assert dst.gauge("depth").value() == 14
        assert dst.histogram("lat", buckets=(0.1, 1.0)).count(op="get") == 2

    def test_merge_rejects_schema_and_kind_mismatches(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError, match="schema"):
            r.merge({"schema": 999, "metrics": {}})
        with pytest.raises(ValueError, match="unknown kind"):
            r.merge({"schema": obs.OBS_SCHEMA,
                     "metrics": {"x": {"kind": "summary", "series": []}}})

    def test_merge_rejects_histogram_bucket_mismatch(self):
        a = MetricsRegistry()
        a.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        b = MetricsRegistry()
        b.histogram("lat", buckets=(0.2, 2.0)).observe(0.05)
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_snapshot_is_json_serializable(self):
        r = MetricsRegistry()
        r.counter("jobs").inc(kind="eval")
        r.histogram("lat").observe(0.2)
        doc = json.loads(json.dumps(r.snapshot()))
        assert doc["schema"] == obs.OBS_SCHEMA
        assert set(doc["metrics"]) == {"jobs", "lat"}


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        r = MetricsRegistry()
        r.counter("repro_jobs_total", "Jobs by status.").inc(2, status="ok")
        r.gauge("repro_depth").set(3)
        text = r.render_prometheus()
        assert "# HELP repro_jobs_total Jobs by status.\n" in text
        assert "# TYPE repro_jobs_total counter\n" in text
        assert 'repro_jobs_total{status="ok"} 2\n' in text
        assert "# TYPE repro_depth gauge\n" in text
        assert "repro_depth 3\n" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = r.render_prometheus()
        assert 'lat_bucket{le="0.1"} 1\n' in text
        assert 'lat_bucket{le="1"} 2\n' in text
        assert 'lat_bucket{le="+Inf"} 3\n' in text
        assert "lat_sum 5.55\n" in text
        assert "lat_count 3\n" in text

    def test_label_values_are_escaped(self):
        r = MetricsRegistry()
        r.counter("c").inc(path='a"b\\c\nd')
        text = r.render_prometheus()
        assert r'c{path="a\"b\\c\nd"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestSpans:
    def test_root_span_starts_a_trace(self):
        with obs.span("outer") as ctx:
            assert obs.current_span() is ctx
            assert ctx.parent_id is None
            assert len(ctx.trace_id) == 16
        assert obs.current_span() is None

    def test_new_ids_are_16_hex_digits(self):
        ids = {obs.new_id() for _ in range(64)}
        assert len(ids) == 64
        for span_id in ids:
            assert re.fullmatch("[0-9a-f]{16}", span_id)

    def test_nested_span_shares_trace_and_links_parent(self):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert inner.span_id != outer.span_id
            assert obs.current_span() is outer

    def test_activate_adopts_a_deserialized_context(self):
        wire = SpanContext(trace_id="t" * 16, span_id="s" * 16).to_doc()
        ctx = SpanContext.from_doc(wire)
        with obs.activate(ctx):
            with obs.span("child") as child:
                assert child.trace_id == "t" * 16
                assert child.parent_id == "s" * 16
        assert obs.current_span() is None

    def test_activate_none_is_a_no_op(self):
        with obs.activate(None):
            with obs.span("root") as ctx:
                assert ctx.parent_id is None

    def test_span_journals_duration_and_status(self, tmp_path):
        obs.configure(tmp_path)
        with obs.span("work", items=3):
            pass
        with pytest.raises(RuntimeError):
            with obs.span("broken"):
                raise RuntimeError("boom")
        events = read_journal(tmp_path / "journal.ndjson")
        by_name = {e["event"]: e for e in events}
        assert by_name["work"]["status"] == "ok"
        assert by_name["work"]["items"] == 3
        assert by_name["work"]["duration_s"] >= 0.0
        assert by_name["broken"]["status"] == "RuntimeError"


class TestJournal:
    def test_emit_record_fields_and_seq(self, tmp_path):
        j = Journal(tmp_path / "j.ndjson")
        ctx = SpanContext(trace_id="t" * 16, span_id="s" * 16, parent_id="p" * 16)
        j.emit("chunk.submit", ctx=ctx, chunk="c-0", jobs=4)
        j.emit("chunk.complete", ctx=ctx)
        j.close()
        events = read_journal(tmp_path / "j.ndjson")
        assert [e["seq"] for e in events] == [1, 2]
        first = events[0]
        assert first["event"] == "chunk.submit"
        assert first["trace_id"] == "t" * 16
        assert first["span_id"] == "s" * 16
        assert first["parent_id"] == "p" * 16
        assert first["chunk"] == "c-0" and first["jobs"] == 4
        assert first["proc"] == obs.PROC_ID

    def test_read_journal_skips_torn_and_blank_lines(self, tmp_path):
        path = tmp_path / "j.ndjson"
        path.write_text('{"event": "a", "seq": 1}\n\n{"event": "b", "se')
        events = read_journal(path)
        assert [e["event"] for e in events] == ["a"]
        assert read_journal(tmp_path / "missing.ndjson") == []

    def test_concurrent_thread_writers_never_tear_lines(self, tmp_path):
        j = Journal(tmp_path / "j.ndjson")
        threads = [
            threading.Thread(target=lambda w=w: [
                j.emit("tick", writer=w, payload="x" * 256) for _ in range(100)
            ])
            for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        j.close()
        events = read_journal(tmp_path / "j.ndjson")
        assert len(events) == 800  # every line parsed -> none torn
        # One shared descriptor: seq totally orders the file's events.
        assert sorted(e["seq"] for e in events) == list(range(1, 801))

    def test_forked_writers_interleave_whole_lines(self, tmp_path):
        """Forked children append to the inherited descriptor; the
        at-fork hook gives each a fresh PROC_ID and seq scope, so the
        shared file stays totally ordered per process."""
        obs.configure(tmp_path)
        obs.emit("parent.start")

        def child(i):
            for n in range(50):
                obs.emit("child.tick", writer=i, payload="y" * 128)
            os._exit(0)

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=child, args=(i,)) for i in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)
        events = read_journal(tmp_path / "journal.ndjson")
        ticks = [e for e in events if e["event"] == "child.tick"]
        assert len(ticks) == 200
        by_proc = {}
        for e in ticks:
            by_proc.setdefault(e["proc"], []).append(e["seq"])
        assert len(by_proc) == 4  # distinct identity per forked child
        parent_proc = next(e["proc"] for e in events
                           if e["event"] == "parent.start")
        assert parent_proc not in by_proc
        for seqs in by_proc.values():
            assert seqs == sorted(seqs) == list(range(1, 51))


class TestJournalTailer:
    """Incremental journal tailing under truncation, rotation and
    deletion — what ``repro top`` and the supervisor scanner sit on."""

    @staticmethod
    def _append(path, *docs):
        with open(path, "a", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc) + "\n")

    def test_polls_are_incremental(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        tailer = obs.JournalTailer(path)
        assert tailer.poll() == []  # not created yet: no error
        self._append(path, {"event": "a"}, {"event": "b"})
        assert [e["event"] for e in tailer.poll()] == ["a", "b"]
        assert tailer.poll() == []  # nothing new
        self._append(path, {"event": "c"})
        assert [e["event"] for e in tailer.poll()] == ["c"]
        assert tailer.resets == 0

    def test_truncated_journal_restarts_from_zero(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        self._append(path, {"event": "old-1"}, {"event": "old-2"})
        tailer = obs.JournalTailer(path)
        assert len(tailer.poll()) == 2
        # An operator truncates the journal in place (same inode).
        path.write_text("")
        self._append(path, {"event": "fresh"})
        assert [e["event"] for e in tailer.poll()] == ["fresh"]
        assert tailer.resets == 1

    def test_rotated_journal_is_detected_by_inode(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        self._append(path, {"event": "gen-1"})
        tailer = obs.JournalTailer(path)
        assert len(tailer.poll()) == 1
        # logrotate-style: move aside, recreate at the same path.  The
        # replacement is *longer* than the read offset, so only the
        # inode change can reveal the rotation.
        path.rename(tmp_path / "journal.ndjson.1")
        self._append(path, {"event": "gen-2-a"}, {"event": "gen-2-b"})
        assert [e["event"] for e in tailer.poll()] == ["gen-2-a", "gen-2-b"]
        assert tailer.resets == 1

    def test_deleted_then_recreated_journal(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        self._append(path, {"event": "before"})
        tailer = obs.JournalTailer(path)
        assert len(tailer.poll()) == 1
        path.unlink()
        assert tailer.poll() == []  # gone: reset, no crash
        self._append(path, {"event": "after"})
        assert [e["event"] for e in tailer.poll()] == ["after"]
        assert tailer.resets >= 1

    def test_partial_line_is_buffered_until_complete(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"event": "whole"}\n{"event": "to')
        tailer = obs.JournalTailer(path)
        assert [e["event"] for e in tailer.poll()] == ["whole"]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('rn"}\nnot json at all\n{"event": "next"}\n')
        # The torn tail completes across polls; garbage lines skip.
        assert [e["event"] for e in tailer.poll()] == ["torn", "next"]

    def test_journal_writer_feeds_the_tailer(self, tmp_path):
        obs.configure(tmp_path)
        tailer = obs.JournalTailer(tmp_path / "journal.ndjson")
        obs.emit("unit.test", x=1)
        obs.emit("unit.test", x=2)
        events = [e for e in tailer.poll() if e["event"] == "unit.test"]
        assert [e["x"] for e in events] == [1, 2]


class TestFlushAndReadMetrics:
    def test_flush_then_read_merges_fleet_snapshots(self, tmp_path):
        obs.configure(tmp_path)
        obs.get_registry().counter("repro_jobs_total").inc(5, kind="eval")
        path = obs.flush_metrics()
        assert path is not None and path.parent == tmp_path / "metrics"
        # A second process's snapshot, written independently.
        other = MetricsRegistry()
        other.counter("repro_jobs_total").inc(2, kind="eval")
        doc = other.snapshot()
        doc["proc"] = "otherhost-1-abcdef"
        (tmp_path / "metrics" / "otherhost-1-abcdef.json").write_text(
            json.dumps(doc))
        merged = obs.read_metrics(tmp_path)
        assert merged.counter("repro_jobs_total").value(kind="eval") == 7

    def test_flush_is_idempotent_not_additive(self, tmp_path):
        obs.configure(tmp_path)
        obs.get_registry().counter("c").inc(3)
        obs.flush_metrics()
        obs.flush_metrics()  # same proc file overwritten, not doubled
        assert obs.read_metrics(tmp_path).counter("c").total() == 3

    def test_read_metrics_skips_unreadable_snapshots(self, tmp_path):
        (tmp_path / "metrics").mkdir(parents=True)
        (tmp_path / "metrics" / "bad.json").write_text("{not json")
        good = MetricsRegistry()
        good.counter("c").inc()
        (tmp_path / "metrics" / "good.json").write_text(
            json.dumps(good.snapshot()))
        assert obs.read_metrics(tmp_path).counter("c").total() == 1

    def test_flush_without_obs_dir_or_metrics_is_none(self, tmp_path):
        assert obs.flush_metrics() is None          # observability off
        obs.configure(tmp_path)
        assert obs.flush_metrics() is None          # empty registry


class TestConfiguration:
    def test_disabled_emit_and_span_still_work(self):
        assert obs.emit("anything", x=1) is None
        with obs.span("quiet") as ctx:
            assert ctx.trace_id  # context exists even with journal off
        assert obs.get_journal() is None

    def test_env_auto_configuration(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.OBS_DIR_ENV, str(tmp_path / "from-env"))
        obs._STATE["configured"] = False  # simulate a fresh process
        assert obs.get_journal() is not None
        assert obs.obs_dir() == tmp_path / "from-env"
        assert obs.emit("hello")["event"] == "hello"

    def test_false_overrides_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.OBS_DIR_ENV, str(tmp_path))
        obs.configure(False)
        assert obs.obs_dir() is None
        assert obs.emit("hello") is None

    def test_reconfigure_moves_the_journal(self, tmp_path):
        obs.configure(tmp_path / "a")
        obs.emit("one")
        obs.configure(tmp_path / "b")
        obs.emit("two")
        assert [e["event"] for e in
                read_journal(tmp_path / "a" / "journal.ndjson")] == ["one"]
        assert [e["event"] for e in
                read_journal(tmp_path / "b" / "journal.ndjson")] == ["two"]


class TestQuantileHelper:
    def test_shared_helper_matches_inline_rank_math(self):
        buckets = (0.01, 0.1, 1.0)
        counts = [1, 2, 1]
        assert obs.quantile_from_counts(buckets, counts, 4, 0) == (0.01, False)
        assert obs.quantile_from_counts(buckets, counts, 4, 50) == (0.1, False)
        assert obs.quantile_from_counts(buckets, counts, 4, 100) == (1.0, False)

    def test_overflow_rank_is_flagged_not_silently_capped(self):
        # All mass past the last finite bound: the rank lands in +Inf.
        bound, overflow = obs.quantile_from_counts((0.1, 1.0), [0, 0], 3, 99)
        assert (bound, overflow) == (1.0, True)
        # Mixed: p50 resolves finitely, p99 overflows.
        assert obs.quantile_from_counts((0.1, 1.0), [2, 0], 3, 50) == (0.1, False)
        assert obs.quantile_from_counts((0.1, 1.0), [2, 0], 3, 99) == (1.0, True)

    def test_empty_and_invalid_inputs(self):
        assert obs.quantile_from_counts((1.0,), [0], 0, 99) == (0.0, False)
        with pytest.raises(ValueError):
            obs.quantile_from_counts((1.0,), [1], 1, 101)

    def test_histogram_percentile_reports_overflow(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        assert h.percentile(50) == (0.1, False)
        h.observe(5.0)
        h.observe(6.0)
        assert h.percentile(99) == (1.0, True)
        # quantile() keeps the old bound-only contract.
        assert h.quantile(99) == 1.0
        with pytest.raises(ValueError):
            h.percentile(-1)


class TestExemplars:
    def _ctx(self, trace="tr-1"):
        return SpanContext(trace_id=trace, span_id="sp-1")

    def test_captured_only_under_an_ambient_span(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)  # no span -> no exemplar
        assert h.worst_exemplar() is None
        with obs.activate(self._ctx()):
            h.observe(0.05)
        ex = h.worst_exemplar()
        assert ex["trace_id"] == "tr-1" and ex["value"] == 0.05

    def test_slowest_sample_wins_per_bucket(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        with obs.activate(self._ctx("tr-slow")):
            h.observe(0.09)
        with obs.activate(self._ctx("tr-fast")):
            h.observe(0.01)  # same bucket, smaller -> kept out
        assert h.exemplar(0)["trace_id"] == "tr-slow"

    def test_worst_exemplar_prefers_highest_bucket(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        with obs.activate(self._ctx("tr-ok")):
            h.observe(0.05)
        with obs.activate(self._ctx("tr-overflow")):
            h.observe(7.0)  # +Inf bucket
        assert h.worst_exemplar()["trace_id"] == "tr-overflow"

    def test_exemplars_survive_snapshot_merge_idempotently(self):
        src = MetricsRegistry()
        h = src.histogram("lat", buckets=(0.1, 1.0))
        with obs.activate(self._ctx("tr-src")):
            h.observe(0.5)
        dst = MetricsRegistry()
        snap = src.snapshot()
        dst.merge(snap)
        dst.merge(snap)  # the fleet reader merges the same file twice
        merged = dst.histogram("lat", buckets=(0.1, 1.0))
        assert merged.exemplar(1)["trace_id"] == "tr-src"
        # The larger foreign sample replaces the local one on merge.
        other = MetricsRegistry()
        h2 = other.histogram("lat", buckets=(0.1, 1.0))
        with obs.activate(self._ctx("tr-worse")):
            h2.observe(0.9)
        dst.merge(other.snapshot())
        assert dst.histogram(
            "lat", buckets=(0.1, 1.0)).exemplar(1)["trace_id"] == "tr-worse"

    def test_malformed_foreign_exemplars_are_dropped_not_fatal(self):
        src = MetricsRegistry()
        src.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        snap = src.snapshot()
        snap["metrics"]["lat"]["series"][0]["exemplars"] = {
            "not-an-int": {"trace_id": "x", "value": 1.0, "ts": 1.0},
            "0": "not-a-dict",
        }
        dst = MetricsRegistry()
        dst.merge(snap)  # must not raise
        assert dst.histogram("lat", buckets=(0.1, 1.0)).count() == 1

    def test_stale_exemplar_is_replaced_after_ttl(self, monkeypatch):
        h = Histogram("lat", buckets=(0.1, 1.0))
        clock = {"now": 1000.0}
        monkeypatch.setattr(obs.time, "time", lambda: clock["now"])
        with obs.activate(self._ctx("tr-old")):
            h.observe(0.09)
        clock["now"] += obs.EXEMPLAR_TTL_S + 1
        with obs.activate(self._ctx("tr-new")):
            h.observe(0.01)  # smaller, but the old exemplar expired
        assert h.exemplar(0)["trace_id"] == "tr-new"


class TestOpenMetricsExemplarExposition:
    #: ``<name>{labels} <int> # {trace_id="..."} <value> <ts>`` — the
    #: OpenMetrics exemplar grammar the --prom surface must emit.
    import re as _re
    _BUCKET = _re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{[^}]*le="[^"]+"\} \d+'
        r'( # \{trace_id="[^"]*"\} [0-9.eE+-]+ \d+\.\d{3})?$')
    _OTHER = _re.compile(
        r'^(# (HELP|TYPE) .*|[a-zA-Z_:][a-zA-Z0-9_:]*(_sum|_count)?'
        r'(\{[^}]*\})? -?[0-9.eE+-]+)$')

    def _lint(self, text):
        for line in text.splitlines():
            if "_bucket" in line:
                assert self._BUCKET.match(line), f"bad bucket line: {line!r}"
            else:
                assert self._OTHER.match(line), f"bad line: {line!r}"

    def test_exemplar_bearing_exposition_lints_clean(self):
        r = MetricsRegistry()
        h = r.histogram("repro_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        with obs.activate(SpanContext("tr-a", "sp")):
            h.observe(0.05, worker="w1")
            h.observe(9.0, worker="w1")  # overflow exemplar on +Inf
        r.counter("repro_jobs_total", "Jobs.").inc(kind="eval")
        r.gauge("repro_depth").set(3)
        text = r.render_prometheus()
        self._lint(text)
        assert ' # {trace_id="tr-a"} 0.05 ' in text
        inf_lines = [l for l in text.splitlines() if 'le="+Inf"' in l]
        assert any('trace_id="tr-a"' in l for l in inf_lines)

    def test_exposition_without_exemplars_is_unchanged(self):
        r = MetricsRegistry()
        r.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = r.render_prometheus()
        self._lint(text)
        assert "trace_id" not in text

    def test_quoted_trace_ids_are_escaped_in_exemplars(self):
        r = MetricsRegistry()
        h = r.histogram("lat", buckets=(1.0,))
        with obs.activate(SpanContext('tr"quote', "sp")):
            h.observe(0.5)
        assert 'trace_id="tr\\"quote"' in r.render_prometheus()
