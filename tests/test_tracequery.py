"""Trace analytics: journal -> span trees -> waterfalls and tables.

Unit-level coverage drives :mod:`repro.runtime.tracequery` over
synthetic journals (stitched chunk attempts, orphan spans, filters,
deterministic rendering, the one-line error paths) plus the CLI
surface; the end-to-end class at the bottom is the acceptance bar —
a ``repro serve --dispatch broker`` request whose chunk is
SIGKILL-requeued must reconstruct as ONE trace whose waterfall shows
both worker attempts, bit-exactly on every rebuild.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.runtime import obs
from repro.runtime import tracequery as tq
from repro.runtime.jobs import JobSpec, canonical_json, register_runner
from repro.runtime.obs import MetricsRegistry, read_journal


@register_runner("tq_sleep")
def _run_tq_sleep(params, payload):
    time.sleep(params.get("sleep_s", 0.0))
    return {"echo": params["x"]}


def tq_job(x: int, sleep_s: float = 0.0) -> JobSpec:
    return JobSpec(kind="tq_sleep",
                   key=canonical_json({"x": x, "sleep_s": sleep_s}))


@pytest.fixture(autouse=True)
def _isolated_obs(monkeypatch):
    old = obs.set_registry(MetricsRegistry())
    monkeypatch.delenv(obs.OBS_DIR_ENV, raising=False)
    obs.configure(False)
    yield
    obs.configure(False)
    obs.set_registry(old)


def write_journal(path, events):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for ev in events:
            f.write(json.dumps(ev) + "\n")


def requeued_chunk_events(trace="tr-aaaa", root="sp-root", chunk="sp-chunk"):
    """A serve.request trace whose single chunk was claimed by a victim,
    requeued after its SIGKILL, and completed by a rescuer."""
    return [
        {"ts": 100.0, "seq": 1, "proc": "h-1-a", "event": "chunk.submit",
         "trace_id": trace, "span_id": chunk, "parent_id": root,
         "chunk": "c0", "jobs": 2},
        {"ts": 100.1, "seq": 1, "proc": "h-2-b", "event": "worker.claim",
         "trace_id": trace, "span_id": chunk, "parent_id": root,
         "worker": "w-victim", "chunk": "c0", "jobs": 2},
        {"ts": 100.8, "seq": 2, "proc": "h-1-a", "event": "chunk.requeue",
         "trace_id": trace, "span_id": chunk, "parent_id": root,
         "chunk": "c0", "attempt": 1, "why": "lease expired"},
        {"ts": 100.9, "seq": 1, "proc": "h-3-c", "event": "worker.claim",
         "trace_id": trace, "span_id": chunk, "parent_id": root,
         "worker": "w-rescuer", "chunk": "c0", "jobs": 2},
        {"ts": 101.4, "seq": 3, "proc": "h-1-a", "event": "chunk.complete",
         "trace_id": trace, "span_id": chunk, "parent_id": root,
         "chunk": "c0", "worker": "w-rescuer", "jobs": 2, "attempt": 2},
        {"ts": 101.5, "seq": 4, "proc": "h-1-a", "event": "serve.request",
         "trace_id": trace, "span_id": root, "status": "ok",
         "duration_s": 1.55, "kind": "dse_point", "jobs": 2},
    ]


class TestBuildTraces:
    def test_stitches_requeued_chunk_into_one_span_with_attempts(self):
        traces = tq.build_traces(requeued_chunk_events())
        assert len(traces) == 1
        t = traces[0]
        assert t.trace_id == "tr-aaaa"
        assert len(t.spans) == 2  # serve.request + ONE chunk, not two
        chunk = t.spans["sp-chunk"]
        assert chunk.name == "chunk"
        assert chunk.status == "ok"
        assert [a["worker"] for a in chunk.attempts] == ["w-victim",
                                                         "w-rescuer"]
        assert [a["outcome"] for a in chunk.attempts] == ["requeued",
                                                          "complete"]
        assert chunk.attempts[0]["why"] == "lease expired"
        # cross-process: broker + two workers
        assert len(chunk.procs) == 3

    def test_parent_links_and_span_envelope(self):
        t = tq.build_traces(requeued_chunk_events())[0]
        root = t.spans["sp-root"]
        assert t.roots == [root]
        assert root.children == [t.spans["sp-chunk"]]
        # close event at ts=101.5 with duration 1.55 -> start 99.95
        assert root.start == pytest.approx(99.95)
        assert root.duration_s == pytest.approx(1.55)
        # chunk envelope spans submit..complete
        assert t.spans["sp-chunk"].duration_s == pytest.approx(1.4)
        # self time excludes the child's window
        assert root.self_time_s == pytest.approx(0.15)

    def test_failed_span_marks_trace_failed(self):
        evs = [{"ts": 1.0, "seq": 1, "proc": "p", "event": "serve.request",
                "trace_id": "tr-x", "span_id": "s1", "status": "ValueError",
                "duration_s": 0.2}]
        t = tq.build_traces(evs)[0]
        assert t.status == "failed"

    def test_orphan_parent_becomes_root_not_lost(self):
        evs = [{"ts": 1.0, "seq": 1, "proc": "p", "event": "chunk.submit",
                "trace_id": "tr-x", "span_id": "s1",
                "parent_id": "never-journaled", "chunk": "c0"}]
        t = tq.build_traces(evs)[0]
        assert len(t.roots) == 1 and t.roots[0].span_id == "s1"

    def test_untraced_events_are_ignored(self):
        evs = [{"ts": 1.0, "seq": 1, "proc": "p",
                "event": "supervisor.spawn", "worker": "w0"}]
        assert tq.build_traces(evs) == []

    def test_traces_sorted_slowest_first(self):
        evs = []
        for i, dur in enumerate((0.1, 0.5, 0.3)):
            evs.append({"ts": 10.0, "seq": i, "proc": "p",
                        "event": "run.jobs", "trace_id": f"tr-{i}",
                        "span_id": f"s{i}", "status": "ok",
                        "duration_s": dur})
        ids = [t.trace_id for t in tq.build_traces(evs)]
        assert ids == ["tr-1", "tr-2", "tr-0"]


class TestFiltersAndLookup:
    def _traces(self):
        evs = requeued_chunk_events()
        evs.append({"ts": 200.0, "seq": 9, "proc": "p",
                    "event": "serve.request", "trace_id": "tr-bbbb",
                    "span_id": "sx", "status": "TimeoutError",
                    "duration_s": 0.2, "kind": "sample_eval"})
        return tq.build_traces(evs)

    def test_filter_by_status_and_kind_and_limit(self):
        traces = self._traces()
        assert [t.trace_id for t in
                tq.filter_traces(traces, status="failed")] == ["tr-bbbb"]
        assert [t.trace_id for t in
                tq.filter_traces(traces, kind="dse_point")] == ["tr-aaaa"]
        assert len(tq.filter_traces(traces, limit=1)) == 1

    def test_find_trace_by_unique_prefix(self):
        traces = self._traces()
        assert tq.find_trace(traces, "tr-a").trace_id == "tr-aaaa"
        with pytest.raises(tq.TraceQueryError, match="ambiguous"):
            tq.find_trace(traces, "tr-")
        with pytest.raises(tq.TraceQueryError, match="no trace matching"):
            tq.find_trace(traces, "zzz")


class TestRendering:
    def test_waterfall_is_deterministic_and_shows_attempts(self):
        evs = requeued_chunk_events()
        one = tq.render_waterfall(tq.build_traces(evs)[0])
        two = tq.render_waterfall(tq.build_traces(list(reversed(evs)))[0])
        assert one == two  # bit-exact regardless of journal order
        assert "serve.request" in one
        assert "attempt 1: worker w-victim" in one
        assert "attempt 2: worker w-rescuer" in one
        assert "-> requeued (lease expired)" in one
        assert "-> complete" in one

    def test_trace_table_lists_slowest_first(self):
        out = tq.render_trace_table(tq.build_traces(requeued_chunk_events()))
        assert out.splitlines()[1].startswith("tr-aaaa")
        assert "dse_point" in out

    def test_critical_path_shares_sum_to_one(self):
        traces = tq.build_traces(requeued_chunk_events())
        rows = tq.critical_path(traces)
        assert rows[0]["name"] == "chunk"  # the dominant self-time
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        text = tq.render_critical_path(rows, len(traces))
        assert "chunk" in text and "share" in text

    def test_empty_inputs_render_placeholders(self):
        assert "no traces" in tq.render_trace_table([])
        assert "no spans" in tq.render_critical_path([], 0)


class TestLoadEvents:
    def test_missing_journal_is_one_line_error(self, tmp_path):
        with pytest.raises(tq.TraceQueryError, match="no journal at"):
            tq.load_events(tmp_path)

    def test_empty_journal_is_one_line_error(self, tmp_path):
        (tmp_path / "journal.ndjson").touch()
        with pytest.raises(tq.TraceQueryError, match="no events yet"):
            tq.load_events(tmp_path)

    def test_loads_events_in_file_order(self, tmp_path):
        write_journal(tmp_path / "journal.ndjson", requeued_chunk_events())
        assert len(tq.load_events(tmp_path)) == 6


class TestTraceCLI:
    def _main(self, *argv):
        from repro.runtime.cli import main

        return main(list(argv))

    def test_trace_ls_show_critical_path(self, tmp_path, capsys):
        write_journal(tmp_path / "journal.ndjson", requeued_chunk_events())
        assert self._main("trace", "ls", "--obs-dir", str(tmp_path)) == 0
        assert "tr-aaaa" in capsys.readouterr().out
        assert self._main("trace", "show", "tr-a",
                          "--obs-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "attempt 2: worker w-rescuer" in out
        assert self._main("trace", "critical-path",
                          "--obs-dir", str(tmp_path)) == 0
        assert "critical path" in capsys.readouterr().out

    def test_trace_filters(self, tmp_path, capsys):
        write_journal(tmp_path / "journal.ndjson", requeued_chunk_events())
        assert self._main("trace", "ls", "--status", "failed",
                          "--obs-dir", str(tmp_path)) == 0
        assert "no traces" in capsys.readouterr().out

    def test_show_without_id_is_usage_error(self, tmp_path, capsys):
        write_journal(tmp_path / "journal.ndjson", requeued_chunk_events())
        assert self._main("trace", "show", "--obs-dir", str(tmp_path)) == 2
        assert "needs a trace ID" in capsys.readouterr().err

    def test_no_obs_dir_is_exit_2_one_liner(self, capsys):
        assert self._main("trace", "ls") == 2
        err = capsys.readouterr().err
        assert "no observability directory" in err
        assert "Traceback" not in err

    def test_missing_journal_is_exit_2_one_liner(self, tmp_path, capsys):
        # obs.configure creates the (empty) journal file, so the
        # empty-journal message is the one a fresh dir produces.
        assert self._main("trace", "ls", "--obs-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "repro trace: error:" in err
        assert "Traceback" not in err


# -- end-to-end: serve --dispatch broker + SIGKILL requeue ------------------


def spawn_worker(spool, worker_id, lease_ttl_s=0.6):
    from repro.runtime.dist import worker_loop

    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(
        target=worker_loop, args=(str(spool),),
        kwargs=dict(worker_id=worker_id, poll_s=0.01,
                    lease_ttl_s=lease_ttl_s, drain=False),
        daemon=True,
    )
    proc.start()
    return proc


def wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestServeBrokerStitching:
    """The acceptance bar: a broker-dispatched serve request whose chunk
    is SIGKILL-requeued yields ONE trace whose waterfall carries both
    worker attempts."""

    @pytest.fixture()
    def obs_dir(self, tmp_path):
        target = tmp_path / "obs"
        obs.configure(target)
        yield target
        obs.configure(False)

    def test_kill_requeued_request_reconstructs_one_trace(
            self, tmp_path, obs_dir):
        from repro.runtime.dispatch import BrokerDispatcher
        from repro.runtime.serve import AsyncServer

        spool = tmp_path / "spool"
        victim = spawn_worker(spool, "victim")
        helpers: dict = {}

        def killer():
            # Kill the victim mid-chunk, wait for the broker to notice
            # the dead lease and requeue (it releases the claim when it
            # does), and only then field a rescuer — guaranteeing the
            # second attempt goes through the requeue path rather than
            # a direct claim takeover.
            if not wait_for(
                    lambda: list((spool / "claims").glob("*.claim"))):
                return
            time.sleep(0.15)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            if not wait_for(
                    lambda: not list((spool / "claims").glob("*.claim"))):
                return
            helpers["rescuer"] = spawn_worker(spool, "rescuer")

        th = threading.Thread(target=killer)
        th.start()

        async def body():
            dispatcher = BrokerDispatcher(spool, lease_ttl_s=0.6)
            server = AsyncServer(dispatcher=dispatcher, cache=None)
            try:
                with obs.span("serve.request", kind="tq_sleep") as ctx:
                    result = await server.submit(tq_job(7, sleep_s=0.4))
            finally:
                await server.aclose()
                await dispatcher.aclose()
            return ctx, result

        try:
            ctx, result = asyncio.run(asyncio.wait_for(body(), 60))
        finally:
            th.join()
            rescuer = helpers.get("rescuer")
            if rescuer is not None:
                rescuer.kill()
                rescuer.join()
            if victim.is_alive():
                victim.kill()
                victim.join()

        assert result.ok

        events = read_journal(obs_dir / "journal.ndjson")
        requeues = [e for e in events if e.get("event") == "chunk.requeue"]
        assert requeues, "the chunk was never requeued (timing regression)"

        traces = tq.build_traces(events)
        trace = tq.find_trace(traces, ctx.trace_id)
        # ONE trace holds the whole story: every chunk event shares it.
        for ev in events:
            if ev.get("event", "").startswith("chunk."):
                assert ev["trace_id"] == ctx.trace_id
        root = trace.spans[ctx.span_id]
        assert root.name == "serve.request"
        chunks = [n for n in trace.walk() if n.name == "chunk"]
        assert len(chunks) == 1, "requeue must not split the chunk span"
        chunk = chunks[0]
        assert chunk.parent_id == ctx.span_id
        assert [a["worker"] for a in chunk.attempts] == ["victim", "rescuer"]
        assert chunk.attempts[0]["outcome"] == "requeued"
        assert chunk.attempts[1]["outcome"] == "complete"

        # Bit-exact reconstruction: rebuilding from the same journal
        # renders the identical waterfall.
        first = tq.render_waterfall(trace)
        second = tq.render_waterfall(
            tq.find_trace(tq.build_traces(tq.load_events(obs_dir)),
                          ctx.trace_id))
        assert first == second
        assert "attempt 1: worker victim" in first
        assert "attempt 2: worker rescuer" in first
