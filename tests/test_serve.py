"""Async serving front end: batching, streaming, cache, shutdown, wire.

:mod:`repro.runtime.serve` is the first piece of the stack that serves
*live* traffic, so these tests pin down the behaviours clients depend
on:

* requests arriving together coalesce into shared micro-batches,
  bounded by ``max_batch``;
* per-job results stream back **while the batch is still running**
  (proved by a deadlock-free gate, not by timing);
* cache hits short-circuit straight from the store — the backend pool
  is never touched;
* failures stay structured: a raising runner and a crashed backend
  both come back as ``ok=False`` results, never hung requests;
* shutdown drains: every request accepted before ``aclose()`` is
  answered, every one after is rejected;
* the NDJSON wire protocol answers good lines, bad lines, unknown
  kinds, and the ``stats``/``ping`` ops on one connection;
* protocol v2 negotiates via ``hello`` (v1 responses stay
  byte-compatible) and tags failures with structured error codes;
* admission control sheds past ``max_queue_depth`` (``overloaded``),
  per-connection credits bound in-flight requests, and queue depth is
  reported from the one obs gauge ``repro top`` reads.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.runtime import (
    AsyncServer,
    JobSpec,
    ResultStore,
    canonical_json,
    dse_point_job,
    register_runner,
    request_to_spec,
    serve_stdio,
    serve_tcp,
)
from repro.runtime.backends import SerialBackend, arun
from repro.runtime.dispatch import LocalDispatcher

# -- synthetic job kinds for the serving tests ------------------------------


@register_runner("t_quick")
def _run_quick(params, payload):
    return {"i": params["i"]}


@register_runner("t_sleep")
def _run_sleep(params, payload):
    time.sleep(params["s"])
    return {"slept": params["s"]}


@register_runner("t_fail")
def _run_fail(params, payload):
    raise RuntimeError(f"boom-{params['tag']}")


@register_runner("t_gate")
def _run_gate(params, payload):
    # Blocks until the test's consumer releases it; a bounded wait so a
    # regression fails the assertion instead of hanging the suite.
    assert payload["event"].wait(timeout=8), "gate never released"
    return {"gated": True}


def quick_spec(i: int) -> JobSpec:
    return JobSpec(kind="t_quick", key=canonical_json({"i": i}))


def sleep_spec(i: int, s: float) -> JobSpec:
    return JobSpec(kind="t_sleep", key=canonical_json({"i": i, "s": s}))


class RecordingBackend:
    """Serial execution that records every dispatched batch size."""

    name = "recording"
    workers = 1

    def __init__(self):
        self.batch_sizes = []

    def run(self, specs, on_result=None):
        self.batch_sizes.append(len(specs))
        return SerialBackend().run(specs, on_result=on_result)


class ExplodingBackend:
    """Fails the test if the pool is ever touched (cache-hit paths)."""

    name = "exploding"
    workers = 1

    def run(self, specs, on_result=None):
        raise AssertionError("backend must not be touched")


class CrashingBackend:
    """Simulates a pool-level crash (not a per-job failure)."""

    name = "crashing"
    workers = 1

    def run(self, specs, on_result=None):
        raise OSError("worker pool died")


def run_async(coro, timeout=30.0):
    """Drive one test coroutine with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


# -- arun: the awaitable backend bridge -------------------------------------


class TestArun:
    def test_yields_ordered_results_for_any_backend(self):
        async def body():
            specs = [quick_spec(i) for i in range(5)]
            got = [r async for r in arun("serial", specs)]
            assert [r.value["i"] for r in got] == list(range(5))
            assert all(r.ok for r in got)

        run_async(body())

    def test_empty_spec_list_yields_nothing(self):
        async def body():
            return [r async for r in arun("serial", [])]

        assert run_async(body()) == []

    def test_backend_crash_propagates(self):
        async def body():
            with pytest.raises(OSError, match="pool died"):
                async for _ in arun(CrashingBackend(), [quick_spec(0)]):
                    pass

        run_async(body())

    def test_short_delivery_is_a_contract_violation(self):
        class ShortBackend:
            name = "short"
            workers = 1

            def run(self, specs, on_result=None):
                out = SerialBackend().run(specs[:1], on_result=on_result)
                return out  # silently drops the rest

        async def body():
            with pytest.raises(RuntimeError, match="one result per spec"):
                async for _ in arun(ShortBackend(), [quick_spec(0), quick_spec(1)]):
                    pass

        run_async(body())


# -- micro-batch coalescing -------------------------------------------------


class TestCoalescing:
    def test_concurrent_requests_share_a_batch(self):
        rec = RecordingBackend()

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher(rec), batch_window_s=0.2,
                                   max_batch=16) as srv:
                results = await asyncio.gather(
                    *(srv.submit(quick_spec(i)) for i in range(6))
                )
            assert all(r.ok for r in results)
            return srv

        srv = run_async(body())
        assert sum(rec.batch_sizes) == 6
        assert max(rec.batch_sizes) > 1, "requests were never coalesced"
        assert srv.stats()["batches"] == len(rec.batch_sizes)
        assert srv.stats()["dispatched"] == 6

    def test_max_batch_caps_coalescing(self):
        rec = RecordingBackend()

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher(rec), batch_window_s=0.2,
                                   max_batch=2) as srv:
                await asyncio.gather(*(srv.submit(quick_spec(i)) for i in range(6)))

        run_async(body())
        assert sum(rec.batch_sizes) == 6
        assert max(rec.batch_sizes) <= 2
        assert len(rec.batch_sizes) >= 3

    def test_zero_window_still_answers_everything(self):
        rec = RecordingBackend()

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher(rec), batch_window_s=0.0,
                                   max_batch=8) as srv:
                results = await asyncio.gather(
                    *(srv.submit(quick_spec(i)) for i in range(4))
                )
            assert [r.value["i"] for r in results] == list(range(4))

        run_async(body())
        assert sum(rec.batch_sizes) == 4

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            AsyncServer(dispatcher=LocalDispatcher(SerialBackend()), max_batch=0)
        with pytest.raises(ValueError, match="batch_window_s"):
            AsyncServer(dispatcher=LocalDispatcher(SerialBackend()), batch_window_s=-0.1)


# -- streaming: results arrive before the batch completes -------------------


class TestStreaming:
    def test_results_stream_mid_batch_not_at_batch_end(self):
        # Job 1 blocks until the consumer has *received* job 0's result.
        # If results were only delivered when the whole batch completed,
        # this would deadlock (and the gate's bounded wait would fail).
        gate = threading.Event()
        s0 = quick_spec(0)
        s1 = JobSpec(kind="t_gate", key=canonical_json({"g": 1}),
                     payload={"event": gate})

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial"), batch_window_s=0.2,
                                   max_batch=8) as srv:
                order = []
                async for i, result in srv.stream([s0, s1]):
                    assert result.ok, result.error
                    order.append(i)
                    if i == 0:
                        gate.set()
                assert order == [0, 1]

        run_async(body())

    def test_stream_preserves_input_order(self):
        async def body():
            specs = [quick_spec(i) for i in range(8)]
            async with AsyncServer(dispatcher=LocalDispatcher("thread", workers=4),
                                   batch_window_s=0.05, max_batch=8) as srv:
                got = [(i, r.value["i"]) async for i, r in srv.stream(specs)]
            assert got == [(i, i) for i in range(8)]

        run_async(body())


# -- cache integration ------------------------------------------------------


class TestCacheShortCircuit:
    def test_hit_never_touches_the_pool(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = quick_spec(7)
        store.put(spec, {"i": 7}, 0.25)

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher(ExplodingBackend()),
                                   cache=store) as srv:
                result = await srv.submit(spec)
            assert result.ok and result.cached
            assert result.value == {"i": 7}
            assert result.duration_s == 0.25
            assert srv.stats()["cache_hits"] == 1
            assert srv.stats()["batches"] == 0
            assert srv.stats()["cache_hit_ratio"] == 1.0

        run_async(body())

    def test_miss_computes_and_writes_through(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = quick_spec(3)

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial"), cache=store) as srv:
                first = await srv.submit(spec)
                second = await srv.submit(spec)
            assert first.ok and not first.cached
            assert second.ok and second.cached
            assert srv.stats()["cache_hits"] == 1
            assert srv.stats()["computed"] == 1

        run_async(body())
        # The write-through landed in the shared store for other runs.
        assert ResultStore(tmp_path).get(spec).value == {"i": 3}

    def test_serve_lifetime_counters_reach_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = quick_spec(4)

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial"), cache=store) as srv:
                await srv.submit(spec)
                await srv.submit(spec)

        run_async(body())
        life = ResultStore(tmp_path).lifetime_stats()
        assert life["hits"] == 1 and life["misses"] == 1
        assert life["stores"] == 1


# -- failure propagation ----------------------------------------------------


class TestFailures:
    def test_raising_job_is_a_structured_result(self):
        spec = JobSpec(kind="t_fail", key=canonical_json({"tag": "x"}))

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial")) as srv:
                result = await srv.submit(spec)
            assert not result.ok
            assert "boom-x" in result.error
            assert srv.stats()["failures"] == 1
            with pytest.raises(RuntimeError, match="boom-x"):
                result.unwrap()

        run_async(body())

    def test_mixed_batch_failures_map_to_the_right_requests(self):
        specs = [
            quick_spec(0),
            JobSpec(kind="t_fail", key=canonical_json({"tag": "mid"})),
            quick_spec(2),
        ]

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial"), batch_window_s=0.2,
                                   max_batch=8) as srv:
                results = [r async for _, r in srv.stream(specs)]
            assert [r.ok for r in results] == [True, False, True]
            assert "boom-mid" in results[1].error
            assert results[0].value == {"i": 0}
            assert results[2].value == {"i": 2}

        run_async(body())

    def test_backend_crash_becomes_structured_errors_for_all_in_flight(self):
        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher(CrashingBackend()),
                                   batch_window_s=0.1, max_batch=8) as srv:
                results = await asyncio.gather(
                    *(srv.submit(quick_spec(i)) for i in range(3))
                )
            assert all(not r.ok for r in results)
            assert all("crashed" in r.error for r in results)
            assert srv.stats()["failures"] == 3

        run_async(body())


# -- graceful shutdown ------------------------------------------------------


class TestShutdown:
    def test_in_flight_requests_drain_before_close_returns(self):
        async def body():
            srv = AsyncServer(dispatcher=LocalDispatcher("thread", workers=2),
                              batch_window_s=0.01, max_batch=2)
            tasks = [
                asyncio.ensure_future(srv.submit(sleep_spec(i, 0.05)))
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let every submit reach the queue
            await srv.aclose()
            # aclose() returning means every accepted request is done.
            assert all(t.done() for t in tasks)
            results = [t.result() for t in tasks]
            assert all(r.ok for r in results)
            assert srv.stats()["computed"] == 4

        run_async(body())

    def test_submissions_after_close_are_rejected(self):
        async def body():
            srv = AsyncServer(dispatcher=LocalDispatcher("serial"))
            async with srv:
                await srv.submit(quick_spec(0))
            assert srv.closed
            with pytest.raises(RuntimeError, match="closed"):
                await srv.submit(quick_spec(1))
            assert srv.stats()["rejected"] == 1

        run_async(body())

    def test_aclose_is_idempotent(self):
        async def body():
            srv = AsyncServer(dispatcher=LocalDispatcher("serial"))
            async with srv:
                await srv.submit(quick_spec(0))
            await srv.aclose()
            await srv.aclose()

        run_async(body())

    def test_close_without_any_requests(self):
        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial")):
                pass

        run_async(body())


# -- wire protocol ----------------------------------------------------------


class TestRequestToSpec:
    def test_builds_matching_specs(self):
        spec = request_to_spec({"kind": "dse_point", "params": {"n_slices": 4}})
        assert spec.job_hash == dse_point_job(4).job_hash

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            request_to_spec({"kind": "nope"})
        # sample_eval needs live payloads: not wire-servable by design.
        with pytest.raises(ValueError, match="unknown job kind"):
            request_to_spec({"kind": "sample_eval", "params": {}})

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="params must be an object"):
            request_to_spec({"kind": "dse_point", "params": [1]})
        with pytest.raises(ValueError, match="bad params"):
            request_to_spec({"kind": "dse_point", "params": {"n_slices": 0}})
        with pytest.raises(ValueError, match="bad params"):
            request_to_spec({"kind": "dse_point", "params": {"bogus": 1}})


class TestTCPProtocol:
    def _roundtrip(self, lines, tmp_path, n_responses=None):
        """Send ``lines`` over one TCP connection, return the decoded
        responses (completion order)."""

        async def body():
            store = ResultStore(tmp_path)
            srv = AsyncServer(dispatcher=LocalDispatcher("serial"), cache=store,
                              batch_window_s=0.005)
            tcp = await serve_tcp(srv)  # ephemeral loopback port
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for line in lines:
                writer.write(line.encode() + b"\n")
            await writer.drain()
            out = []
            for _ in range(n_responses if n_responses is not None else len(lines)):
                out.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await srv.aclose()
            return out

        return run_async(body())

    def test_requests_answered_and_tagged_by_id(self, tmp_path):
        out = self._roundtrip(
            [
                json.dumps({"id": "a", "kind": "dse_point",
                            "params": {"n_slices": 1}}),
                json.dumps({"id": "b", "kind": "dse_point",
                            "params": {"n_slices": 8}}),
            ],
            tmp_path,
        )
        by_id = {o["id"]: o for o in out}
        assert by_id["a"]["ok"] and by_id["b"]["ok"]
        assert by_id["a"]["value"]["n_slices"] == 1
        assert by_id["b"]["value"]["n_slices"] == 8
        assert by_id["a"]["job_hash"] == dse_point_job(1).job_hash

    def test_repeat_request_served_from_cache(self, tmp_path):
        req = json.dumps({"id": "x", "kind": "dse_point",
                          "params": {"n_slices": 2}})
        first = self._roundtrip([req], tmp_path)[0]
        second = self._roundtrip([req], tmp_path)[0]
        assert not first["cached"]
        assert second["cached"]
        assert second["value"] == first["value"]

    def test_protocol_errors_are_structured_not_fatal(self, tmp_path):
        out = self._roundtrip(
            [
                "this is not json",
                json.dumps({"id": "u", "kind": "unknown_kind"}),
                json.dumps({"id": "o", "op": "bogus"}),
                json.dumps({"id": "ok", "kind": "baseline_compare",
                            "params": {"platform": "TrueNorth"}}),
            ],
            tmp_path,
        )
        by_id = {o.get("id"): o for o in out}
        assert not by_id[None]["ok"] and "bad request" in by_id[None]["error"]
        assert not by_id["u"]["ok"] and "unknown job kind" in by_id["u"]["error"]
        assert not by_id["o"]["ok"] and "unknown op" in by_id["o"]["error"]
        assert by_id["ok"]["ok"] and by_id["ok"]["value"]["improvement_x"] > 1

    def test_stats_and_ping_ops(self, tmp_path):
        out = self._roundtrip(
            [
                json.dumps({"id": "p", "op": "ping"}),
                json.dumps({"id": "q", "kind": "dse_point",
                            "params": {"n_slices": 4}}),
                json.dumps({"id": "s", "op": "stats"}),
            ],
            tmp_path,
        )
        by_id = {o["id"]: o for o in out}
        assert by_id["p"]["pong"] is True
        stats = by_id["s"]["stats"]
        assert stats["backend"] == "serial"
        assert {"requests", "in_flight", "queue_depth", "latency",
                "cache_hit_ratio"} <= set(stats)

    def test_metrics_op_returns_prometheus_text(self, tmp_path):
        out = self._roundtrip(
            [
                json.dumps({"id": "j", "kind": "dse_point",
                            "params": {"n_slices": 2}}),
                json.dumps({"id": "m", "op": "metrics"}),
            ],
            tmp_path,
        )
        by_id = {o["id"]: o for o in out}
        assert by_id["m"]["ok"]
        assert by_id["m"]["content_type"].startswith("text/plain")
        text = by_id["m"]["metrics"]
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert "# TYPE repro_serve_in_flight gauge" in text

    def test_job_responses_carry_trace_ids_when_journal_on(self, tmp_path):
        from repro.runtime import obs

        obs.configure(tmp_path / "obs")
        try:
            out = self._roundtrip(
                [json.dumps({"id": "a", "kind": "dse_point",
                             "params": {"n_slices": 1}})],
                tmp_path,
            )
            assert out[0]["ok"] and len(out[0]["trace_id"]) == 16
            events = obs.read_journal(tmp_path / "obs" / "journal.ndjson")
            spans = [e for e in events if e["event"] == "serve.request"]
            assert spans and spans[0]["trace_id"] == out[0]["trace_id"]
            assert spans[0]["status"] == "ok"
        finally:
            obs.configure(False)


class TestStdioProtocol:
    def test_serve_stdio_answers_then_drains(self, tmp_path):
        import io

        lines = [
            json.dumps({"id": 1, "kind": "dse_point", "params": {"n_slices": 1}}),
            json.dumps({"id": 2, "op": "stats"}),
        ]
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        srv = AsyncServer(dispatcher=LocalDispatcher("serial"), cache=ResultStore(tmp_path))
        run_async(serve_stdio(srv, stdin=stdin, stdout=stdout))
        out = [json.loads(l) for l in stdout.getvalue().splitlines()]
        by_id = {o["id"]: o for o in out}
        assert by_id[1]["ok"] and by_id[1]["value"]["n_slices"] == 1
        assert by_id[2]["stats"]["requests"] == 1
        assert srv.closed  # EOF closed the server gracefully

    def test_cli_serve_stdio(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.runtime.cli import main

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps(
                {"id": "c", "kind": "dse_point", "params": {"n_slices": 8}}
            ) + "\n"),
        )
        rc = main(["serve", "--stdio", "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 0
        response = json.loads(captured.out.splitlines()[0])
        assert response["ok"] and response["value"]["n_slices"] == 8
        assert "serve: 1 request(s)" in captured.err


# -- registry-backed stats --------------------------------------------------


def _serve_requests_total() -> int:
    """Sum of every ``repro_serve_requests_total`` series in the registry."""
    from repro.runtime import get_registry

    return int(get_registry().counter("repro_serve_requests_total").total())


class TestTelemetry:
    def test_snapshot_ratios(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in (100, 101):
            store.put(quick_spec(i), {"i": i}, 0.0)
        rec = RecordingBackend()

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher(rec), cache=store,
                                   batch_window_s=0.2, max_batch=3) as srv:
                empty = srv.stats()
                specs = [quick_spec(i) for i in (100, 101, 0, 1, 2, 3, 4, 5)]
                await asyncio.gather(*(srv.submit(s) for s in specs))
            return empty, srv.stats()

        empty, snap = run_async(body())
        assert empty["requests"] == 0
        assert empty["cache_hit_ratio"] == 0.0
        assert empty["mean_batch"] == 0.0
        assert empty["latency"] == {"count": 0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0}
        assert rec.batch_sizes == [3, 3]
        assert snap["requests"] == 8
        assert snap["cache_hits"] == 2
        assert snap["cache_hit_ratio"] == pytest.approx(0.25)
        assert snap["batches"] == 2
        assert snap["mean_batch"] == pytest.approx(3.0)

    def test_stats_count_only_this_servers_requests(self):
        """The registry is process-wide; a later server's stats start
        from its own construction, not from earlier servers' traffic."""

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial")) as first:
                await asyncio.gather(*(first.submit(quick_spec(i)) for i in range(3)))
            first_stats = first.stats()
            async with AsyncServer(dispatcher=LocalDispatcher("serial")) as second:
                await second.submit(quick_spec(9))
            return first_stats, second.stats()

        first, second = run_async(body())
        assert first["requests"] == 3
        assert second["requests"] == 1
        assert second["computed"] == 1
        assert second["latency"]["count"] == 1

    def test_cancelled_request_keeps_its_count(self):
        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial"),
                                   batch_window_s=0.2) as srv:
                task = asyncio.ensure_future(srv.submit(quick_spec(0)))
                await asyncio.sleep(0.01)  # queued, waiting for its batch
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
            return srv.stats()

        snap = run_async(body())
        assert snap["in_flight"] == 0
        assert snap["requests"] == 1

    def test_server_gauges_return_to_zero(self):
        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial")) as srv:
                await asyncio.gather(*(srv.submit(quick_spec(i)) for i in range(3)))
            snap = srv.stats()
            assert snap["in_flight"] == 0
            assert snap["latency"]["count"] == 3
            assert snap["requests"] == 3
            assert snap["latency"]["p99_s"] >= snap["latency"]["p50_s"]
            assert snap["latency"]["mean_s"] > 0.0

        run_async(body())

    def test_latency_percentiles_resolve_to_bucket_bounds(self):
        from repro.runtime import obs

        async def body():
            async with AsyncServer(dispatcher=LocalDispatcher("serial")) as srv:
                await srv.submit(quick_spec(0))
            return srv.stats()["latency"]

        latency = run_async(body())
        assert latency["p50_s"] in obs.DEFAULT_BUCKETS
        assert latency["p99_s"] in obs.DEFAULT_BUCKETS

    def test_stats_requests_match_the_registry_counter(self):
        """Regression: a submission to a closed server was counted by
        ``repro_serve_requests_total{status="rejected"}`` but not by the
        ``stats`` op's ``requests``; both now read one counter."""
        from repro.runtime import ServerOverloadedError

        async def body():
            before = _serve_requests_total()
            srv = AsyncServer(dispatcher=LocalDispatcher("serial"),
                              batch_window_s=0.2, max_queue_depth=1)
            done = await asyncio.gather(
                *(srv.submit(quick_spec(i)) for i in range(3)),
                return_exceptions=True)
            await srv.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await srv.submit(quick_spec(7))
            return srv.stats(), done, _serve_requests_total() - before

        snap, done, counted = run_async(body())
        assert any(isinstance(r, ServerOverloadedError) for r in done)
        assert snap["rejected"] == 1
        assert snap["shed"] >= 1
        assert snap["requests"] == counted == 4


# -- wire protocol v2: handshake, codes, shedding, credits ------------------


class TestWireV2:
    def _roundtrip(self, lines, tmp_path, n_responses=None, **server_kw):
        """Send ``lines`` over one TCP connection against a fresh
        server, return the decoded responses (completion order)."""

        async def body():
            kw = dict(dispatcher=LocalDispatcher("serial"),
                      cache=ResultStore(tmp_path), batch_window_s=0.005)
            kw.update(server_kw)
            srv = AsyncServer(**kw)
            tcp = await serve_tcp(srv)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for line in lines:
                writer.write(line.encode() + b"\n")
            await writer.drain()
            out = []
            for _ in range(n_responses if n_responses is not None else len(lines)):
                out.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await srv.aclose()
            await srv.dispatcher.aclose()
            return out

        return run_async(body())

    def test_hello_negotiates_min_of_client_and_server(self, tmp_path):
        from repro.runtime import PROTO_VERSION

        out = self._roundtrip(
            [
                json.dumps({"id": "h1", "op": "hello", "proto": 1}),
                json.dumps({"id": "h2", "op": "hello", "proto": 2}),
                json.dumps({"id": "h99", "op": "hello", "proto": 99}),
            ],
            tmp_path,
        )
        by_id = {o["id"]: o for o in out}
        assert by_id["h1"]["ok"] and by_id["h1"]["proto"] == 1
        assert by_id["h2"]["ok"] and by_id["h2"]["proto"] == 2
        assert by_id["h99"]["ok"] and by_id["h99"]["proto"] == PROTO_VERSION
        assert by_id["h2"]["server_proto"] == PROTO_VERSION

    def test_invalid_hello_proto_is_bad_request(self, tmp_path):
        out = self._roundtrip(
            [json.dumps({"id": "h", "op": "hello", "proto": "two"})],
            tmp_path,
        )
        assert not out[0]["ok"]
        assert "bad request" in out[0]["error"]
        assert "code" not in out[0]  # the connection never left v1

    def test_v1_connection_errors_carry_no_code(self, tmp_path):
        out = self._roundtrip(
            ["not json", json.dumps({"id": "u", "kind": "nope"})],
            tmp_path,
        )
        for o in out:
            assert not o["ok"]
            assert "code" not in o

    def test_v2_bad_request_is_coded(self, tmp_path):
        out = self._roundtrip(
            [
                json.dumps({"id": "h", "op": "hello", "proto": 2}),
                json.dumps({"id": "u", "kind": "nope"}),
                json.dumps({"id": "o", "op": "bogus"}),
            ],
            tmp_path,
        )
        by_id = {o["id"]: o for o in out}
        assert by_id["u"]["code"] == "bad_request"
        assert by_id["o"]["code"] == "bad_request"

    def test_v2_runner_failure_is_backend_error(self, tmp_path, monkeypatch):
        from repro.runtime import serve as serve_mod

        def fail_factory(**params):
            return JobSpec(kind="t_fail", key=canonical_json(params))

        monkeypatch.setitem(serve_mod.WIRE_KINDS, "t_fail", fail_factory)
        out = self._roundtrip(
            [
                json.dumps({"id": "h", "op": "hello", "proto": 2}),
                json.dumps({"id": "f", "kind": "t_fail",
                            "params": {"tag": "wire"}}),
            ],
            tmp_path,
        )
        by_id = {o["id"]: o for o in out}
        failed = by_id["f"]
        assert not failed["ok"]
        assert "boom-wire" in failed["error"]
        assert failed["code"] == "backend_error"

    def test_v1_runner_failure_keeps_the_old_shape(self, tmp_path, monkeypatch):
        from repro.runtime import serve as serve_mod

        def fail_factory(**params):
            return JobSpec(kind="t_fail", key=canonical_json(params))

        monkeypatch.setitem(serve_mod.WIRE_KINDS, "t_fail", fail_factory)
        out = self._roundtrip(
            [json.dumps({"id": "f", "kind": "t_fail", "params": {"tag": "v1"}})],
            tmp_path,
        )
        assert not out[0]["ok"]
        assert "code" not in out[0]

    def test_shed_under_load_is_structured_and_lossless(self, tmp_path,
                                                        monkeypatch):
        """Fill the queue past --max-queue-depth: surplus requests get
        a structured ``overloaded`` reply, accepted ones still complete
        bit-identically, and no request is lost or answered twice."""
        from repro.runtime import serve as serve_mod

        def quick_factory(**params):
            return quick_spec(params["i"])

        monkeypatch.setitem(serve_mod.WIRE_KINDS, "t_quick", quick_factory)
        n = 8
        lines = [json.dumps({"id": "h", "op": "hello", "proto": 2})]
        lines += [json.dumps({"id": f"r{i}", "kind": "t_quick",
                              "params": {"i": i}}) for i in range(n)]
        out = self._roundtrip(lines, tmp_path, cache=None,
                              max_queue_depth=2, batch_window_s=0.05)
        by_id = {o["id"]: o for o in out}
        assert by_id["h"]["proto"] == 2
        answered = [by_id[f"r{i}"] for i in range(n)]
        assert len(answered) == n  # every request answered exactly once
        shed = [o for o in answered if not o["ok"]]
        accepted = [o for o in answered if o["ok"]]
        assert shed, "overload never engaged"
        for o in shed:
            assert o["code"] == "overloaded"
            assert "overloaded" in o["error"]
        for o in accepted:
            i = int(o["id"][1:])
            assert o["value"] == {"i": i}  # bit-identical to the runner

    def test_direct_submit_sheds_with_typed_error(self):
        from repro.runtime import ServerOverloadedError

        async def body():
            srv = AsyncServer(dispatcher=LocalDispatcher("serial"),
                              batch_window_s=0.2, max_queue_depth=1)
            tasks = [asyncio.ensure_future(srv.submit(quick_spec(i)))
                     for i in range(4)]
            done = await asyncio.gather(*tasks, return_exceptions=True)
            await srv.aclose()
            oks = [r for r in done if not isinstance(r, Exception)]
            sheds = [r for r in done if isinstance(r, ServerOverloadedError)]
            assert len(oks) + len(sheds) == 4
            assert sheds, "admission control never engaged"
            assert all(r.ok for r in oks)
            assert srv.stats()["shed"] == len(sheds)

        run_async(body())

    def test_rejects_bad_admission_knobs(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            AsyncServer(max_queue_depth=0)
        with pytest.raises(ValueError, match="conn_credits"):
            AsyncServer(conn_credits=0)


class TestConnCredits:
    def test_pump_stalls_at_the_credit_window(self):
        """With conn_credits=1, the pump must not start answer #2 while
        answer #1 is in flight — backpressure, proved by a gate."""
        from repro.runtime.serve import _serve_lines

        async def body():
            gate = threading.Event()
            from repro.runtime import serve as serve_mod
            spec = JobSpec(kind="t_gate", key=canonical_json({"g": 1}),
                           payload={"event": gate})
            srv = AsyncServer(dispatcher=LocalDispatcher("thread"),
                              batch_window_s=0.0, conn_credits=1)
            # Drive the pump directly with a scripted transport; the
            # gate spec goes through a patched wire factory.
            serve_mod.WIRE_KINDS["t_gate_cred"] = lambda **p: spec
            try:
                lines = [
                    json.dumps({"id": "g", "kind": "t_gate_cred"}),
                    json.dumps({"id": "p", "op": "ping"}),
                    "",  # EOF
                ]
                sent = []

                async def readline():
                    return lines.pop(0)

                async def send(obj):
                    sent.append(obj)

                pump = asyncio.ensure_future(_serve_lines(srv, readline, send))
                await asyncio.sleep(0.2)
                # The ping is cheap, but the window is full: no answer.
                assert sent == []
                gate.set()
                await asyncio.wait_for(pump, 10)
                assert [o["id"] for o in sent] == ["g", "p"]
                assert sent[0]["ok"] and sent[1]["pong"]
            finally:
                serve_mod.WIRE_KINDS.pop("t_gate_cred", None)
                await srv.aclose()

        run_async(body())


class TestQueueDepthConsolidation:
    def test_stats_and_dashboard_read_the_same_gauge(self):
        """Regression (the stats/top split-brain): after a burst drains,
        the ``repro_serve_queue_depth`` gauge and the ``stats`` op must
        agree on zero — the batcher used to update only a per-server
        copy, leaving the gauge stale."""
        from repro.runtime import get_registry

        async def body():
            srv = AsyncServer(dispatcher=LocalDispatcher("serial"),
                              batch_window_s=0.0)
            await asyncio.gather(*(srv.submit(quick_spec(i)) for i in range(4)))
            await srv.aclose()
            gauge = get_registry()._metrics["repro_serve_queue_depth"]
            assert gauge.value() == 0
            assert srv.stats()["queue_depth"] == 0

        run_async(body())

    def test_stats_reports_from_the_gauge_not_the_struct(self):
        async def body():
            srv = AsyncServer(dispatcher=LocalDispatcher("serial"))
            # stats must answer from the gauge, the dashboard's source
            # of truth.
            srv._g_queue_depth.set(3)
            assert srv.stats()["queue_depth"] == 3
            await srv.aclose()

        run_async(body())
