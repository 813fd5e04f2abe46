"""The Dispatcher seam: local and broker execution planes behind one API.

:mod:`repro.runtime.dispatch` is the contract the serving front end
codes against, so these tests pin what clients of the seam depend on:

* ``LocalDispatcher`` is bit-identical to the pre-seam ``arun`` path
  and reports the wrapped backend's identity;
* ``BrokerDispatcher`` round-trips serve batches through a real spool
  with a real ``worker_loop`` agent — including payload-carrying
  ``sample_eval`` jobs over the ``events`` codec — and repeated
  identical batches through one dispatcher never collide (the fresh
  broker-per-submission rule);
* a fleet that never answers resolves as structured ``ok=False``
  failures at the per-submission timeout, never as a hang;
* ``aclose()`` wakes pending submissions at once and fails them
  instead of stranding them, and a closed dispatcher rejects new work;
* a submission that exits unresolved (cancelled, or closed) leaves no
  file behind in the spool;
* ``AsyncServer()`` defaults to a local ``thread`` plane and takes
  keyword arguments only, so a stale positional backend name fails
  loudly instead of binding to ``cache``.
"""

import asyncio
import threading
import time

import pytest

from repro.runtime import (
    AsyncServer,
    BrokerDispatcher,
    Dispatcher,
    JobSpec,
    LocalDispatcher,
    canonical_json,
    dse_point_job,
    execute_job,
    register_runner,
)
from repro.runtime.backends import arun
from repro.runtime.dist import Broker, worker_loop
from tests.test_wire_codec import make_sample_spec


@register_runner("t_disp")
def _run_disp(params, payload):
    return {"i": params["i"]}


def disp_spec(i: int) -> JobSpec:
    return JobSpec(kind="t_disp", key=canonical_json({"i": i}))


def run_async(coro, timeout=30.0):
    """Drive one test coroutine with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture
def fleet(tmp_path):
    """One spool directory with one live worker-thread agent on it."""
    spool = tmp_path / "spool"
    stop = threading.Event()
    thread = threading.Thread(
        target=worker_loop,
        kwargs=dict(spool_dir=spool, worker_id="w-test", poll_s=0.01,
                    lease_ttl_s=10.0, stop=stop),
        daemon=True,
    )
    thread.start()
    try:
        yield spool
    finally:
        stop.set()
        thread.join(timeout=10)


class TestLocalDispatcher:
    def test_satisfies_the_protocol(self):
        assert isinstance(LocalDispatcher("serial"), Dispatcher)
        assert isinstance(BrokerDispatcher("unused-spool"), Dispatcher)

    def test_matches_arun_bit_identically(self):
        async def body():
            specs = [disp_spec(i) for i in range(5)]
            via_seam = [r async for r in LocalDispatcher("serial").submit(specs)]
            direct = [r async for r in arun("serial", specs)]
            return via_seam, direct

        via_seam, direct = run_async(body())

        def identity(r):
            return (r.job_hash, r.kind, r.ok, r.value, r.error, r.cached)

        assert [identity(r) for r in via_seam] == [identity(r) for r in direct]
        assert [r.value["i"] for r in via_seam] == list(range(5))

    def test_empty_batch_yields_nothing(self):
        async def body():
            return [r async for r in LocalDispatcher("serial").submit([])]

        assert run_async(body()) == []

    def test_describe_reports_wrapped_backend(self):
        desc = LocalDispatcher("serial").describe()
        assert desc["dispatcher"] == "local"
        assert desc["backend"] == "serial"


class TestBackendShim:
    """How ``AsyncServer`` builds its plane: default and keyword-only."""

    def test_default_construction_is_local_thread_plane(self):
        async def body():
            srv = AsyncServer()
            assert isinstance(srv.dispatcher, LocalDispatcher)
            assert srv.stats()["backend"] == "thread"

        run_async(body())

    def test_positional_arguments_are_rejected(self):
        with pytest.raises(TypeError):
            AsyncServer("serial")


class TestBrokerDispatcher:
    def test_round_trips_a_batch_through_the_fleet(self, fleet):
        async def body():
            bd = BrokerDispatcher(fleet, poll_s=0.01)
            try:
                specs = [dse_point_job(n) for n in (1, 2, 4)]
                got = [r async for r in bd.submit(specs)]
            finally:
                await bd.aclose()
            return specs, got

        specs, got = run_async(body())
        assert [r.job_hash for r in got] == [s.job_hash for s in specs]
        assert all(r.ok for r in got)
        assert [r.value for r in got] == [execute_job(s) for s in specs]

    def test_repeated_identical_batches_never_collide(self, fleet):
        # One long-lived dispatcher, the same batch twice: each
        # submission gets a fresh private broker (fresh run nonce), so
        # the second batch's chunks cannot shadow the first's.
        async def body():
            bd = BrokerDispatcher(fleet, poll_s=0.01)
            try:
                specs = [disp_spec(0), disp_spec(1)]
                first = [r async for r in bd.submit(specs)]
                second = [r async for r in bd.submit(specs)]
            finally:
                await bd.aclose()
            return first, second

        first, second = run_async(body())
        assert all(r.ok for r in first + second)
        assert [r.job_hash for r in first] == [r.job_hash for r in second]

    def test_sample_eval_payload_crosses_the_spool(self, fleet):
        spec = make_sample_spec()
        reference = execute_job(spec)

        async def body():
            bd = BrokerDispatcher(fleet, poll_s=0.01)
            try:
                return [r async for r in bd.submit([spec])]
            finally:
                await bd.aclose()

        (got,) = run_async(body())
        assert got.ok, got.error
        assert got.job_hash == spec.job_hash
        assert got.value == reference

    def test_concurrent_submissions_each_get_their_own_results(self, fleet):
        async def body():
            bd = BrokerDispatcher(fleet, poll_s=0.01)
            try:
                async def one(i):
                    return [r async for r in bd.submit([disp_spec(i)])]

                batches = await asyncio.gather(*(one(i) for i in range(4)))
            finally:
                await bd.aclose()
            return batches

        batches = run_async(body())
        for i, (result,) in enumerate(batches):
            assert result.ok
            assert result.value == {"i": i}

    def test_timeout_resolves_as_structured_failures(self, tmp_path):
        # No worker on this spool: the per-submission deadline converts
        # the outstanding chunk into ok=False results, never a hang.
        async def body():
            bd = BrokerDispatcher(tmp_path / "dead", poll_s=0.01, timeout=0.3)
            try:
                return [r async for r in bd.submit([disp_spec(0), disp_spec(1)])]
            finally:
                await bd.aclose()

        got = run_async(body())
        assert len(got) == 2
        assert all(not r.ok for r in got)
        assert all("no fleet answer" in r.error for r in got)

    def test_aclose_fails_pending_submissions(self, tmp_path):
        async def body():
            bd = BrokerDispatcher(tmp_path / "dead", poll_s=0.01)

            async def consume():
                return [r async for r in bd.submit([disp_spec(0)])]

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0.05)  # spooled, watcher polling
            await bd.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await task
            with pytest.raises(RuntimeError, match="closed"):
                async for _ in bd.submit([disp_spec(1)]):
                    pass

        run_async(body())

    def test_aclose_wakes_a_waiting_submission_at_once(self, tmp_path):
        # poll_s far beyond the bound: only the close event can wake the
        # submitter in time.
        async def body():
            bd = BrokerDispatcher(tmp_path / "dead", poll_s=5.0)

            async def consume():
                return [r async for r in bd.submit([disp_spec(0)])]

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0.05)  # spooled, waiting out poll_s
            await bd.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await asyncio.wait_for(task, 1.0)

        run_async(body())

    @pytest.mark.parametrize("spool_write_s", [0.0, 0.2])
    def test_cancelled_submission_leaves_no_spool_files(
            self, tmp_path, monkeypatch, spool_write_s):
        # With a 0.2 s spool write the cancel lands while the write still
        # runs in its thread: the cleanup must wait for it, not race it.
        spool = tmp_path / "dead"
        write = Broker.submit

        def slow_write(self, specs, chunk_size=None):
            time.sleep(spool_write_s)
            return write(self, specs, chunk_size)

        monkeypatch.setattr(Broker, "submit", slow_write)

        async def body():
            bd = BrokerDispatcher(spool, poll_s=0.01)

            async def consume():
                return [r async for r in bd.submit([disp_spec(0)])]

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0.05)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await bd.aclose()

        run_async(body())
        for sub in ("chunks", "claims", "results"):
            assert list((spool / sub).iterdir()) == [], sub

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="poll_s"):
            BrokerDispatcher("s", poll_s=0)
        with pytest.raises(ValueError, match="timeout"):
            BrokerDispatcher("s", timeout=0)

    @pytest.mark.parametrize("ttl", [0, -5])
    def test_rejects_non_positive_lease_ttl(self, ttl):
        # Caught at construction, not inside every submission's broker.
        with pytest.raises(ValueError, match="lease_ttl_s"):
            BrokerDispatcher("s", lease_ttl_s=ttl)

    def test_describe_names_the_spool(self, tmp_path):
        desc = BrokerDispatcher(tmp_path / "sp", lease_ttl_s=7.0).describe()
        assert desc["dispatcher"] == "broker"
        assert desc["spool"].endswith("sp")
        assert desc["lease_ttl_s"] == 7.0


class TestServerOnBrokerPlane:
    def test_serve_batches_run_on_the_fleet(self, fleet):
        async def body():
            bd = BrokerDispatcher(fleet, poll_s=0.01)
            try:
                async with AsyncServer(dispatcher=bd) as srv:
                    specs = [dse_point_job(n) for n in (1, 2, 4, 8)]
                    got = [r async for _, r in srv.stream(specs)]
                    stats = srv.stats()
            finally:
                await bd.aclose()
            return specs, got, stats

        specs, got, stats = run_async(body())
        assert all(r.ok for r in got)
        assert [r.value for r in got] == [execute_job(s) for s in specs]
        assert stats["backend"] == "broker"
        assert stats["dispatcher"]["dispatcher"] == "broker"
