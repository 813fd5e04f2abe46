"""Fleet supervisor: scaling decisions, crash respawn, spool GC.

These tests drive :meth:`Supervisor.tick` directly with a fake clock
and inert worker handles, so every scaling/respawn/GC decision is
deterministic and sleep-free; one marked-slow integration test proves
the default factory really drains a spool with forked workers.  The
chaos-soak suite (``test_chaos_soak.py``) covers the same machinery
under fault injection.
"""

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import (
    Broker,
    MetricsRegistry,
    Supervisor,
    obs,
    run_jobs,
)
from repro.runtime.chaos import chaos_job


@pytest.fixture(autouse=True)
def _isolated_registry():
    # Supervisor metrics land in the process-wide registry; keep each
    # test's counters exact.
    old = obs.set_registry(MetricsRegistry())
    yield
    obs.set_registry(old)


class FakeClock:
    """Advanceable wall clock (see ``test_dist.FakeClock``)."""

    def __init__(self, now: float = 1_000_000.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class FakeHandle:
    """Inert process stand-in: killable, terminable, joinable."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.alive = True
        self.terminated = False

    def is_alive(self):
        return self.alive

    def terminate(self):
        self.terminated = True
        self.alive = False

    def kill(self):
        self.alive = False

    def join(self, timeout=None):
        pass

    def crash(self):
        """Simulate a SIGKILL: the process is just gone."""
        self.alive = False


def fake_factory():
    """A worker factory recording every handle it hands out."""
    spawned = []

    def factory(seq):
        wid = f"fake-{seq}"
        handle = FakeHandle(pid=10_000 + seq)
        spawned.append((wid, handle))
        return wid, handle

    factory.spawned = spawned
    return factory


def events(op: str) -> float:
    """The supervisor events of one ``op`` counted on the test's fresh
    registry."""
    return obs.get_registry().counter("repro_supervisor_events_total").value(op=op)


def make_supervisor(tmp_path, clock, factory, **kw):
    kw.setdefault("min_workers", 1)
    kw.setdefault("max_workers", 4)
    kw.setdefault("backlog_per_worker", 2.0)
    kw.setdefault("scale_up_ticks", 2)
    kw.setdefault("idle_ticks", 3)
    return Supervisor(tmp_path / "spool", worker_factory=factory,
                      clock=clock, **kw)


def add_pending_chunks(spool, n, prefix="c"):
    for i in range(n):
        (spool / "chunks" / f"{prefix}{i}.chunk").write_text("{}")


def clear_chunks(spool):
    for path in (spool / "chunks").glob("*.chunk"):
        path.unlink()


class TestValidation:
    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Supervisor(tmp_path, min_workers=-1)
        with pytest.raises(ValueError):
            Supervisor(tmp_path, min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            Supervisor(tmp_path, max_workers=0)
        with pytest.raises(ValueError):
            Supervisor(tmp_path, tick_s=0)
        with pytest.raises(ValueError):
            Supervisor(tmp_path, backlog_per_worker=0)
        with pytest.raises(ValueError):
            Supervisor(tmp_path, gc_ttl_s=0)
        with pytest.raises(ValueError):
            Supervisor(tmp_path, scale_up_ticks=0)
        with pytest.raises(ValueError):
            Supervisor(tmp_path, idle_ticks=0)


class TestScaling:
    def test_first_tick_boots_the_fleet_floor(self, tmp_path):
        sup = make_supervisor(tmp_path, FakeClock(), fake_factory(),
                              min_workers=2)
        sup.tick()
        assert sup.fleet_size() == 2
        assert events("spawn") == 2
        assert events("respawn") == 0  # boot is planned, not recovery

    def test_sustained_backlog_scales_up_to_demand(self, tmp_path):
        clock = FakeClock()
        sup = make_supervisor(tmp_path, clock, fake_factory(),
                              min_workers=1, max_workers=4,
                              backlog_per_worker=2.0, scale_up_ticks=2)
        add_pending_chunks(sup.spool, 6)  # demand = ceil(6/2) = 3
        snap = sup.tick()
        assert snap.pending == 6 and snap.unclaimed == 6
        assert sup.fleet_size() == 1  # one busy tick: debounced
        sup.tick()
        assert sup.fleet_size() == 3  # sustained: scaled to demand
        assert events("scale_up") == 1
        assert sup.worker_pids() == [10_000, 10_001, 10_002]

    def test_scale_up_is_capped_at_max_workers(self, tmp_path):
        sup = make_supervisor(tmp_path, FakeClock(), fake_factory(),
                              max_workers=3, scale_up_ticks=1)
        add_pending_chunks(sup.spool, 100)
        sup.tick()
        assert sup.fleet_size() == 3
        assert sup.desired == 3

    def test_one_tick_burst_does_not_scale(self, tmp_path):
        sup = make_supervisor(tmp_path, FakeClock(), fake_factory(),
                              scale_up_ticks=2)
        add_pending_chunks(sup.spool, 8)
        sup.tick()
        clear_chunks(sup.spool)  # burst absorbed before the second tick
        sup.tick()
        assert sup.fleet_size() == 1
        assert events("scale_up") == 0

    def test_idle_spool_scales_down_to_floor_lifo(self, tmp_path):
        factory = fake_factory()
        sup = make_supervisor(tmp_path, FakeClock(), factory,
                              min_workers=1, scale_up_ticks=1, idle_ticks=2)
        add_pending_chunks(sup.spool, 8)
        sup.tick()
        assert sup.fleet_size() == 4
        clear_chunks(sup.spool)
        sup.tick()  # idle x1: hold
        assert sup.fleet_size() == 4
        sup.tick()  # idle x2: scale down
        assert events("scale_down") == 1
        assert events("retire") == 3
        # LIFO: the newest workers were retired, the veteran survives.
        retired = [h.terminated for _, h in factory.spawned]
        assert retired == [False, True, True, True]
        # Retirement exits are reaped as planned, never as crashes.
        sup.tick()
        assert sup.fleet_size() == 1
        assert events("crash") == 0

    def test_telemetry_sees_scale_events(self, tmp_path, caplog):
        sup = make_supervisor(tmp_path, FakeClock(), fake_factory(),
                              scale_up_ticks=1, idle_ticks=1)
        with caplog.at_level(logging.INFO, logger="repro.runtime.supervisor"):
            add_pending_chunks(sup.spool, 8)
            sup.tick()
            clear_chunks(sup.spool)
            sup.tick()
        scales = [r.getMessage().split(" (")[0] for r in caplog.records
                  if r.getMessage().startswith("scale ")]
        assert scales == ["scale up -> 4", "scale down -> 1"]
        events = obs.get_registry().counter("repro_supervisor_events_total")
        assert events.value(op="scale_up") == 1
        assert events.value(op="scale_down") == 1


class TestCrashRecovery:
    def test_crash_is_respawned_and_latency_recorded(self, tmp_path):
        clock = FakeClock()
        factory = fake_factory()
        sup = make_supervisor(tmp_path, clock, factory, min_workers=2)
        sup.tick()
        factory.spawned[0][1].crash()
        clock.advance(0.25)
        sup.tick()
        assert sup.fleet_size() == 2
        assert events("crash") == 1
        assert events("respawn") == 1
        assert len(sup.recoveries) == 1
        # The stopwatch starts at crash *detection* (the reap), so the
        # instant respawn recovers within the same tick.
        assert sup.recoveries[0] < 0.25

    def test_respawn_budget_brakes_a_crash_loop(self, tmp_path):
        factory = fake_factory()
        sup = make_supervisor(tmp_path, FakeClock(), factory,
                              min_workers=1, respawn_budget=2)
        sup.tick()
        for _ in range(4):  # keeps crashing every tick
            factory.spawned[-1][1].crash()
            sup.tick()
        assert events("respawn") == 2  # budget spent...
        assert sup.fleet_size() == 0  # ...then the fleet shrinks
        assert events("crash") == 3  # boot + 2 respawns, all dead
        sup.tick()
        sup.tick()
        # The braked slot stays down — no quiet planned refill.
        assert sup.fleet_size() == 0
        assert events("spawn") == 3

    def test_planned_scaling_never_consumes_the_budget(self, tmp_path):
        factory = fake_factory()
        sup = make_supervisor(tmp_path, FakeClock(), factory,
                              min_workers=2, respawn_budget=0)
        sup.tick()
        assert sup.fleet_size() == 2  # boot spawns despite zero budget
        assert events("respawn") == 0

    def test_metrics_exported(self, tmp_path):
        sup = make_supervisor(tmp_path, FakeClock(), fake_factory(),
                              min_workers=1)
        add_pending_chunks(sup.spool, 3)
        sup.tick()
        snap = obs.get_registry().snapshot()["metrics"]
        workers = snap["repro_supervisor_workers"]["series"]
        backlog = snap["repro_supervisor_backlog_chunks"]["series"]
        events = snap["repro_supervisor_events_total"]["series"]
        assert workers[0]["value"] == 1
        assert backlog[0]["value"] == 3
        assert {"op": "spawn"} in [s["labels"] for s in events]

    def test_close_terminates_the_fleet(self, tmp_path):
        factory = fake_factory()
        sup = make_supervisor(tmp_path, FakeClock(), factory, min_workers=3)
        sup.tick()
        sup.close()
        assert all(not h.is_alive() for _, h in factory.spawned)
        assert sup.fleet_size() == 0
        sup.close()  # idempotent


class TestSpoolGC:
    TTL = 100.0

    def _sup(self, tmp_path, clock):
        return make_supervisor(tmp_path, clock, fake_factory(),
                               min_workers=0, gc_ttl_s=self.TTL)

    @staticmethod
    def _age(path, clock, seconds):
        ts = clock.now - seconds
        os.utime(path, (ts, ts))

    @staticmethod
    def _claim(spool, chunk_id, expires):
        doc = {"schema": 1, "worker": "w", "chunk": chunk_id,
               "expires": expires, "heartbeat": expires}
        (spool / "claims" / f"{chunk_id}.claim").write_text(json.dumps(doc))

    def test_gc_sweeps_abandoned_state_only(self, tmp_path):
        clock = FakeClock()
        sup = self._sup(tmp_path, clock)
        spool = sup.spool

        # Abandoned: chunk + expired-long-ago claim + orphan result,
        # all older than the TTL.
        (spool / "chunks" / "dead.chunk").write_text("{}")
        self._age(spool / "chunks" / "dead.chunk", clock, self.TTL + 60)
        self._claim(spool, "dead", expires=clock.now - self.TTL - 60)
        (spool / "results" / "orphan.json").write_text("{}")
        self._age(spool / "results" / "orphan.json", clock, self.TTL + 60)
        (spool / "chunks" / "debris.tmp").write_text("")
        self._age(spool / "chunks" / "debris.tmp", clock, self.TTL + 60)

        # Live: an old chunk whose lease is *current* — a long job mid
        # -heartbeat — plus fresh traffic below the TTL.
        (spool / "chunks" / "busy.chunk").write_text("{}")
        self._age(spool / "chunks" / "busy.chunk", clock, self.TTL + 60)
        self._claim(spool, "busy", expires=clock.now + 30)
        (spool / "chunks" / "fresh.chunk").write_text("{}")
        (spool / "results" / "fresh.json").write_text("{}")

        assert sup.gc() == {"claims": 1, "chunks": 1, "results": 1}
        assert not (spool / "chunks" / "dead.chunk").exists()
        assert not (spool / "claims" / "dead.claim").exists()
        assert not (spool / "results" / "orphan.json").exists()
        assert not (spool / "chunks" / "debris.tmp").exists()
        assert (spool / "chunks" / "busy.chunk").exists()
        assert (spool / "claims" / "busy.claim").exists()
        assert (spool / "chunks" / "fresh.chunk").exists()
        assert (spool / "results" / "fresh.json").exists()
        assert [events(op) for op in ("gc_claim", "gc_chunk", "gc_result")] == [1, 1, 1]

    def test_recently_expired_lease_is_left_for_the_broker(self, tmp_path):
        # An expired lease is the *broker's* requeue signal; GC only
        # claims it once it has been dead for a full TTL.
        clock = FakeClock()
        sup = self._sup(tmp_path, clock)
        (sup.spool / "chunks" / "c1.chunk").write_text("{}")
        self._claim(sup.spool, "c1", expires=clock.now - 5)
        assert sup.gc() == {"claims": 0, "chunks": 0, "results": 0}
        assert (sup.spool / "claims" / "c1.claim").exists()

    def test_stale_corrupt_claim_is_collected(self, tmp_path):
        clock = FakeClock()
        sup = self._sup(tmp_path, clock)
        path = sup.spool / "claims" / "torn.claim"
        path.write_bytes(b"\x00torn")
        # Fresh: a broker may yet heal it.
        assert sup.gc() == {"claims": 0, "chunks": 0, "results": 0}
        self._age(path, clock, self.TTL + 60)
        assert sup.gc() == {"claims": 1, "chunks": 0, "results": 0}
        assert events("gc_claim") == 1
        assert not path.exists()


@pytest.mark.slow
class TestRealFleet:
    def test_supervised_workers_drain_a_broker_run(self, tmp_path):
        """End to end with the default factory: the supervisor boots
        real worker processes that drain a real broker's spool."""
        spool = tmp_path / "spool"
        jobs = [chaos_job(seed=7, round_no=0, i=i) for i in range(6)]
        reference = run_jobs(jobs, executor="serial")
        broker = Broker(spool, poll_s=0.02)
        broker.submit(jobs, chunk_size=2)
        sup = Supervisor(spool, min_workers=1, max_workers=2, tick_s=0.05,
                         backlog_per_worker=1.0, scale_up_ticks=1,
                         idle_ticks=1000, worker_poll_s=0.01)
        stop = threading.Event()
        thread = threading.Thread(target=sup.run, kwargs=dict(stop=stop),
                                  daemon=True)
        thread.start()
        try:
            results = broker.collect(timeout=60)
        finally:
            stop.set()
            thread.join(timeout=30)
            broker.close()
        assert [r.ok for r in results] == [True] * 6
        assert ([r.value for r in results]
                == [r.value for r in reference.results])
        assert events("spawn") >= 1
        assert events("crash") == 0


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()  # [state, ppid, ...]


def _children(pid: int) -> list[int]:
    return [int(e) for e in os.listdir("/proc")
            if e.isdigit() and (_proc_stat(int(e)) or [None, None])[1] == str(pid)]


def _alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs Linux /proc")
class TestSuperviseSignals:
    def test_sigterm_stops_the_fleet(self, tmp_path):
        """`kill <supervisor>` must take its workers down with it."""
        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "supervise", "--spool",
             str(tmp_path / "spool"), "--min-workers", "1", "--tick", "0.1",
             "--no-cache", "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 30
            while not workers and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stderr.read().decode()
                time.sleep(0.05)
                workers = _children(proc.pid)
            assert workers, "the supervisor never started a worker"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
            deadline = time.monotonic() + 5
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestSuperviseCLI:
    @pytest.mark.parametrize("quiet", [False, True])
    def test_scale_up_is_logged_to_stderr_unless_quiet(self, tmp_path, capsys, quiet):
        """`repro supervise` prints the supervisor's scaling log on
        stderr; --quiet silences it."""
        from repro.runtime.cli import main

        spool = tmp_path / "spool"
        (spool / "chunks").mkdir(parents=True)
        add_pending_chunks(spool, 4)
        argv = ["supervise", "--spool", str(spool), "--min-workers", "0",
                "--max-workers", "1", "--scale-up-ticks", "1", "--max-ticks", "1",
                "--tick", "0.05", "--no-cache"]
        assert main(argv + ["--quiet"] * quiet) == 0
        err = capsys.readouterr().err
        line = "[supervise] scale up -> 1 (4 pending chunk(s) for 1 tick(s))"
        if quiet:
            assert "[supervise]" not in err
        else:
            assert err.count(line) == 1
            assert "[supervise] done: 1 tick(s), 1 spawned" in err
