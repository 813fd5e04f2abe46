"""Autoscaling fleet supervisor: operates workers off spool signals.

The cluster queue (:mod:`repro.runtime.dist`) is crash-safe but its
fleet sizing is manual: somebody has to start ``repro worker`` agents,
restart the ones that die, and sweep up the spool debris a killed run
leaves behind.  :class:`Supervisor` closes that loop.  It is a control
loop over two inputs — a per-tick :class:`SpoolSnapshot` (queue depth,
lease states, pending-chunk age scanned straight off the spool
directory) and, when observability is configured, the event journal —
and one output: the set of worker processes it owns.

Per tick the supervisor

* **reaps** exited workers, distinguishing planned retirements from
  crashes (a crash starts the recovery-latency stopwatch);
* **scales up** when backlog is *sustained*: pending chunks for
  ``scale_up_ticks`` consecutive ticks raise the target toward
  ``ceil(pending / backlog_per_worker)``, capped at ``max_workers``;
* **scales down** after ``idle_ticks`` consecutive empty-spool ticks,
  retiring the newest workers back to ``min_workers``;
* **respawns** crash casualties up to ``respawn_budget`` (a crash-loop
  brake: planned scaling never consumes it), recording the
  crash-to-restored latency in ``repro_supervisor_recovery_seconds``;
* **GCs** abandoned spool state older than ``gc_ttl_s``: claims whose
  lease expired that long ago (or corrupt/torn claims that stale),
  chunk files no broker or worker has touched, and result files no
  broker ever consumed.  Live leases and fresh files are never
  touched, so a supervisor can share a spool with active runs;
* **checks SLOs** (observability configured): tails the journal into
  an :class:`~repro.runtime.slo.SLOMonitor` and journals one
  ``slo.breach`` event per rule that newly starts burning its error
  budget — the fleet's alerting hook.

Everything observable is exported as ``repro_supervisor_*`` metrics
and ``supervisor.*`` journal events; :class:`SupervisorStats`
accumulates the same counters in-process for tests and the CLI exit
summary, and each scaling decision is also an INFO record on this
module's logger.  ``repro supervise --spool DIR --min-workers N --max-workers
M`` runs the loop as a daemon; the chaos harness
(:mod:`repro.runtime.chaos`) runs it under fault injection and asserts
the recovery behaviour stays within the gated bench envelope.

Workers are spawned through a pluggable ``worker_factory`` so tests
can inject inert handles; the default forks ``worker_loop`` daemon
processes (``repro worker`` equivalents) that the chaos scheduler can
SIGKILL by pid.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import pathlib
import threading
import time
import uuid
from dataclasses import dataclass, field

from . import obs
from .dist import _SPOOL_DIRS, _spool_dirs, claim_state, worker_loop

__all__ = [
    "SpoolSnapshot",
    "GCStats",
    "SupervisorStats",
    "Supervisor",
]

#: Scale, respawn, recovery and GC decisions are logged here at INFO
#: next to their journal events; ``repro supervise`` prints them.
log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpoolSnapshot:
    """One control tick's view of the spool, scanned from disk."""

    #: Chunks with no published result (the queue depth).
    pending: int
    #: Pending chunks with no live lease (work nobody is executing).
    unclaimed: int
    #: Pending chunks under a live (unexpired) lease.
    live_leases: int
    #: Pending chunks whose lease outlived its TTL (dead worker).
    expired_leases: int
    #: Pending chunks whose claim file is torn/undecodable.
    corrupt_leases: int
    #: Result files waiting for a broker to consume them.
    results_waiting: int
    #: Age in seconds of the oldest pending chunk file (0 when none).
    oldest_pending_s: float


@dataclass
class GCStats:
    """Removal counts from spool garbage collection."""

    claims: int = 0
    chunks: int = 0
    results: int = 0

    def total(self) -> int:
        """Total files removed across all categories."""
        return self.claims + self.chunks + self.results


@dataclass
class SupervisorStats:
    """Counters accumulated over one supervisor's lifetime."""

    ticks: int = 0
    spawned: int = 0
    retired: int = 0
    respawned: int = 0
    crashes: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    gc: GCStats = field(default_factory=GCStats)
    #: Crash-to-restored latencies, one per recovery episode.
    recoveries: list = field(default_factory=list)


def _supervised_worker(spool_dir: str, worker_id: str, poll_s: float,
                       lease_ttl_s: float, cache_dir: str | None,
                       max_bytes: int | None) -> None:
    """Entry point of a supervisor-spawned worker process.

    A daemon-mode :func:`~repro.runtime.dist.worker_loop` (poll
    forever; the supervisor decides lifetimes), with result-store
    read/write-through when the supervisor was given a cache
    directory.
    """
    store = None
    if cache_dir is not None:
        from .store import ResultStore

        store = ResultStore(cache_dir, max_bytes=max_bytes)
    worker_loop(spool_dir, worker_id=worker_id, store=store,
                poll_s=poll_s, lease_ttl_s=lease_ttl_s, drain=False)


class Supervisor:
    """Control loop that sizes and heals a spool worker fleet.

    One instance owns one fleet against one spool directory.  Drive it
    with :meth:`run` (blocking daemon loop) or call :meth:`tick`
    directly for deterministic single-step control (tests).  The
    supervisor never submits or consumes work — brokers stay the
    authoritative side of every run — it only operates the workers and
    sweeps up state no live run owns.
    """

    def __init__(
        self,
        spool_dir: str | os.PathLike,
        min_workers: int = 1,
        max_workers: int = 4,
        tick_s: float = 0.5,
        backlog_per_worker: float = 2.0,
        scale_up_ticks: int = 2,
        idle_ticks: int = 4,
        lease_ttl_s: float = 30.0,
        worker_poll_s: float = 0.05,
        gc_ttl_s: float = 900.0,
        respawn_budget: int = 16,
        cache_dir: str | None = None,
        max_bytes: int | None = None,
        worker_factory=None,
        clock=None,
        slo_rules=None,
    ) -> None:
        """Args:
            spool_dir: the spool to watch and serve.
            min_workers: fleet floor (kept alive even when idle).
            max_workers: fleet ceiling under any backlog.
            tick_s: control-loop cadence for :meth:`run`.
            backlog_per_worker: pending chunks each worker is expected
                to absorb; the scale-up target is
                ``ceil(pending / backlog_per_worker)``.
            scale_up_ticks: consecutive backlogged ticks required
                before scaling up (debounces bursts).
            idle_ticks: consecutive empty ticks before scaling down.
            lease_ttl_s: lease TTL handed to spawned workers.
            worker_poll_s: spool poll interval of spawned workers.
            gc_ttl_s: age beyond which abandoned spool files are GCed.
            respawn_budget: lifetime cap on crash replacements (a
                crash-loop brake; planned scaling is never counted).
            cache_dir: optional result-store directory for workers'
                read/write-through (None = no store).
            max_bytes: optional size cap for that store.
            worker_factory: ``factory(seq) -> (worker_id, handle)``
                override; handles need ``is_alive()``, ``terminate()``,
                ``join(timeout)`` and ``pid``.  Default spawns
                :func:`_supervised_worker` processes.
            clock: wall-clock override for lease/GC/recovery timing
                (tests; default ``time.time``).
            slo_rules: :class:`~repro.runtime.slo.SLORule` list to
                evaluate each tick against the journal (None = the
                built-in defaults).  Needs observability configured;
                a rule that newly starts burning journals one
                ``slo.breach`` event and bumps the event counter.
        """
        if min_workers < 0:
            raise ValueError("min_workers must be >= 0")
        if max_workers < max(1, min_workers):
            raise ValueError("max_workers must be >= max(1, min_workers)")
        if tick_s <= 0 or backlog_per_worker <= 0 or gc_ttl_s <= 0:
            raise ValueError("tick_s, backlog_per_worker and gc_ttl_s "
                             "must be positive")
        if scale_up_ticks < 1 or idle_ticks < 1:
            raise ValueError("scale_up_ticks and idle_ticks must be >= 1")
        self.spool = pathlib.Path(spool_dir)
        _spool_dirs(self.spool)
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.tick_s = tick_s
        self.backlog_per_worker = backlog_per_worker
        self.scale_up_ticks = scale_up_ticks
        self.idle_ticks = idle_ticks
        self.lease_ttl_s = lease_ttl_s
        self.worker_poll_s = worker_poll_s
        self.gc_ttl_s = gc_ttl_s
        self.cache_dir = cache_dir
        self.max_bytes = max_bytes
        self.clock = clock or time.time
        self.stats = SupervisorStats()
        self.desired = min_workers
        self._factory = worker_factory or self._default_factory
        self._fleet: dict[str, object] = {}  # wid -> handle, spawn order
        self._retiring: set[str] = set()
        self._seq = 0
        self._nonce = uuid.uuid4().hex[:6]
        self._busy_streak = 0
        self._idle_streak = 0
        self._crash_debt = 0
        self._respawn_budget = respawn_budget
        self._deficit_since: float | None = None
        registry = obs.get_registry()
        self._workers_gauge = registry.gauge(
            "repro_supervisor_workers",
            "Live worker processes owned by the supervisor.")
        self._backlog_gauge = registry.gauge(
            "repro_supervisor_backlog_chunks",
            "Pending chunks (no published result) seen at the last tick.")
        self._events = registry.counter(
            "repro_supervisor_events_total",
            "Supervisor control events by op (spawn, retire, respawn, "
            "crash, scale_up, scale_down, gc_claim, gc_chunk, gc_result, "
            "slo_breach).")
        self._recovery_hist = registry.histogram(
            "repro_supervisor_recovery_seconds",
            "Crash-to-fleet-restored latency per recovery episode.")
        # SLO monitoring rides the journal: without an obs dir there is
        # nothing to tail (or to alert into), so the monitor stays off.
        self._slo_monitor = None
        self._slo_tailer = None
        target = obs.obs_dir()
        if target is not None:
            from .slo import SLOMonitor

            self._slo_monitor = SLOMonitor(slo_rules, clock=self.clock)
            self._slo_tailer = obs.JournalTailer(target / "journal.ndjson")

    # -- fleet plumbing ----------------------------------------------------

    def _default_factory(self, seq: int):
        """Spawn one daemon worker process; returns ``(wid, process)``."""
        wid = f"sup-{self._nonce}-{seq}"
        proc = multiprocessing.Process(
            target=_supervised_worker,
            args=(str(self.spool), wid, self.worker_poll_s, self.lease_ttl_s,
                  self.cache_dir, self.max_bytes),
            daemon=True,
        )
        proc.start()
        return wid, proc

    def fleet_size(self) -> int:
        """Live, non-retiring workers (the size scaling reasons about)."""
        return len(self._active())

    def worker_pids(self) -> list[int]:
        """PIDs of live workers — the chaos scheduler's kill list."""
        out = []
        for wid in self._active():
            pid = getattr(self._fleet[wid], "pid", None)
            if pid:
                out.append(pid)
        return out

    def _active(self) -> list[str]:
        # Snapshot first: worker_pids()/fleet_size() are read from other
        # threads (chaos scheduler, soak driver) while the control
        # thread mutates the fleet dict.
        return [wid for wid, h in list(self._fleet.items())
                if wid not in self._retiring and h.is_alive()]

    def _reap(self) -> None:
        """Collect exited workers; crashes start the recovery stopwatch."""
        for wid, handle in list(self._fleet.items()):
            if handle.is_alive():
                continue
            try:
                handle.join(0)
            except (TypeError, ValueError):  # pragma: no cover - fakes
                pass
            self._fleet.pop(wid)
            if wid in self._retiring:
                self._retiring.discard(wid)
                continue
            self.stats.crashes += 1
            self._crash_debt += 1
            self._events.inc(op="crash")
            obs.emit("supervisor.crash", worker=wid)
            if self._deficit_since is None:
                self._deficit_since = self.clock()

    def _spawn_one(self, respawn: bool) -> str:
        wid, handle = self._factory(self._seq)
        self._seq += 1
        self._fleet[wid] = handle
        self.stats.spawned += 1
        self._events.inc(op="spawn")
        if respawn:
            self.stats.respawned += 1
            self._events.inc(op="respawn")
            obs.emit("supervisor.respawn", worker=wid)
            log.info("respawned crashed worker as %s", wid)
        else:
            obs.emit("supervisor.spawn", worker=wid)
        return wid

    def _retire_one(self) -> None:
        """Terminate the newest active worker (LIFO keeps the veterans
        whose leases are most likely mid-heartbeat)."""
        for wid in reversed(self._active()):
            handle = self._fleet[wid]
            self._retiring.add(wid)
            try:
                handle.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
            self.stats.retired += 1
            self._events.inc(op="retire")
            obs.emit("supervisor.retire", worker=wid)
            return

    # -- observation -------------------------------------------------------

    def scan(self) -> SpoolSnapshot:
        """Scan the spool into one :class:`SpoolSnapshot` (read-only)."""
        results = {p.stem for p in (self.spool / "results").glob("*.json")}
        now = self.clock()
        pending = unclaimed = live = expired = corrupt = 0
        oldest = 0.0
        for path in (self.spool / "chunks").glob("*.chunk"):
            if path.stem in results:
                continue
            pending += 1
            try:
                oldest = max(oldest, now - path.stat().st_mtime)
            except OSError:
                pass  # raced a worker's unlink; still pending this tick
            state, _ = claim_state(self.spool, path.stem, clock=self.clock)
            if state == "live":
                live += 1
            else:
                unclaimed += 1
                if state == "expired":
                    expired += 1
                elif state == "corrupt":
                    corrupt += 1
        return SpoolSnapshot(
            pending=pending, unclaimed=unclaimed, live_leases=live,
            expired_leases=expired, corrupt_leases=corrupt,
            results_waiting=len(results), oldest_pending_s=oldest,
        )

    # -- control -----------------------------------------------------------

    def _decide(self, snapshot: SpoolSnapshot) -> None:
        """Update :attr:`desired` from the sustained-signal streaks."""
        if snapshot.pending > 0:
            self._busy_streak += 1
            self._idle_streak = 0
        else:
            self._busy_streak = 0
            self._idle_streak += 1
        if self._busy_streak >= self.scale_up_ticks:
            want = math.ceil(snapshot.pending / self.backlog_per_worker)
            want = max(self.min_workers, min(self.max_workers, want))
            if want > self.desired:
                self.desired = want
                self.stats.scale_ups += 1
                self._events.inc(op="scale_up")
                why = (f"{snapshot.pending} pending chunk(s) for "
                       f"{self._busy_streak} tick(s)")
                obs.emit("supervisor.scale", direction="up",
                         target=want, why=why)
                log.info("scale up -> %d (%s)", want, why)
        elif (self._idle_streak >= self.idle_ticks
              and self.desired > self.min_workers):
            self.desired = self.min_workers
            self.stats.scale_downs += 1
            self._events.inc(op="scale_down")
            why = f"spool idle for {self._idle_streak} tick(s)"
            obs.emit("supervisor.scale", direction="down",
                     target=self.desired, why=why)
            log.info("scale down -> %d (%s)", self.desired, why)

    def _reconcile(self) -> None:
        """Spawn or retire workers until the fleet matches ``desired``."""
        active = self._active()
        deficit = self.desired - len(active)
        braked = 0
        while deficit > 0:
            if self._crash_debt > 0:
                self._crash_debt -= 1
                if self._respawn_budget <= 0:
                    # Crash-loop brake: stop replacing casualties (the
                    # fleet shrinks instead of thrashing); planned
                    # spawns below are unaffected.
                    braked += 1
                    deficit -= 1
                    continue
                self._respawn_budget -= 1
                self._spawn_one(respawn=True)
            else:
                self._spawn_one(respawn=False)
            deficit -= 1
        # Braked slots keep their crash debt, so the next tick brakes
        # them again instead of quietly refilling them as planned
        # spawns — the fleet stays shrunk until the operator intervenes.
        self._crash_debt += braked
        for _ in range(-deficit):
            self._retire_one()
        if self._deficit_since is not None and self.fleet_size() >= self.desired:
            recovery = max(0.0, self.clock() - self._deficit_since)
            self._deficit_since = None
            self.stats.recoveries.append(recovery)
            self._recovery_hist.observe(recovery)
            obs.emit("supervisor.recovered", recovery_s=recovery)
            log.info("fleet restored in %.2fs", recovery)

    def gc(self) -> GCStats:
        """One spool GC pass; returns what was removed.

        Removes, past ``gc_ttl_s``: claims whose lease *expired* that
        long ago (or corrupt claim files that stale), chunk files
        nothing has touched (no live lease — an abandoned submission),
        and result files no broker consumed (its submitter is gone).
        Temp-file debris ages out on the same TTL.  Live leases, and
        anything younger than the TTL, are never touched — an active
        run's spool state is indistinguishable from healthy traffic.
        """
        removed = GCStats()
        now = self.clock()
        cutoff = now - self.gc_ttl_s

        def _stale(path: pathlib.Path) -> bool:
            try:
                return path.stat().st_mtime < cutoff
            except OSError:
                return False

        for path in (self.spool / "claims").glob("*.claim"):
            state, doc = claim_state(self.spool, path.stem, clock=self.clock)
            drop = False
            if state == "expired":
                drop = doc.get("expires", 0.0) < cutoff
            elif state == "corrupt":
                drop = _stale(path)
            if drop:
                path.unlink(missing_ok=True)
                removed.claims += 1
        for path in (self.spool / "chunks").glob("*.chunk"):
            state, _ = claim_state(self.spool, path.stem, clock=self.clock)
            if state != "live" and _stale(path):
                path.unlink(missing_ok=True)
                removed.chunks += 1
        for path in (self.spool / "results").glob("*.json"):
            if _stale(path):
                path.unlink(missing_ok=True)
                removed.results += 1
        for sub in _SPOOL_DIRS:
            for path in (self.spool / sub).glob("*.tmp"):
                if _stale(path):
                    path.unlink(missing_ok=True)
        if removed.total():
            self.stats.gc.claims += removed.claims
            self.stats.gc.chunks += removed.chunks
            self.stats.gc.results += removed.results
            for op, n in (("gc_claim", removed.claims),
                          ("gc_chunk", removed.chunks),
                          ("gc_result", removed.results)):
                if n:
                    self._events.inc(n, op=op)
            obs.emit("supervisor.gc", claims=removed.claims,
                     chunks=removed.chunks, results=removed.results)
            log.info("gc: %d claim(s), %d chunk(s), %d result(s)",
                     removed.claims, removed.chunks, removed.results)
        return removed

    def tick(self) -> SpoolSnapshot:
        """One control iteration: reap, observe, decide, reconcile, GC.

        Deterministic given the spool state and worker behaviour — the
        scaling tests drive this directly with a fake clock and inert
        worker handles, no sleeping.  Returns the snapshot acted on.
        """
        self._reap()
        snapshot = self.scan()
        self._decide(snapshot)
        self._reconcile()
        self.gc()
        self.stats.ticks += 1
        self._workers_gauge.set(self.fleet_size())
        self._backlog_gauge.set(snapshot.pending)
        self._check_slos()
        return snapshot

    def _check_slos(self) -> None:
        """Evaluate the SLO monitor (if observability is on) and journal
        one ``slo.breach`` per rule that *newly* started burning."""
        if self._slo_monitor is None:
            return
        self._slo_monitor.feed(self._slo_tailer.poll())
        self._slo_monitor.evaluate(registry=obs.get_registry(),
                                   now=self.clock())
        for status in self._slo_monitor.last_breaches:
            self._events.inc(op="slo_breach")
            obs.emit("slo.breach", rule=status.rule.name,
                     metric=status.rule.metric,
                     burn_rates={k: round(v, 4)
                                 for k, v in status.burn_rates.items()},
                     measured=status.measured,
                     exemplar_trace=status.exemplar_trace)

    def run(self, stop: threading.Event | None = None,
            max_ticks: int | None = None) -> SupervisorStats:
        """Blocking control loop: tick every ``tick_s`` until stopped.

        Stops when ``stop`` is set or after ``max_ticks`` ticks; the
        owned fleet is terminated on the way out (:meth:`close`).
        Returns the accumulated :class:`SupervisorStats`.
        """
        stop = stop if stop is not None else threading.Event()
        try:
            while not stop.is_set():
                self.tick()
                if max_ticks is not None and self.stats.ticks >= max_ticks:
                    break
                stop.wait(self.tick_s)
        finally:
            self.close()
        return self.stats

    def close(self) -> None:
        """Terminate and join every owned worker (idempotent)."""
        for handle in self._fleet.values():
            try:
                handle.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
        for handle in self._fleet.values():
            try:
                handle.join(2.0)
            except (TypeError, ValueError):  # pragma: no cover - fakes
                pass
            if handle.is_alive():  # pragma: no cover - stuck worker
                kill = getattr(handle, "kill", None)
                if kill is not None:
                    kill()
                    handle.join(1.0)
        self._fleet.clear()
        self._retiring.clear()
        self._workers_gauge.set(0)
