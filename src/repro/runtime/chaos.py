"""Seeded chaos harness: fault injection for the supervised fleet.

Single-shot fault tests (``tests/test_dist.py``) prove each recovery
path in isolation; this module proves them *composed*, under sustained
traffic, the way a real fleet fails.  Two pieces:

* :class:`ChaosScheduler` — a deterministic fault scheduler.  Seeded
  with ``random.Random(seed)``, it plans a timeline of faults over a
  fixed duration and applies them from a background thread:
  ``kill_worker`` (SIGKILL a live supervised worker), ``corrupt_chunk``
  (overwrite a spooled chunk file with garbage in place),
  ``corrupt_result`` (tear a published result file mid-byte) and
  ``evict_store`` (force LRU eviction on the shared result store while
  workers are writing through it).  Faults that need a target retry
  until one exists, so a fixed seed yields a fixed fault *count* —
  what CI gates on — while exact victims vary with scheduling.
* :func:`run_chaos_soak` — the soak scenario itself: a
  :class:`~repro.runtime.supervisor.Supervisor` operates a worker
  fleet against a spool while rounds of sweep traffic flow through a
  :class:`~repro.runtime.dist.Broker` and the scheduler injects
  faults.  Every round is checked bit-identical against a serial run
  of the same jobs — same hashes, same order, same values — proving no
  chunk was lost, duplicated or mis-merged; the supervisor's measured
  crash-to-restored latencies ship in the :class:`SoakReport` that
  ``benchmarks/bench_chaos_soak.py`` gates.

The invariant under test is the queue's idempotence contract: equal
job hash ⇒ equal result, so any interleaving of kills, takeovers,
requeues and double executions merges to the serial answer — chaos
costs wall-clock time and retries, never bits.

Exposed as ``repro chaos-soak`` for CI smoke runs (fixed seed, short
duration) and used with larger budgets by ``tests/test_chaos_soak.py``
behind the ``soak`` marker.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import signal
import threading
import time
from dataclasses import dataclass, field

from . import obs
from .backends import make_backend
from .dist import Broker
from .jobs import JobSpec, canonical_json, register_runner
from .supervisor import Supervisor

__all__ = [
    "Fault",
    "ChaosScheduler",
    "SoakReport",
    "chaos_job",
    "run_chaos_soak",
]

#: Bytes a corrupted spool file is overwritten with: not JSON, so every
#: decoder reports corruption.
_GARBAGE = b"\x00chaos-corrupted\x00"


@register_runner("chaos_probe")
def _run_chaos_probe(params: dict, payload) -> dict:
    """Deterministic soak traffic: a pure function of the job key.

    Sleeps ``sleep_s`` to hold chunks in flight long enough for faults
    to land, then returns values derived only from ``x`` — so a serial
    run is bit-identical no matter what chaos did to the fleet.
    """
    time.sleep(params.get("sleep_s", 0.0))
    x = params["x"]
    return {"x": x, "squared": x * x, "round": params["round"]}


def chaos_job(seed: int, round_no: int, i: int, sleep_s: float = 0.0) -> JobSpec:
    """One soak traffic job, unique per ``(seed, round, i)``."""
    return JobSpec(kind="chaos_probe", key=canonical_json(
        {"seed": seed, "round": round_no, "x": i, "sleep_s": sleep_s}))


@dataclass
class Fault:
    """One planned fault and its outcome."""

    #: Fault kind: ``kill_worker``, ``corrupt_chunk``,
    #: ``corrupt_result`` or ``evict_store``.
    kind: str
    #: Planned offset from scheduler start, seconds.
    at_s: float
    #: True once the fault actually landed on a target.
    applied: bool = False
    #: What it hit (pid, chunk id, eviction count) — display only.
    target: str = ""


class ChaosScheduler:
    """Applies a seeded fault timeline to a spool + fleet + store.

    The schedule is fixed by ``seed`` at construction; :meth:`start`
    runs it on a background thread.  Each fault blocks (retrying at
    millisecond cadence) until a suitable target exists or the
    scheduler is stopped, so under live traffic every planned fault
    lands and :meth:`applied` is deterministic for a fixed seed —
    the property the CI soak job and bench gate assert on.
    """

    KINDS = ("kill_worker", "corrupt_chunk", "corrupt_result", "evict_store")

    def __init__(
        self,
        spool_dir: str | os.PathLike,
        seed: int = 0,
        duration_s: float = 6.0,
        kills: int = 3,
        chunk_corruptions: int = 2,
        result_corruptions: int = 1,
        evictions: int = 1,
        victims=None,
        store=None,
        retry_s: float = 0.002,
    ) -> None:
        """Args: the spool to attack, the RNG seed, the timeline length
        and per-kind fault counts; ``victims`` is a zero-arg callable
        returning killable worker PIDs (e.g.
        ``Supervisor.worker_pids``), ``store`` the
        :class:`~repro.runtime.store.ResultStore` eviction faults
        squeeze, and ``retry_s`` the target-hunting poll interval."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.spool = pathlib.Path(spool_dir)
        self.seed = seed
        self.victims = victims or (lambda: [])
        self.store = store
        self.retry_s = retry_s
        rng = random.Random(seed)
        plan: list[Fault] = []
        for kind, count in (("kill_worker", kills),
                            ("corrupt_chunk", chunk_corruptions),
                            ("corrupt_result", result_corruptions),
                            ("evict_store", evictions)):
            for _ in range(count):
                plan.append(Fault(kind=kind,
                                  at_s=rng.uniform(0.05, 0.95) * duration_s))
        plan.sort(key=lambda f: (f.at_s, f.kind))
        #: The planned faults in firing order; outcomes are filled in
        #: as the background thread applies them.
        self.faults = plan
        self._rng = rng
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    # -- fault implementations (each returns a target string or None) ------

    def _kill_worker(self) -> str | None:
        pids = [p for p in self.victims() if p and p != os.getpid()]
        if not pids:
            return None
        pid = self._rng.choice(sorted(pids))
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return None
        return f"pid {pid}"

    def _corrupt_file(self, directory: str, suffix: str) -> str | None:
        """Overwrite one existing file in place with garbage bytes.

        Opens without ``O_CREAT`` so racing an unlink (a worker or
        broker consuming the file) misses cleanly instead of planting
        a phantom file the queue never submitted.
        """
        candidates = sorted((self.spool / directory).glob(f"*{suffix}"))
        if not candidates:
            return None
        path = self._rng.choice(candidates)
        try:
            fd = os.open(path, os.O_WRONLY)
        except OSError:
            return None  # consumed just now; hunt again
        try:
            os.ftruncate(fd, 0)
            os.write(fd, _GARBAGE)
        finally:
            os.close(fd)
        return f"{directory}/{path.name}"

    def _evict_store(self) -> str | None:
        if self.store is None:
            return None
        removed = self.store.shrink(fraction=1.0)
        if not removed:
            return None  # nothing cached yet; retry under more traffic
        return f"evicted {removed} entr{'y' if removed == 1 else 'ies'}"

    def _apply(self, fault: Fault) -> bool:
        target = {
            "kill_worker": self._kill_worker,
            "corrupt_chunk": lambda: self._corrupt_file("chunks", ".chunk"),
            "corrupt_result": lambda: self._corrupt_file("results", ".json"),
            "evict_store": self._evict_store,
        }[fault.kind]()
        if target is None:
            return False
        fault.applied = True
        fault.target = target
        return True

    def _run(self) -> None:
        start = time.monotonic()
        for fault in self.faults:
            while not self._stop.is_set():
                if time.monotonic() - start >= fault.at_s:
                    break
                self._stop.wait(self.retry_s)
            while not self._stop.is_set():
                if self._apply(fault):
                    break
                self._stop.wait(self.retry_s)
            if self._stop.is_set():
                return

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ChaosScheduler":
        """Run the fault timeline on a background thread."""
        self._thread.start()
        return self

    def stop(self) -> None:
        """Abandon unapplied faults and join the thread (idempotent)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def done(self) -> bool:
        """True once every planned fault was applied (or abandoned)."""
        return not self._thread.is_alive() or all(
            f.applied for f in self.faults)

    def applied(self, kind: str | None = None) -> int:
        """Faults applied so far, optionally filtered by ``kind``."""
        return sum(1 for f in self.faults
                   if f.applied and (kind is None or f.kind == kind))


@dataclass
class SoakReport:
    """Outcome of one :func:`run_chaos_soak` scenario."""

    #: True iff every round merged bit-identical to its serial run.
    ok: bool
    #: Human-readable first divergence (None when ok).
    mismatch: str | None
    rounds: int
    jobs: int
    kills: int
    chunk_corruptions: int
    result_corruptions: int
    evictions: int
    chunks_submitted: int
    chunks_completed: int
    requeues: int
    chunk_failures: int
    #: Supervisor-measured crash-to-restored latencies, seconds.
    recoveries: list = field(default_factory=list)
    workers_peak: int = 0
    elapsed_s: float = 0.0

    def summary(self) -> str:
        """One-line verdict for logs and the CLI."""
        worst = max(self.recoveries, default=0.0)
        return (
            f"chaos soak: {'OK' if self.ok else 'FAILED'} — "
            f"{self.rounds} round(s), {self.jobs} job(s), "
            f"{self.kills} kill(s), "
            f"{self.chunk_corruptions + self.result_corruptions} "
            f"corruption(s), {self.evictions} eviction(s); "
            f"{self.requeues} requeue(s), "
            f"{len(self.recoveries)} recover{'y' if len(self.recoveries) == 1 else 'ies'} "
            f"(worst {worst:.2f}s), peak fleet {self.workers_peak}, "
            f"{self.elapsed_s:.1f}s"
            + (f" — {self.mismatch}" if self.mismatch else "")
        )


def _payload(results) -> bytes:
    """The bit-identity projection: hash, kind, ok, value, error —
    everything except timing and cache provenance, which legitimately
    differ across executions of equal jobs."""
    return json.dumps(
        [{"hash": r.job_hash, "kind": r.kind, "ok": r.ok,
          "value": r.value, "error": r.error} for r in results],
        sort_keys=True,
    ).encode()


def run_chaos_soak(
    spool_dir: str | os.PathLike,
    cache_dir: str | os.PathLike | None = None,
    seed: int = 0,
    rounds: int = 3,
    jobs_per_round: int = 24,
    chunk_size: int = 2,
    job_sleep_s: float = 0.02,
    min_workers: int = 1,
    max_workers: int = 3,
    lease_ttl_s: float = 1.5,
    kills: int = 3,
    chunk_corruptions: int = 2,
    result_corruptions: int = 1,
    evictions: int = 1,
    duration_s: float = 6.0,
    collect_timeout_s: float = 120.0,
    max_attempts: int = 10,
    on_round=None,
) -> SoakReport:
    """Run the full chaos-soak scenario and report the verdict.

    Starts a :class:`~repro.runtime.supervisor.Supervisor` (autoscaling
    ``min_workers``..``max_workers`` real worker processes over
    ``spool_dir``, write-through to ``cache_dir`` when given) and a
    seeded :class:`ChaosScheduler`, then drives ``rounds`` of
    ``jobs_per_round`` traffic jobs through a fresh
    :class:`~repro.runtime.dist.Broker` per round — continuing past
    ``rounds`` if faults are still pending, so the fixed seed's full
    fault budget always lands.  Each round's merged results are
    compared bit-identical (hash, order, values) against a serial run
    of the same jobs; ``on_round`` is an optional
    ``(round_no, ok)`` progress callback.

    Returns a :class:`SoakReport`; never raises for fault-induced
    divergence (``ok``/``mismatch`` carry the verdict) so callers can
    attach artifacts before failing.
    """
    spool = pathlib.Path(spool_dir)
    started = time.perf_counter()
    store = None
    if cache_dir is not None:
        from .store import ResultStore

        store = ResultStore(cache_dir)
    supervisor = Supervisor(
        spool,
        min_workers=min_workers,
        max_workers=max_workers,
        tick_s=0.05,
        backlog_per_worker=1.0,
        scale_up_ticks=1,
        idle_ticks=50,
        lease_ttl_s=lease_ttl_s,
        worker_poll_s=0.01,
        gc_ttl_s=3600.0,  # never collide with this live run
        respawn_budget=kills + 8,
        cache_dir=None if cache_dir is None else str(cache_dir),
    )
    chaos = ChaosScheduler(
        spool, seed=seed, duration_s=duration_s, kills=kills,
        chunk_corruptions=chunk_corruptions,
        result_corruptions=result_corruptions,
        evictions=evictions,
        victims=supervisor.worker_pids, store=store,
    )
    serial = make_backend("serial")
    sup_stop = threading.Event()
    sup_thread = threading.Thread(
        target=supervisor.run, kwargs={"stop": sup_stop}, daemon=True)
    mismatch = None
    round_no = 0
    workers_peak = 0
    # The soak's brokers count on the process registry: report the
    # growth over this run, not whatever the process counted before.
    broker_events = obs.get_registry().counter("repro_broker_events_total")
    ops = ("submit", "complete", "requeue", "chunk_failed")
    before = {op: broker_events.value(op=op) for op in ops}
    sup_thread.start()
    chaos.start()
    try:
        # Keep traffic flowing until both the round budget and the
        # fault budget are spent (bounded at 10x rounds as a backstop
        # against a fault that can never find a target).
        while round_no < rounds or (not chaos.done()
                                    and round_no < rounds * 10):
            jobs = [chaos_job(seed, round_no, i, sleep_s=job_sleep_s)
                    for i in range(jobs_per_round)]
            expected = serial.run(list(jobs))
            broker = Broker(spool, lease_ttl_s=lease_ttl_s, poll_s=0.02,
                            max_attempts=max_attempts)
            try:
                broker.submit(list(jobs), chunk_size=chunk_size)
                got = broker.collect(timeout=collect_timeout_s)
            finally:
                broker.close()
            workers_peak = max(workers_peak, supervisor.fleet_size())
            round_ok = True
            if [r.job_hash for r in got] != [s.job_hash for s in jobs]:
                round_ok = False
                if mismatch is None:
                    mismatch = (f"round {round_no}: result hashes lost order "
                                f"or count ({len(got)}/{len(jobs)} jobs)")
            elif _payload(got) != _payload(expected):
                round_ok = False
                if mismatch is None:
                    diverged = [r.job_hash[:12] for r, e in zip(got, expected)
                                if _payload([r]) != _payload([e])]
                    mismatch = (f"round {round_no}: values diverged from the "
                                f"serial run for {len(diverged)} job(s): "
                                f"{', '.join(diverged[:4])}")
            if on_round is not None:
                on_round(round_no, round_ok)
            round_no += 1
    finally:
        chaos.stop()
        sup_stop.set()
        sup_thread.join(timeout=30.0)
    submitted, completed, requeues, failures = (
        int(broker_events.value(op=op) - before[op]) for op in ops)
    return SoakReport(
        ok=mismatch is None and failures == 0,
        mismatch=mismatch if mismatch is not None else (
            None if failures == 0 else
            f"{failures} chunk(s) exhausted their retry budget"),
        rounds=round_no,
        jobs=round_no * jobs_per_round,
        kills=chaos.applied("kill_worker"),
        chunk_corruptions=chaos.applied("corrupt_chunk"),
        result_corruptions=chaos.applied("corrupt_result"),
        evictions=chaos.applied("evict_store"),
        chunks_submitted=submitted,
        chunks_completed=completed,
        requeues=requeues,
        chunk_failures=failures,
        recoveries=list(supervisor.recoveries),
        workers_peak=workers_peak,
        elapsed_s=time.perf_counter() - started,
    )
