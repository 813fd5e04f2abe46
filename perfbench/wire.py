"""Wire workloads (``wire_local``, ``wire_broker``): closed-loop TCP traffic
against the unmodified ``repro serve``, from one load-generator process
over one connection that speaks protocol v2.  Requests go in bursts
(``BURST``), each written at once; the next waits for every answer.

Traffic alternates between phases of ``PHASE`` requests.  Hit phases
repeat ``dse_point`` keys warmed during set-up (the read path); miss
phases send keys never seen before, each with its own ``utilization``
(the write path: execution plus write-through).

The end-to-end metrics are CPU time of the serving plane (the server,
plus the worker on ``wire_broker``), read from ``/proc`` before and after
each phase, which ends when its last answer arrived.  Each is taken from
each plane's fastest phase of its kind: a busy host only ever slows a
phase down.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import common

pc = time.perf_counter

#: Requests written at once, by workload and kind (hit or not).  Hits are
#: served from the store before the batch queue, so they go one at a time.
#: A local miss goes alone too: the thread backend spreads a batch over
#: pool threads whose contention for the interpreter lock makes its CPU
#: cost vary from batch to batch.  A broker miss waits for the worker's
#: 0.1 s spool poll, so misses go there as one full serve batch (the
#: server's default ``max_batch``).
BURST = {"wire_local": {True: 1, False: 1}, "wire_broker": {True: 1, False: 32}}
#: Requests per phase; phases alternate hit, miss.
PHASE = 64
WARM_KEYS = 32
#: A request unanswered this long after it was sent counts as failed,
#: and the run stops driving traffic.
ANSWER_TIMEOUT_S = 30.0

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")
_TICK = os.sysconf("SC_CLK_TCK")


class Traffic:
    """The seeded request stream: warm keys, hits on them, never-seen misses."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        combos = [(s, u) for s in range(1, 33) for u in (1.0, 0.75, 0.5, 0.25)]
        self.warm = [{"kind": "dse_point", "params": {"n_slices": s, "utilization": u}}
                     for s, u in self.rng.sample(combos, WARM_KEYS)]
        self.used = {0.25, 0.5, 0.75, 1.0}
        self.count = 0

    def request(self, hit: bool) -> dict:
        if hit:
            req = dict(self.rng.choice(self.warm))
        else:
            u = round(self.rng.uniform(0.01, 0.99), 9)
            while u in self.used:
                u = round(self.rng.uniform(0.01, 0.99), 9)
            self.used.add(u)
            req = {"kind": "dse_point",
                   "params": {"n_slices": self.rng.randint(1, 32), "utilization": u}}
        self.count += 1
        return {"id": f"r{self.count}", **req}


def expected_value(request: dict, memo: dict):
    """What the server must answer: ``execute_job(request_to_spec(req))``,
    normalised through JSON like the wire does."""
    from repro.runtime.jobs import execute_job
    from repro.runtime.serve import request_to_spec

    key = json.dumps(request["params"], sort_keys=True)
    if key not in memo:
        memo[key] = json.loads(json.dumps(execute_job(request_to_spec(request))))
    return memo[key]


def _thread_cpu(pid: int, tid: str) -> float:
    """CPU seconds of one thread: ``se.sum_exec_runtime`` (ns precision)
    where the kernel exposes it, else the process's clock ticks."""
    try:
        with open(f"/proc/{pid}/task/{tid}/sched") as fh:
            for line in fh:
                if line.startswith("se.sum_exec_runtime"):
                    return float(line.split(":")[1]) / 1e3
    except FileNotFoundError:
        pass
    if tid != str(pid):
        return 0.0
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def plane_cpu(pids) -> tuple[float, set]:
    """CPU seconds the processes' live threads used so far, and the threads."""
    total, tids = 0.0, set()
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            total += _thread_cpu(pid, tid)
            tids.add((pid, tid))
    return total, tids


class _Stderr(threading.Thread):
    """Drains a server's stderr and picks the listening port out of it."""

    def __init__(self, proc: subprocess.Popen) -> None:
        super().__init__(daemon=True)
        self.proc = proc
        self.port: int | None = None
        self.ready = threading.Event()

    def run(self) -> None:
        for line in self.proc.stderr:
            m = _LISTENING.search(line)
            if m and self.port is None:
                self.port = int(m.group(2))
                self.ready.set()
        self.ready.set()


class Plane:
    """One server (plus one worker on ``wire_broker``) in a temporary directory."""

    def __init__(self, workload: str, traced: bool) -> None:
        self.workload = workload
        self.traced = traced
        self.dir = tempfile.mkdtemp(dir=common.work_dir())
        self.procs: list[subprocess.Popen] = []
        self.port: int | None = None

    def _command(self, spans: str, *args: str) -> list[str]:
        if self.traced:
            return [sys.executable, str(common.HERE / "launch.py"),
                    f"{self.dir}/{spans}", *args]
        return [sys.executable, "-m", "repro", *args]

    def launch(self) -> None:
        env = common.child_env()
        serve = ["serve", "--port", "0", "--cache-dir", f"{self.dir}/cache"]
        if self.workload == "wire_broker":
            serve += ["--dispatch", "broker", "--spool", f"{self.dir}/spool"]
            worker = self._command("worker.json", "worker", "--spool",
                                   f"{self.dir}/spool")
            self.procs.append(subprocess.Popen(
                worker, cwd=self.dir, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
        server = subprocess.Popen(
            self._command("serve.json", *serve), cwd=self.dir, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.procs.append(server)
        reader = _Stderr(server)
        reader.start()
        if not reader.ready.wait(60) or reader.port is None:
            raise RuntimeError(f"repro serve did not start (exit {server.poll()})")
        self.port = reader.port

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self.procs]

    def stop(self) -> dict:
        """SIGINT every process, wait for each, return the traced spans."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        spans = {}
        if self.traced:
            for name in ("serve", "worker"):
                try:
                    with open(f"{self.dir}/{name}.json") as fh:
                        spans[name] = json.load(fh)
                except FileNotFoundError:
                    pass
        shutil.rmtree(self.dir, ignore_errors=True)
        return spans


async def _connect(port: int):
    """A (reader, writer) pair upgraded to protocol v2."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "hello", "proto": 2, "id": "hello"}\n')
    doc = json.loads(await reader.readline())
    if not doc.get("ok") or doc.get("proto") != 2:
        raise RuntimeError(f"protocol v2 handshake failed: {doc}")
    return reader, writer


async def _close(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def _first_answer(port: int, request: dict) -> dict:
    reader, writer = await _connect(port)
    writer.write(json.dumps(request).encode() + b"\n")
    doc = json.loads(await reader.readline())
    await _close(writer)
    return doc


FIRST = {"id": "first", "kind": "dse_point", "params": {"n_slices": 8}}


def launch(workload: str, traced: bool) -> Plane:
    """A plane that has answered its first job request."""
    plane = Plane(workload, traced)
    try:
        plane.launch()
        doc = asyncio.run(_first_answer(plane.port, FIRST))
        if not doc.get("ok"):
            raise RuntimeError(f"first request failed: {doc}")
    except BaseException:
        plane.stop()
        raise
    return plane


async def _phase(conn, requests: list[dict], burst_size: int, problems: list) -> dict:
    """Send ``requests`` in bursts of ``burst_size``, each written at once
    and fully answered before the next; ``out[id] = (latency_s, answer)``."""
    reader, writer = conn
    out: dict = {}
    for k in range(0, len(requests), burst_size):
        burst = {req["id"]: req for req in requests[k:k + burst_size]}
        t0 = pc()
        writer.write(b"".join(json.dumps(req).encode() + b"\n" for req in burst.values()))
        await writer.drain()
        for _ in burst:
            try:
                line = await asyncio.wait_for(reader.readline(), ANSWER_TIMEOUT_S)
            except asyncio.TimeoutError:
                problems.append("requests went unanswered; traffic stopped")
                return out
            if not line:
                problems.append("the server closed the connection")
                return out
            now = pc()
            doc = json.loads(line)
            rid = doc.get("id")
            if rid not in burst:
                problems.append(f"answer for unknown id {rid!r}")
            elif rid in out:
                problems.append(f"{rid}: answered twice")
            else:
                out[rid] = (now - t0, doc)
    return out


async def drive(plane: Plane, traffic: Traffic, seconds: float) -> dict:
    """Warm the hit keys, then alternate hit and miss phases for
    ``seconds`` (at least one of each), reading plane CPU around each.

    A phase in which a plane thread ended is not timed, since the CPU of
    an ended thread is no longer readable."""
    conn = await _connect(plane.port)
    problems: list[str] = []
    sent: list[tuple[dict, bool]] = []
    answers: dict = {}
    per_request: dict[bool, list[float]] = {True: [], False: []}
    try:
        warm = [{"id": f"warm{k}", **w} for k, w in enumerate(traffic.warm)]
        got = await _phase(conn, warm, len(warm), problems)
        if len(got) != len(warm) or not all(doc.get("ok") for _, doc in got.values()):
            problems.append("a warm-up request failed")
        end = pc() + seconds
        while not problems and (not sent or pc() < end):
            for hit in (True, False):
                requests = [traffic.request(hit) for _ in range(PHASE)]
                c0, tids0 = plane_cpu(plane.pids)
                burst = BURST[plane.workload][hit]
                answers.update(await _phase(conn, requests, burst, problems))
                c1, tids1 = plane_cpu(plane.pids)
                if tids0 <= tids1:
                    per_request[hit].append((c1 - c0) / PHASE)
                sent += [(req, hit) for req in requests]
    finally:
        await _close(conn[1])
    if not per_request[True] or not per_request[False]:
        problems.append("no phase of a kind could be timed")
    return {"sent": sent, "answers": answers, "per_request": per_request,
            "problems": problems}


def score(run: dict) -> dict:
    """Failures, correctness and CPU per request of one driven window."""
    problems = list(run["problems"])
    failed = 0
    memo: dict = {}
    answered = cached = 0
    for req, hit in run["sent"]:
        got = run["answers"].get(req["id"])
        if got is None or not got[1].get("ok"):
            failed += 1  # unanswered, overloaded, backend_error, bad_request
            continue
        doc = got[1]
        answered += 1
        cached += bool(doc.get("cached"))
        if doc.get("value") != expected_value(req, memo):
            problems.append(f"{req['id']}: answer differs from execute_job")
        if bool(doc.get("cached")) != hit:
            problems.append(f"{req['id']}: cached={doc.get('cached')} but hit={hit}")
    fastest = {h: min(v, default=float("nan")) for h, v in run["per_request"].items()}
    return {
        "failed": failed,
        "problems": problems[:5] + ([f"... {len(problems) - 5} more"]
                                    if len(problems) > 5 else []),
        "hit_cpu_ms": fastest[True] * 1e3,
        "miss_cpu_ms": fastest[False] * 1e3,
        "samples_per_s": 2 / (fastest[True] + fastest[False]),
        "phases": {"hit": len(run["per_request"][True]),
                   "miss": len(run["per_request"][False])},
        "measured_hit_share": cached / max(1, answered),
    }


def ledger(run: dict, spans: dict) -> dict:
    """Mean microseconds per request in each layer, split hit / miss.

    Every request's parts add up to its client latency (from its send):
    what no server span covers (transport, the pump, the client, waiting
    for the connection's earlier requests) is ``unattributed``, and each
    enclosing span's time outside its children is its self time.
    """
    recs = {r.get("rid"): r for r in spans.get("serve", {}).get("requests", [])}
    chunks = spans.get("worker", {}).get("chunks", {})
    sums = {"hit": {}, "miss": {}}
    n = {"hit": 0, "miss": 0}
    dispatches, chunk_ids = set(), set()

    for req, _ in run["sent"]:
        rid = req["id"]
        got, rec = run["answers"].get(rid), recs.get(rid)
        if got is None or rec is None or not got[1].get("ok"):
            continue
        side = "hit" if rec.get("cached") else "miss"
        g = rec.get
        latency = got[0]
        parts = {
            "unattributed_us": latency - g("answer", 0.0),
            "serve.wire_us": g("answer", 0.0) - g("submit", 0.0) - g("request_to_spec", 0.0),
            "runtime.jobs.request_to_spec_us": g("request_to_spec", 0.0),
            "store.get_us": g("get", 0.0),
            "store.get_hop_us": g("aget", 0.0) - g("get", 0.0),
        }
        submit_self = g("submit", 0.0) - g("aget", 0.0)
        if side == "miss":
            window = g("dispatch_end", 0.0) - g("dispatch_start", 0.0)
            parts["serve.queue_wait_us"] = g("dispatch_start", 0.0) - g("aget_end", 0.0)
            parts["store.put_us"] = g("put", 0.0)
            parts["store.put_hop_us"] = g("aput", 0.0) - g("put", 0.0)
            submit_self -= parts["serve.queue_wait_us"] + window + g("aput", 0.0)
            dispatches.add(g("dispatch_start"))
            if "chunk" in rec:
                c = chunks.get(rec["chunk"], {})
                chunk_ids.add(rec["chunk"])
                wait = g("poll_end", 0.0) - g("spool_write_end", 0.0)
                worker = {
                    "dist.claim_us": c.get("claim", 0.0),
                    "dist.worker_execute_us": c.get("execute", 0.0),
                    "dist.worker_store_us": c.get("store", 0.0),
                    "dist.result_write_us": c.get("result_write", 0.0),
                }
                parts.update(worker)
                parts["dist.spool_write_us"] = g("spool_write", 0.0)
                parts["dist.poll_us"] = g("poll", 0.0)
                parts["dist.fleet_wait_us"] = wait - g("poll", 0.0) - sum(worker.values())
                parts["dispatch.submit_self_us"] = window - g("spool_write", 0.0) - wait
            else:
                parts["runtime.jobs.execute_us"] = g("execute", 0.0)
                parts["dispatch.submit_self_us"] = window - g("execute", 0.0)
        parts["serve.submit_self_us"] = submit_self
        n[side] += 1
        for k, v in parts.items():
            sums[side][k] = sums[side].get(k, 0.0) + v * 1e6

    out = {name: 0.0 for name in common.WIRE_LAYER}
    for side in ("hit", "miss"):
        for k, v in sums[side].items():
            key = f"{k}_{side}" if f"{k}_{side}" in out else k
            out[key] = v / n[side]
    answered = n["hit"] + n["miss"]
    out["serve.batches"] = float(len(dispatches))
    out["serve.mean_batch"] = n["miss"] / len(dispatches) if dispatches else 0.0
    out["store.hit_ratio"] = n["hit"] / answered if answered else 0.0
    out["dist.chunks"] = float(len(chunk_ids))
    out["dist.requeues"] = float(spans.get("serve", {}).get("counts", {}).get("requeues", 0))
    return out


def window(workload: str, traced: bool, traffic: Traffic, seconds: float):
    """Launch one plane, drive ``seconds`` of traffic, stop it; returns the
    run, the traced spans and the plane's CPU seconds at its first answer."""
    plane = launch(workload, traced)
    try:
        setup_s = plane_cpu(plane.pids)[0]
        run = asyncio.run(drive(plane, traffic, seconds))
    finally:
        spans = plane.stop()
    return run, spans, setup_s


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a wire workload; returns the parent's result document.

    Untraced, ``SETUPS`` fresh planes share the traffic.  Part of a
    plane's CPU cost is set when its processes start, by where their
    memory lands: one plane's fastest miss phase could sit 30 % above
    another's.  So every metric is the median over planes of each one's
    fastest phase, and ``setup_s`` is the fastest set-up."""
    traffic = Traffic(seed)
    if not trace:
        windows = [window(workload, False, traffic, seconds / common.SETUPS)
                   for _ in range(common.SETUPS)]
        runs = [run for run, _, _ in windows]
        scores = [score(run) for run in runs]
        sc = {name: statistics.median(s[name] for s in scores)
              for name in ("samples_per_s", "hit_cpu_ms", "miss_cpu_ms",
                           "measured_hit_share")}
        sc["failed"] = sum(s["failed"] for s in scores)
        sc["problems"] = [p for s in scores for p in s["problems"]]
        sc["phases"] = [s["phases"] for s in scores]
        result = {"setup_s": min(setup_s for _, _, setup_s in windows)}
    else:
        base_run, _, _ = window(workload, False, traffic, seconds / 2)
        base = score(base_run)
        run, spans, _ = window(workload, True, traffic, seconds / 2)
        sc = score(run)
        layer = ledger(run, spans)
        layer["trace_overhead_x"] = base["samples_per_s"] / sc["samples_per_s"]
        result = {"layer": layer}
        sc["problems"] += base["problems"]
        sc["failed"] += base["failed"]
        runs = [base_run, run]
    result.update({
        "samples_per_s": sc["samples_per_s"],
        "hit_cpu_ms": sc["hit_cpu_ms"],
        "miss_cpu_ms": sc["miss_cpu_ms"],
        "attempted": sum(len(run["sent"]) for run in runs),
        "failed": sc["failed"],
        "problems": sc["problems"],
        "properties": {
            "loop": "closed",
            "connections": 1,
            "burst_hit": BURST[workload][True],
            "burst_miss": BURST[workload][False],
            "phase_requests": PHASE,
            "timed_phases": sc["phases"],
            "designed_hit_share": 0.5,
            "measured_hit_share": sc["measured_hit_share"],
        },
    })
    return result
