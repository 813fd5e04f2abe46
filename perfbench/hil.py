"""Hardware-in-the-loop workload process (``hil_small``).

Started by ``run.py`` in a fresh interpreter, ``SETUPS`` times per run,
so the content-hash fanout memo starts empty and its build lands in
set-up.  Prints ``READY <json>`` once set-up is done, carrying the CPU
seconds the process used since it started, then ``RESULT <json>`` after
measuring.

An evaluation pass is what ``repro eval`` does:
``HardwareEvaluator.sample_jobs``, then ``run_jobs`` on the ``serial``
backend into a fresh ``ResultStore``.  The jobs go to ``run_jobs`` in
fixed chunks, and each chunk is re-run until ``HIT_BURST`` jobs were
served from the store.  Timed rounds, each a pass over the same fixed
subset of the dataset, repeat until ``--seconds`` have passed.  With
``--check``, an untimed pass over the whole dataset comes first, and its
results are the ones checked.  The end-to-end metrics are CPU time of
this process (``time.process_time``) in its fastest round: a busy host
only ever slows a round down.

Record the per-seed output digests (the correctness reference) with::

    PYTHONPATH=src python3 perfbench/hil.py --record --seeds 0-39
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
import time
from collections import defaultdict

import common

pc = time.perf_counter
cpu = time.process_time

WORKLOAD = "hil_small"
#: The ``repro eval`` default deployment: sensor size, timesteps,
#: recordings per class (330 samples), SNE slices.
SIZE, STEPS, PER_CLASS, SLICES = 16, 12, 30, 8
#: Jobs per ``run_jobs`` call.
CHUNK = 33
#: The network weights are fixed (the ``repro eval`` default seed); the
#: workload seed varies the recordings.
NETWORK_SEED = 0
#: Jobs served from the store after each chunk.
HIT_BURST = 100
#: Every TIMING_STRIDE-th recording forms the timed subset: 66 samples
#: from every class, about a second of CPU per round, so a run holds a
#: dozen rounds or more.
TIMING_STRIDE = 5
#: Samples re-run on the per-event reference kernel.
REFERENCE_SAMPLES = 6
DIGESTS = common.HERE / "digests.json"
DIGEST_FIELDS = ("prediction", "cycles", "sops", "output_events", "energy_uj")


def set_up(seed: int):
    """Dataset, compiled programs with warm fanout tables, evaluator."""
    from repro.events.datasets import SyntheticDVSGesture
    from repro.hw.config import PAPER_CONFIG
    from repro.hw.mapper import compile_network, fanout_table
    from repro.hw.runner import HardwareEvaluator
    from repro.snn.topology import build_small_network

    t0 = pc()
    data = SyntheticDVSGesture(size=SIZE, n_steps=STEPS).generate(
        n_per_class=PER_CLASS, seed=seed)
    t1 = pc()
    net = build_small_network(input_size=SIZE, n_classes=data.n_classes,
                              channels=6, hidden=32, seed=NETWORK_SEED)
    t2 = pc()
    programs = compile_network(net, (2, SIZE, SIZE))
    t3 = pc()
    for program in programs:
        fanout_table(program).packed()
    t4 = pc()
    evaluator = HardwareEvaluator(programs, PAPER_CONFIG.with_slices(SLICES))
    layers = {
        "events.generate_s": t1 - t0,
        "hw.mapper.compile_s": t3 - t2,
        "hw.mapper.fanout_build_s": t4 - t3,
    }
    return data, evaluator, layers


def evaluation_pass(evaluator, data, work) -> dict:
    """One evaluation of ``data`` into a fresh store, ``CHUNK`` jobs per
    ``run_jobs`` call, each chunk followed by re-runs served from the
    store.  Wall time feeds the traced ledger, CPU time the end-to-end
    metrics."""
    from repro.runtime.executor import run_jobs
    from repro.runtime.store import ResultStore

    root = tempfile.mkdtemp(dir=work)
    store = None
    try:
        results, hits = [], []
        t0, c0 = pc(), cpu()
        jobs = evaluator.sample_jobs(data)
        store = ResultStore(root)
        prepare_cpu = cpu() - c0
        run_jobs_s = miss_cpu = hit_cpu = 0.0
        for start in range(0, len(jobs), CHUNK):
            part = jobs[start:start + CHUNK]
            t, c = pc(), cpu()
            run = run_jobs(part, executor="serial", cache=store)
            miss_cpu += cpu() - c
            run_jobs_s += pc() - t
            results.extend(run.results)
            served = 0
            while served < HIT_BURST:
                t, c = pc(), cpu()
                hits.append((start, run_jobs(part, executor="serial", cache=store)))
                hit_cpu += cpu() - c
                run_jobs_s += pc() - t
                served += len(part)
        t2 = pc()
    finally:
        del store  # its finaliser writes counters into the root
        shutil.rmtree(root, ignore_errors=True)
    n_hits = sum(len(run.results) for _, run in hits)
    return {
        "samples": len(jobs), "hits_served": n_hits, "total_s": t2 - t0,
        "run_jobs_s": run_jobs_s, "cpu_s": prepare_cpu + miss_cpu + hit_cpu,
        "samples_per_s": len(jobs) / (prepare_cpu + miss_cpu),
        "miss_cpu_ms": miss_cpu / len(jobs) * 1e3,
        "hit_cpu_ms": hit_cpu / n_hits * 1e3,
        "results": results, "hits": hits,
    }


class Ledger:
    """Per-layer self times, recorded by wrapping each layer's public
    functions from outside (the program itself is not modified)."""

    def __init__(self) -> None:
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self.layers: dict[str, defaultdict] = {}

    def _timed(self, cls, attr: str, name: str) -> None:
        orig = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            t0 = pc()
            try:
                return orig(*args, **kwargs)
            finally:
                self.time[name] += pc() - t0
                self.count[name] += 1

        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from repro.hw.runner import HardwareEvaluator
        from repro.hw.sne import SNE
        from repro.runtime.profile import Profiler
        from repro.runtime.store import ResultStore

        self._timed(HardwareEvaluator, "sample_jobs", "sample_jobs")
        self._timed(HardwareEvaluator, "run_sample", "run_sample")
        self._timed(ResultStore, "get", "store.get")
        self._timed(ResultStore, "put", "store.put")
        orig = SNE.run_layer

        def run_layer(sne, program, stream, *args, **kwargs):
            # Each call gets its own Profiler, so the stage spans of one
            # layer call are separable from every other call's.
            prof = Profiler()
            kwargs["profiler"] = prof
            t0 = pc()
            out = orig(sne, program, stream, *args, **kwargs)
            dt = pc() - t0
            rec = self.layers.setdefault(program.name, defaultdict(float))
            rec["total"] += dt
            rec["kernel_calls"] += stream.n_steps * out[1].passes
            rec["events"] += len(stream) * out[1].passes
            rec["passes"] += out[1].passes
            rec["update_events"] += out[1].update_events
            for stage in ("assemble", "update", "fire", "reset"):
                span = prof.spans.get(f"sne.{stage}")
                rec[stage] += span.wall_s if span is not None else 0.0
            return out

        SNE.run_layer = run_layer

    def metrics(self, passes: list[dict]) -> dict:
        """Per-round means of every HIL layer metric plus the remainder."""
        n = len(passes)
        total = sum(p["total_s"] for p in passes) / n
        run_jobs = sum(p["run_jobs_s"] for p in passes) / n
        t = {k: v / n for k, v in self.time.items()}
        out = {
            "runtime.jobs.sample_jobs_s": t.get("sample_jobs", 0.0),
            "runtime.store.get_s": t.get("store.get", 0.0),
            "runtime.store.get_count": self.count["store.get"] / n,
            "runtime.store.put_s": t.get("store.put", 0.0),
            "runtime.store.put_count": self.count["store.put"] / n,
        }
        layer_total = 0.0
        for name, rec in self.layers.items():
            stages = sum(rec[s] for s in ("assemble", "update", "fire", "reset"))
            for s in ("assemble", "update", "fire", "reset"):
                out[f"hw.sne.{name}.{s}_s"] = rec[s] / n
            out[f"hw.sne.{name}.self_s"] = (rec["total"] - stages) / n
            out[f"hw.sne.{name}.passes"] = rec["passes"] / n
            out[f"hw.sne.{name}.update_events"] = rec["update_events"] / n
            out[f"hw.sne.{name}.events_per_call"] = rec["events"] / rec["kernel_calls"]
            layer_total += rec["total"] / n
        run_sample = t.get("run_sample", 0.0)
        out["hw.runner.run_sample_self_s"] = run_sample - layer_total
        # run_jobs time that is neither a store call nor a sample run:
        # backend dispatch, job hashing, result records, progress.
        out["runtime.executor.run_jobs_self_s"] = (
            run_jobs - run_sample - out["runtime.store.get_s"]
            - out["runtime.store.put_s"])
        selfs = [v for k, v in out.items() if k.endswith("_s")]
        out["unattributed_s"] = total - sum(selfs)
        return out


def recorded_digests() -> dict:
    """Seed -> output digest recorded for the workload (empty if none)."""
    docs = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return docs.get(WORKLOAD, {})


def digest(values: list[dict]) -> str:
    rows = [[v[f] for f in DIGEST_FIELDS] for v in values]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check(seed: int, evaluator, data, rounds: list[dict], full: dict | None) -> list[str]:
    """Correctness problems of the measured passes (empty when none).
    Without the full pass, the rounds are only checked against each other."""
    passes = ([full] if full else []) + rounds
    failed = [r for p in passes for r in p["results"] if not r.ok]
    if failed:
        return [f"{len(failed)} sample job(s) failed: {failed[0].error.splitlines()[0]}"]
    problems = []
    first = [r.value for r in rounds[0]["results"]]
    for p in passes:
        own = [r.value for r in p["results"]]
        if p is not full and own != first:
            problems.append("timed rounds computed different results")
        for start, hit in p["hits"]:
            if not all(r.cached for r in hit.results):
                problems.append("a re-run was not served from the store")
            if [r.value for r in hit.results] != own[start:start + len(hit.results)]:
                problems.append("store-served results differ from computed ones")
    if full is None:
        return sorted(set(problems))
    values = [r.value for r in full["results"]]
    if first != values[::TIMING_STRIDE]:
        problems.append("timed rounds differ from the full pass")
    want, got = recorded_digests().get(str(seed)), digest(values)
    if want is not None and want != got:
        problems.append(f"output digest {got[:12]} != recorded {want[:12]} for seed {seed}")
    for sample, value in list(zip(data.samples, values))[:REFERENCE_SAMPLES]:
        ref = dataclasses.asdict(
            evaluator.run_sample(sample.stream, sample.label, kernel="reference"))
        if ref != value:
            problems.append("reference kernel disagrees with the job result")
            break
    return sorted(set(problems))


def measure(args, data, evaluator, work) -> dict:
    """With ``--check``, the untimed pass over the whole dataset; then
    timed rounds for ``--seconds`` (with ``--trace 1``, half untraced,
    then half traced)."""
    from repro.events.datasets import EventDataset

    full = evaluation_pass(evaluator, data, work) if args.check else None
    subset = EventDataset(data.samples[::TIMING_STRIDE], data.n_classes, "timed")

    def rounds(seconds: float) -> list[dict]:
        out: list[dict] = []
        start = pc()
        while not out or pc() - start < seconds:
            out.append(evaluation_pass(evaluator, subset, work))
        return out

    timed = rounds(args.seconds / 2 if args.trace else args.seconds)
    traced: list[dict] = []
    result = {}
    if args.trace:
        ledger = Ledger()
        ledger.install()
        traced = rounds(args.seconds / 2)
        layer = ledger.metrics(traced)
        layer["trace_overhead_x"] = (min(p["cpu_s"] for p in traced)
                                     / min(p["cpu_s"] for p in timed))
        result["layer"] = layer
    passes = ([full] if full else []) + timed + traced
    result.update({
        "samples_per_s": max(p["samples_per_s"] for p in timed),
        "hit_cpu_ms": min(p["hit_cpu_ms"] for p in timed),
        "miss_cpu_ms": min(p["miss_cpu_ms"] for p in timed),
        "rounds": len(timed),
        "subset_digest": digest([r.value for r in timed[0]["results"]]),
        "attempted": sum(p["samples"] + p["hits_served"] for p in passes),
        "failed": sum(not r.ok for p in passes for r in p["results"]),
        "problems": check(args.seed, evaluator, data, timed + traced, full),
    })
    return result


def record(seeds: list[int]) -> None:
    """Write the output digest of each seed into ``digests.json``."""
    from repro.runtime.executor import run_jobs

    docs = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for seed in seeds:
        data, evaluator, _ = set_up(seed)
        run = run_jobs(evaluator.sample_jobs(data), executor="serial")
        if run.failures():
            raise SystemExit(f"seed {seed}: {run.failures()[0].error}")
        docs.setdefault(WORKLOAD, {})[str(seed)] = digest([r.value for r in run.results])
        print(f"{WORKLOAD} seed {seed}: {docs[WORKLOAD][str(seed)][:16]}", flush=True)
        DIGESTS.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true",
                   help="also run the untimed full pass and every correctness check")
    p.add_argument("--record", action="store_true")
    p.add_argument("--seeds", type=_seed_range, default=[0])
    args = p.parse_args(argv)
    if args.record:
        record(args.seeds)
        return 0
    data, evaluator, setup_layers = set_up(args.seed)
    common.emit("READY", {"cpu_s": cpu()})
    work = common.work_dir()
    result = measure(args, data, evaluator, work)
    lengths = [len(s.stream) for s in data.samples]
    result["properties"] = {
        "samples": len(lengths),
        "timed_samples": len(data.samples[::TIMING_STRIDE]),
        "input_events_per_sample": sum(lengths) / len(lengths),
        "input_events_per_step": sum(lengths) / len(lengths) / data.samples[0].stream.n_steps,
        "digest_recorded": str(args.seed) in recorded_digests(),
    }
    if "layer" in result:
        result["layer"].update(setup_layers)
        result["properties"]["events_per_call"] = {
            k.split(".")[2]: v for k, v in result["layer"].items()
            if k.endswith(".events_per_call")}
    common.emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
