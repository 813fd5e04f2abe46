"""Benchmark entry point: SNE simulation (HIL) and TCP serving (wire) workloads.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload hil_small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one by one

``--trace 0`` prints the end-to-end metrics, measured with no
instrumentation; ``--trace 1`` prints the per-layer ledger from a run
that wraps each layer's public functions.  Each metric is printed by
name with its unit; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is non-zero when a correctness check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys

import common


def run_hil_child(args, seconds: float, check: bool) -> tuple[float, dict]:
    """Run one HIL process; its set-up is the CPU it used until READY."""
    cmd = [sys.executable, str(common.HERE / "hil.py"), "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if check:
        cmd.append("--check")
    proc = subprocess.Popen(cmd, env=common.child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    setup_s, result = None, None
    for line in proc.stdout:
        tag, _, body = line.partition(" ")
        if tag == "READY":
            setup_s = json.loads(body)["cpu_s"]
        elif tag == "RESULT":
            result = json.loads(body)
    if proc.wait() != 0 or setup_s is None or result is None:
        raise RuntimeError(f"hil.py exited with status {proc.returncode}")
    return setup_s, result


def measure_hil(args) -> dict:
    """``SETUPS`` fresh processes share the timed rounds; the last also
    runs the full pass and the checks.  Each process's memory layout sets
    part of its CPU cost, so every metric is the median over processes of
    each one's fastest round; ``setup_s`` is the fastest set-up."""
    n = 1 if args.trace else common.SETUPS
    runs = [run_hil_child(args, args.seconds / n, check=k == n - 1) for k in range(n)]
    result = runs[-1][1]
    docs = [doc for _, doc in runs]
    result["setup_s"] = min(setup_s for setup_s, _ in runs)
    for name in ("samples_per_s", "hit_cpu_ms", "miss_cpu_ms"):
        result[name] = statistics.median(doc[name] for doc in docs)
    result["attempted"] = sum(doc["attempted"] for doc in docs)
    result["failed"] = sum(doc["failed"] for doc in docs)
    result["problems"] = sorted({p for doc in docs for p in doc["problems"]})
    if len({doc["subset_digest"] for doc in docs}) != 1:
        result["problems"].append("processes computed different results")
    result["properties"]["timed_rounds"] = [doc["rounds"] for doc in docs]
    return result


def measure(args) -> dict:
    if args.workload in common.HIL_WORKLOADS:
        return measure_hil(args)
    import wire

    return wire.measure(args.workload, args.seed, args.seconds, bool(args.trace))


def declared(trace: int) -> dict:
    """The metric names BENCHMARK.json declares for this mode, if present."""
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        return {}
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    sys.path.insert(0, str(common.repo_src()))
    env = {**common.environment(), "pinned_cpu": common.pin_to_one_cpu()}
    try:
        result = measure(args)
    finally:
        with contextlib.suppress(OSError):
            common.work_dir().rmdir()
    units = common.PER_LAYER if args.trace else common.END_TO_END
    if args.trace:
        values = {name: result["layer"].get(name, 0.0) for name in units}
    else:
        values = {name: result[name] for name in units}
    decl = declared(args.trace)
    if decl and decl != units:
        raise SystemExit("perfbench: BENCHMARK.json and common.py declare "
                         "different metrics")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    print(f"properties {json.dumps(result['properties'])}")
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; exits non-zero on any failure."""
    status, docs = 0, {}
    for workload in common.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        docs[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    ok = [d for d in docs.values() if d is not None]
    print(json.dumps({
        "correct": status == 0 and len(ok) == len(docs) and all(d["correct"] for d in ok),
        "attempted": sum(d["attempted"] for d in ok),
        "failed": sum(d["failed"] for d in ok),
        "metrics": {f"{w}.{n}": m for w, d in docs.items() if d
                    for n, m in d["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    common.require_repo()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
