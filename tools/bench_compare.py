#!/usr/bin/env python
"""Benchmark regression gate: this checkout against its parent commit.

Runs each :data:`SUITE` module on the parent and on this checkout,
interleaved on one machine, and fails when a metric is worse than its
parent by more than max(:data:`TOLERANCE`, the runs' spread).  The rule
is documented once, in ``docs/ARCHITECTURE.md`` ("Profiling and the
benchmark gate").  It takes no options::

    python tools/bench_compare.py      # make bench-gate; exit 0 = no regression
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
WORK = REPO / ".bench"

#: The benchmark modules that emit ``BENCH_*.json`` records.
SUITE = (
    "benchmarks/bench_fig5b_perf.py",
    "benchmarks/bench_runtime_scaling.py",
    "benchmarks/bench_serve_latency.py",
    "benchmarks/bench_cosim_fuzz.py",
    "benchmarks/bench_dist_throughput.py",
    "benchmarks/bench_obs_overhead.py",
    "benchmarks/bench_chaos_soak.py",
)

#: Runs of each module per side, in the order P C C P P C ...
RUNS = 3

#: The least relative change that counts as a regression.
TOLERANCE = 0.2


def base_ref(repo: pathlib.Path = REPO) -> str:
    """``HEAD`` when the working tree has changes (untracked files
    included), else ``HEAD^``."""
    status = subprocess.run(["git", "status", "--porcelain"], cwd=repo,
                            capture_output=True, text=True, check=True).stdout
    return "HEAD" if status.strip() else "HEAD^"


def export_tree(ref: str, dest: pathlib.Path, repo: pathlib.Path = REPO) -> None:
    """Replace ``dest`` with the files of commit ``ref``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref], cwd=repo,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_module(tree: pathlib.Path, module: str, out: pathlib.Path) -> list[str]:
    """Run one benchmark ``module`` in ``tree`` against its own ``src/``
    and copy its record to ``out``, appending to ``out/pytest.log``.
    Returns the failed-test lines of pytest's summary (empty: passed)."""
    stem = pathlib.Path(module).stem
    record = tree / ".bench" / f"BENCH_{stem.removeprefix('bench_')}.json"
    record.unlink(missing_ok=True)
    # A fresh --basetemp per run: the default one deletes old temp trees
    # as a session exits, which slows the next session's file writes.
    basetemp = WORK / "tmp" / f"{out.name}-{stem}"
    basetemp.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "pytest", module, "-q",
                           f"--basetemp={basetemp}"], cwd=tree,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "pytest.log").open("a") as log:
        log.write(proc.stdout + proc.stderr)
    if record.exists():
        shutil.copyfile(record, out / record.name)
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed or ([f"{module}: pytest exit {proc.returncode}"] if proc.returncode else [])


def load_run(directory: pathlib.Path) -> dict[str, dict]:
    """One run's metrics, keyed ``<record>.<metric>``."""
    return {f"{path.stem.removeprefix('BENCH_')}.{key}": metric
            for path in sorted(directory.glob("BENCH_*.json"))
            for key, metric in json.loads(path.read_text())["metrics"].items()}


def spread(values: list[float]) -> float:
    """(max - min) / median: one side's run-to-run spread."""
    if max(values) == min(values):
        return 0.0
    median = statistics.median(values)
    return (max(values) - min(values)) / abs(median) if median else float("inf")


def compare(parent_runs: list[dict], change_runs: list[dict]) -> list[dict]:
    """One row per metric: each side's median and spread, the tolerance
    and the verdict (``ok``, ``REGRESS``, ``info``, ``new`` or
    ``MISSING``).  The change's direction decides how a metric is gated."""
    rows = []
    for key in sorted({k for run in parent_runs + change_runs for k in run}):
        found = [[run[key] for run in runs if key in run]
                 for runs in (parent_runs, change_runs)]
        meta = (found[1] or found[0])[0]
        row = {"key": key, "direction": meta["direction"], "unit": meta.get("unit", "")}
        for side, metrics in zip(("parent", "change"), found):
            values = [float(m["value"]) for m in metrics]
            row[side] = statistics.median(values) if values else None
            row[f"{side}_spread"] = spread(values) if values else None
        if row["change"] is None:
            row["verdict"] = "MISSING"
        elif row["parent"] is None:
            row["verdict"] = "new"
        elif row["direction"] == "info":
            row["verdict"] = "info"
        else:
            tol = row["tolerance"] = max(TOLERANCE, row["parent_spread"],
                                         row["change_spread"])
            ratio = row["change"] / row["parent"] if row["parent"] else float("inf")
            worse = ratio > 1 + tol if row["direction"] == "lower" else ratio < 1 - tol
            row["verdict"] = "REGRESS" if worse else "ok"
        rows.append(row)
    return rows


def render(row: dict) -> str:
    """One table line: both medians and spreads, the tolerance, the verdict."""
    cells = [f"{row['verdict']:8} {row['key']:45}"]
    for side in ("parent", "change"):
        cells.append(f"{'-':>11} {'':6}" if row[side] is None else
                     f"{row[side]:11.4g} {row[side + '_spread']:6.0%}")
    cells.append(f"{row['tolerance']:5.0%}" if "tolerance" in row else " " * 5)
    return " ".join(cells + [row["unit"], row["direction"]])


def main() -> int:
    """Run both sides, print the per-metric table, return the exit status."""
    ref = base_ref()
    export_tree(ref, WORK / "parent")
    for stale in ("runs", "tmp"):
        shutil.rmtree(WORK / stale, ignore_errors=True)
    print(f"bench-gate: {ref} vs this checkout, {RUNS} runs each")
    trees = {"parent": WORK / "parent", "change": REPO}
    failures = []
    for module in SUITE:
        start, verdicts = time.monotonic(), []
        for i in range(1, RUNS + 1):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                failed = run_module(trees[side], module, WORK / "runs" / f"{side}-{i}")
                verdicts.append(f"{side[0].upper()}:{'FAILED' if failed else 'ok'}")
                if side == "change":
                    failures += [f"change run {i}: {line}" for line in failed]
        print(f"  {module:40} {' '.join(verdicts)}  {time.monotonic() - start:.0f}s")
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    runs = {side: [load_run(WORK / "runs" / f"{side}-{i}") for i in range(1, RUNS + 1)]
            for side in trees}
    print(f"\n{'verdict':8} {'metric':45} {'parent':>11} {'spread':6} "
          f"{'change':>11} {'spread':6} {'tol':>5}")
    for row in compare(runs["parent"], runs["change"]):
        print(render(row))
        if row["verdict"] in ("REGRESS", "MISSING"):
            failures.append(f"{row['key']}: {row['verdict']}")
    for failure in failures:
        print(f"bench-gate: FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(f"\nbench-gate: ok, no metric worse than its parent by more "
              f"than max({TOLERANCE:.0%}, spread)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
