#!/usr/bin/env python
"""Benchmark regression gate: diff ``BENCH_*.json`` against baselines.

Benchmarks emit machine-readable records through the ``bench_json``
fixture (``benchmarks/conftest.py``): one ``BENCH_<name>.json`` per
module in the gitignored ``.bench/`` directory, each metric tagged with a comparison
direction — ``lower`` (timings), ``higher`` (throughputs, hit rates)
or ``info`` (never gated).

This tool compares the current records against the committed baselines
in ``benchmarks/baselines/`` and exits non-zero when any gated metric
regressed by more than the tolerance (default 20%, override with
``--tolerance`` or ``$REPRO_BENCH_TOLERANCE``):

* ``direction: lower``  — regression when current > baseline * (1 + tol)
* ``direction: higher`` — regression when current < baseline * (1 - tol)

A baseline file without a current record fails the gate (the benchmark
stopped reporting); new current files without a baseline are reported
as unbaselined but pass.  ``--update`` rewrites the baselines from the
current records (run it after an intentional perf change and commit
the result).  Wall-clock baselines are machine-dependent: refresh them
with ``--update`` when moving to different CI hardware rather than
loosening the tolerance.

Usage::

    python tools/bench_compare.py            # gate (make bench-gate / CI)
    python tools/bench_compare.py --update   # accept current as baseline
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = REPO / "benchmarks" / "baselines"
DEFAULT_CURRENT_DIR = REPO / ".bench"
DEFAULT_TOLERANCE = 0.2


def load_records(directory: pathlib.Path) -> dict[str, dict]:
    """Read every ``BENCH_*.json`` in ``directory``, keyed by name."""
    records = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"bench-compare: {path.name}: unreadable JSON: {exc}",
                  file=sys.stderr)
            continue
        records[path.stem.removeprefix("BENCH_")] = doc
    return records


def compare_metric(key: str, baseline: dict, current: dict, tolerance: float,
                   speed_ratio: float = 1.0):
    """Return ``(status, detail)`` for one metric.

    ``status`` is ``"ok"``, ``"regressed"`` or ``"info"``; ``detail``
    is the rendered comparison line.  ``speed_ratio`` is
    ``current_calibration / baseline_calibration`` — how much slower
    the current machine ran the fixed calibration kernel.  Gated
    second-valued metrics are divided by it before applying the
    tolerance, so a uniformly slow (or fast) machine does not read as
    a regression (or mask one); dimensionless metrics (ratios, counts,
    rates) are compared raw.
    """
    direction = baseline.get("direction", "info")
    base = float(baseline["value"])
    cur = float(current["value"])
    unit = baseline.get("unit", "")
    cur_adj = cur / speed_ratio if unit == "s" else cur
    ratio = cur_adj / base if base else float("inf")
    detail = f"{key}: {base:.6g} -> {cur:.6g} {unit} (x{ratio:.2f} normalised, {direction})"
    if direction == "lower" and cur_adj > base * (1.0 + tolerance):
        return "regressed", detail
    if direction == "higher" and cur_adj < base * (1.0 - tolerance):
        return "regressed", detail
    if direction == "info":
        return "info", detail
    return "ok", detail


def run_gate(baseline_dir: pathlib.Path, current_dir: pathlib.Path,
             tolerance: float) -> int:
    """Compare current records against baselines; return the exit status."""
    baselines = load_records(baseline_dir)
    currents = load_records(current_dir)
    if not baselines:
        print(f"bench-compare: no baselines in {baseline_dir}; "
              "run with --update to create them", file=sys.stderr)
        return 1
    failures: list[str] = []
    for name, base_doc in sorted(baselines.items()):
        cur_doc = currents.get(name)
        if cur_doc is None:
            failures.append(f"{name}: no current BENCH_{name}.json "
                            "(benchmark stopped emitting?)")
            continue
        base_cal = float(base_doc.get("calibration_s", 0.0))
        cur_cal = float(cur_doc.get("calibration_s", 0.0))
        speed_ratio = cur_cal / base_cal if base_cal > 0 and cur_cal > 0 else 1.0
        print(f"[{name}] machine speed ratio x{speed_ratio:.2f} "
              "(current/baseline calibration)")
        for key, base_metric in sorted(base_doc.get("metrics", {}).items()):
            cur_metric = cur_doc.get("metrics", {}).get(key)
            if cur_metric is None:
                failures.append(f"{name}.{key}: metric missing from current record")
                continue
            status, detail = compare_metric(key, base_metric, cur_metric,
                                            tolerance, speed_ratio)
            marker = {"ok": "  ok  ", "info": " info ", "regressed": "REGRESS"}[status]
            print(f"  {marker} {detail}")
            if status == "regressed":
                failures.append(f"{name}.{key}: {detail}")
    for name in sorted(set(currents) - set(baselines)):
        print(f"[{name}] unbaselined (commit with --update to start gating it)")
    if failures:
        print(f"\nbench-compare: {len(failures)} regression(s) beyond "
              f"{tolerance:.0%}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench-compare: {len(baselines)} record(s) within {tolerance:.0%} "
          "of baseline")
    return 0


def update_baselines(baseline_dir: pathlib.Path, current_dir: pathlib.Path) -> int:
    """Copy every current ``BENCH_*.json`` into the baseline directory."""
    paths = sorted(current_dir.glob("BENCH_*.json"))
    if not paths:
        print(f"bench-compare: no BENCH_*.json in {current_dir} to promote",
              file=sys.stderr)
        return 1
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for path in paths:
        shutil.copyfile(path, baseline_dir / path.name)
        print(f"bench-compare: baselined {path.name}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        description="Fail on >tolerance benchmark regressions vs committed baselines."
    )
    parser.add_argument("--baseline-dir", type=pathlib.Path,
                        default=DEFAULT_BASELINE_DIR)
    parser.add_argument("--current-dir", type=pathlib.Path,
                        default=DEFAULT_CURRENT_DIR,
                        help="where the fresh BENCH_*.json records live "
                             "(default: .bench/)")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("REPRO_BENCH_TOLERANCE",
                                                     DEFAULT_TOLERANCE)),
                        help="allowed fractional regression (default 0.2)")
    parser.add_argument("--update", action="store_true",
                        help="promote current records to baselines instead of gating")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("tolerance must be non-negative")
    if args.update:
        return update_baselines(args.baseline_dir, args.current_dir)
    return run_gate(args.baseline_dir, args.current_dir, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
