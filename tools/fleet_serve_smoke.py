"""Fleet-serve smoke: broker-dispatch server + supervised fleet, one spool.

The CI end-to-end for the fleet-scale serving path: start a real
``repro supervise`` process managing worker agents on a spool, point an
:class:`~repro.runtime.serve.AsyncServer` at the same spool through a
:class:`~repro.runtime.dispatch.BrokerDispatcher`, drive mixed traffic
— cached and uncached ``dse_point`` / ``baseline_compare`` requests
plus a payload-carrying ``sample_eval`` job crossing the spool via the
``events`` codec — and assert every per-job answer is **bit-identical**
to a serial in-process run of the same specs.

Exit status 0 on success, 1 on any divergence (CI uploads the journal,
spool and log artifacts on failure).  Usage::

    python tools/fleet_serve_smoke.py --workdir .ci_fleet
"""

import argparse
import asyncio
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.energy.power import PowerModel  # noqa: E402
from repro.events import EventStream  # noqa: E402
from repro.hw import LayerGeometry, LayerKind, LayerProgram, SNEConfig  # noqa: E402
from repro.runtime import (  # noqa: E402
    AsyncServer,
    BrokerDispatcher,
    JobResult,
    ResultStore,
    baseline_compare_job,
    dse_point_job,
    execute_job,
)
from repro.runtime.jobs import sample_eval_job  # noqa: E402

#: Requests answered from the store, written there before the fleet starts.
PREWARMED = 3


def build_traffic():
    """The mixed request set: payload-free sweep/table specs plus one
    payload-carrying ``sample_eval`` (events codec over the spool)."""
    specs = [dse_point_job(n) for n in (1, 2, 4, 8)]
    specs += [dse_point_job(2, voltage=0.7), dse_point_job(4, voltage=0.9)]
    specs += [baseline_compare_job("TrueNorth"), baseline_compare_job("Tianjic")]
    g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 4, 1, 1)
    w = np.random.default_rng(7).integers(-3, 4, (4, 4))
    stream = EventStream.from_dense(np.ones((3, 1, 2, 2), dtype=np.uint8))
    specs.append(sample_eval_job(
        [LayerProgram(g, w, threshold=2, leak=0)], SNEConfig(n_slices=1),
        stream, 1, power=PowerModel(),
    ))
    return specs


async def drive(specs, spool, store):
    """Serve every spec through the broker plane; return the results."""
    dispatcher = BrokerDispatcher(spool, poll_s=0.02, timeout=120.0)
    try:
        async with AsyncServer(dispatcher=dispatcher, cache=store,
                               max_batch=4) as srv:
            out = [None] * len(specs)
            async for i, result in srv.stream(specs):
                out[i] = result
            stats = srv.stats()
    finally:
        await dispatcher.aclose()
    return out, stats


def main() -> int:
    """Run the smoke; 0 = every answer matched the serial reference."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=".ci_fleet",
                        help="scratch directory (spool/cache/log artifacts)")
    parser.add_argument("--workers", type=int, default=2,
                        help="supervised fleet ceiling (default 2)")
    args = parser.parse_args()

    workdir = pathlib.Path(args.workdir)
    spool = workdir / "spool"
    cache_dir = workdir / "cache"
    workdir.mkdir(parents=True, exist_ok=True)
    # A store or spool left by an earlier run would answer every job
    # from the cache and leave the fleet nothing to compute.
    for stale in (spool, cache_dir):
        shutil.rmtree(stale, ignore_errors=True)

    specs = build_traffic()
    reference = [execute_job(s) for s in specs]

    # Pre-warm a slice of the traffic into the shared store so the run
    # exercises the cached path next to genuinely fleet-computed jobs.
    store = ResultStore(cache_dir)
    for spec, value in list(zip(specs, reference))[:PREWARMED]:
        store.put(spec, JobResult(spec.job_hash, spec.kind, True, value, None, 0.0))

    log = (workdir / "supervise.log").open("w")
    supervisor = subprocess.Popen(
        [sys.executable, "-m", "repro", "supervise", "--spool", str(spool),
         "--cache-dir", str(cache_dir), "--min-workers", "1",
         "--max-workers", str(args.workers), "--tick", "0.2"],
        stdout=log, stderr=subprocess.STDOUT,
        env={**os.environ,
             "PYTHONPATH": str(pathlib.Path(__file__).resolve().parent.parent
                               / "src"),
             "REPRO_OBS_DIR": str(workdir / "obs")},
    )
    try:
        time.sleep(1.0)  # let the fleet come up
        if supervisor.poll() is not None:
            print("fleet-serve smoke: supervisor died on startup "
                  f"(rc {supervisor.returncode})", file=sys.stderr)
            return 1
        start = time.monotonic()
        results, stats = asyncio.run(drive(specs, spool, store))
        elapsed = time.monotonic() - start
    finally:
        supervisor.send_signal(signal.SIGTERM)
        try:
            supervisor.wait(timeout=30)
        except subprocess.TimeoutExpired:
            supervisor.kill()
            supervisor.wait()
        log.close()

    failures = 0
    for spec, result, expected in zip(specs, results, reference):
        if result is None or not result.ok:
            err = "no result" if result is None else result.error
            print(f"  FAIL {spec.kind} {spec.job_hash[:12]}: {err}",
                  file=sys.stderr)
            failures += 1
        elif result.value != expected:
            print(f"  FAIL {spec.kind} {spec.job_hash[:12]}: "
                  "diverged from serial reference", file=sys.stderr)
            failures += 1
    cached = sum(1 for r in results if r is not None and r.cached)
    print(f"fleet-serve smoke: {len(specs)} job(s) in {elapsed:.1f}s — "
          f"{cached} cached, {stats['computed']} computed on the fleet, "
          f"{failures} mismatch(es)")
    if failures:
        print("fleet-serve smoke: FAILED", file=sys.stderr)
        return 1
    if (cached, stats["computed"]) != (PREWARMED, len(specs) - PREWARMED):
        print(f"fleet-serve smoke: FAILED — expected {PREWARMED} cached and "
              f"{len(specs) - PREWARMED} computed", file=sys.stderr)
        return 1
    print("fleet-serve smoke: OK — broker-dispatch serving matches the "
          "serial reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
