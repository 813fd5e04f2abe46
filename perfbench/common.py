"""Shared pieces of the benchmark: metric names, process environment.

The metric names here are the benchmark's public contract: the root
``BENCHMARK.json`` lists the same names, and ``run.py`` refuses to print
a result whose metric set differs from it.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent

HIL_WORKLOADS = ("hil_small",)
WIRE_WORKLOADS = ("wire_local", "wire_broker")
WORKLOADS = HIL_WORKLOADS + WIRE_WORKLOADS

#: End-to-end metrics (``--trace 0``): name -> unit.  Each is CPU time of
#: the processes doing the work, in the fastest of many repeats of the
#: same unit of work; see README.md for why.
END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "hit_cpu_ms": "ms",
    "miss_cpu_ms": "ms",
}

#: Fresh processes (HIL) or planes (wire) per run, each set up anew and
#: measured for its share of the run; ``setup_s`` is the fastest set-up.
SETUPS = 5

#: Network layers of the HIL deployment (``compile_network`` names; the
#: pooling and flatten layers have no program of their own, hence the gaps).
SNE_LAYERS = ("layer0", "layer1", "layer3", "layer4")
SNE_FIELDS = {
    "assemble_s": "s", "update_s": "s", "fire_s": "s", "reset_s": "s",
    "self_s": "s", "passes": "count", "update_events": "count",
    "events_per_call": "count",
}

#: HIL per-layer metrics, per timed round.
HIL_LAYER = {
    "events.generate_s": "s",
    "hw.mapper.compile_s": "s",
    "hw.mapper.fanout_build_s": "s",
    "runtime.jobs.sample_jobs_s": "s",
    "runtime.executor.run_jobs_self_s": "s",
    "runtime.store.get_s": "s",
    "runtime.store.get_count": "count",
    "runtime.store.put_s": "s",
    "runtime.store.put_count": "count",
    "hw.runner.run_sample_self_s": "s",
    **{f"hw.sne.{layer}.{f}": unit for layer in SNE_LAYERS
       for f, unit in SNE_FIELDS.items()},
    "unattributed_s": "s",
}

#: Wire per-layer metrics: mean microseconds per request, split by
#: whether the request was a cache hit or a miss where both apply.
_WIRE_BOTH = ("serve.wire_us", "runtime.jobs.request_to_spec_us",
              "serve.submit_self_us", "store.get_us", "store.get_hop_us",
              "unattributed_us")
_WIRE_MISS = ("serve.queue_wait_us", "dispatch.submit_self_us",
              "runtime.jobs.execute_us", "store.put_us", "store.put_hop_us",
              "dist.spool_write_us", "dist.poll_us", "dist.fleet_wait_us",
              "dist.claim_us", "dist.worker_execute_us", "dist.worker_store_us",
              "dist.result_write_us")
WIRE_LAYER = {
    **{f"{name}_{side}": "us" for name in _WIRE_BOTH for side in ("hit", "miss")},
    **{name: "us" for name in _WIRE_MISS},
    "serve.batches": "count",
    "serve.mean_batch": "count",
    "store.hit_ratio": "ratio",
    "dist.chunks": "count",
    "dist.requeues": "count",
}

#: Per-layer metrics (``--trace 1``).  Every traced run prints all of
#: them; a layer the workload never enters reads 0.
PER_LAYER = {**HIL_LAYER, **WIRE_LAYER, "trace_overhead_x": "x"}


def repo_src() -> pathlib.Path:
    """``src`` of the checkout the benchmark runs from (the cwd)."""
    return pathlib.Path.cwd() / "src"


def require_repo() -> None:
    """Exit with status 2 unless the cwd is a checkout holding the program."""
    if not (repo_src() / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {repo_src()}; run from the "
              "root of a repository checkout", file=sys.stderr)
        sys.exit(2)


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    Left free, the scheduler spreads the load generator, the server, its
    threads and the worker over the cores, a placement that holds for a
    whole run and differs between runs; wake-ups across cores cost more
    CPU than on one core.  In five pinned ``wire_broker`` runs interleaved
    with five free ones, the quartile spread of miss CPU was 0.05 pinned
    and 0.19 free."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    """Environment for every process the benchmark starts: the checkout's
    ``src`` on the path, the observability journal off, and a fixed string
    hash seed.  With a random one per process, dict and set layouts
    differ from process to process, and so does the CPU they cost: one
    ``hil_small`` run took 0.073, 0.088 or 0.093 ms per store-served job
    depending only on the hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_src())
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_OBS_DIR", None)
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_CACHE_MAX_BYTES", None)
    return env


def work_dir() -> pathlib.Path:
    """Scratch root inside the checkout (removed by each run it serves)."""
    root = pathlib.Path.cwd() / ".perfbench_work"
    root.mkdir(exist_ok=True)
    return root


def environment() -> dict:
    """Interpreter, numpy, core count and the kernel ``auto`` resolves to."""
    import numpy

    from repro.hw.kernels import available_kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "auto_kernel": available_kernels()["auto"],
    }


def emit(tag: str, doc: dict) -> None:
    """One tagged JSON line on stdout (the child -> parent protocol)."""
    print(f"{tag} {json.dumps(doc)}", flush=True)
