"""Command-line front end: ``python -m repro`` / the ``repro`` script.

Subcommands:

* ``repro sweep`` — run a design-space sweep (slice counts × voltages ×
  utilisations) through a chosen execution backend + the shared result
  store and print the table;
* ``repro eval``  — hardware-in-the-loop evaluation of a synthetic
  dataset on the cycle-level SNE model, parallelised per sample;
* ``repro profile`` — per-stage hot-path profile of the simulator:
  runs a synthetic workload in-process, in the same stacked batches
  the backends run, under one profiler and prints wall time, share and
  events/s per stage (``--json`` dumps the structured summary;
  ``--kernel reference`` times the per-event reference loop);
* ``repro cache`` — inspect (``stats``: entries, bytes and shards), size-cap
  (``evict --max-bytes N``) or ``clear`` the shared on-disk result
  store;
* ``repro worker`` — the distributed work-queue agent: attach to a
  spool directory (``--spool``), claim job chunks under a heartbeated
  lease, execute them through the runner registry with result-store
  read/write-through, and publish ordered chunk results for the
  broker (``--drain`` exits when the spool empties);
* ``repro supervise`` — the autoscaling fleet supervisor: watch a
  spool's queue depth and lease states, start/retire/respawn worker
  agents between ``--min-workers`` and ``--max-workers``, and GC
  spool state abandoned past ``--gc-ttl``;
* ``repro chaos-soak`` — the seeded chaos harness: a supervised
  fleet under sustained traffic with fault injection (worker
  SIGKILLs, chunk/result corruption, forced store eviction), exiting
  0 only if every round merged bit-identical to a serial run;
* ``repro serve`` — the async streaming front end: accept
  line-delimited-JSON job requests over TCP (``--host/--port``) or
  stdio (``--stdio``), coalesce them into micro-batches
  (``--batch-window``/``--max-batch``), answer cache hits straight
  from the store and stream per-job results back as they complete;
* ``repro metrics`` — snapshot the observability directory's merged
  metric registry (``--json`` for the raw snapshot, ``--prom`` for
  Prometheus text exposition, default a human summary);
* ``repro top`` — live terminal dashboard over a running cluster
  sweep's event journal: queue depth, in-flight leases, chunks/s,
  requeues, cache hit rate, worker liveness and an SLO alerts panel
  (``--once`` renders a single frame for scripts and CI);
* ``repro trace`` — trace analytics over the journal: ``ls`` lists the
  slowest/failed traces (``--kind``/``--status`` filters), ``show
  <trace_id>`` renders one trace as a cross-process waterfall with
  per-stage self-time (kill-requeued chunks show every worker
  attempt), and ``critical-path`` aggregates where the time goes
  across the N slowest traces;
* ``repro slo check`` — evaluate declarative SLO rules (``--rules
  FILE`` or the built-in defaults) against the journal + registry
  with multi-window burn rates; exits 0 when every rule holds, 1 on
  a breach (``--watch`` re-evaluates continuously);
* ``repro --version`` — the package version.

A flag shared by several commands is declared by one ``_add_*``
helper, so it parses alike everywhere: ``--lease-ttl`` is a positive
number of seconds, and the store location and size cap default from
``$REPRO_CACHE_DIR`` and ``$REPRO_CACHE_MAX_BYTES`` (``supervise``
hands the resolved cap to its workers).  The daemons (``serve`` over
TCP, ``worker``, ``supervise``) stop on SIGTERM as on Ctrl-C: draining
requests, finishing the chunk, closing the fleet.

Observability is enabled by ``--obs-dir DIR`` (or ``$REPRO_OBS_DIR``):
every command then journals structured events to
``DIR/journal.ndjson`` and flushes its metric registry snapshot under
``DIR/metrics/`` on exit, which ``repro metrics``/``repro top`` merge
into one fleet-wide view.

``--backend`` selects the execution backend of ``sweep`` and ``eval``;
the accepted names are derived from the live registry at parse time
(any backend registered via
:func:`repro.runtime.backends.register_backend`, including the
``cluster`` queue backend), so results are bit-identical across
backends and late-registered names need no CLI edits.

``--kernel`` pins the SNE kernel implementation
(:mod:`repro.hw.kernels`) on the simulation commands: every kernel is
bit-identical, so this is a speed knob, never a results knob.
``auto`` (the default) prefers numba when importable and falls back to
the numpy shim; a pin that is locally unavailable warns and falls
back.  ``repro profile --json`` reports ``available_kernels()`` and
serve/worker startup logs print the capability line, so a fleet
silently mixing numba and numpy workers is detectable.

Every command prints the run's cache/executor statistics so scripted
callers (the Makefile smoke targets, the scaling benchmark) can verify
hit rates and worker counts from the output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence

from . import obs
from .backends import available_backends, default_backend_name, make_backend
from .progress import ConsoleProgress, Progress
from .store import ResultStore, default_cache_dir, open_store

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _voltage_list(text: str) -> list[float | None]:
    out: list[float | None] = []
    for tok in text.split(","):
        if not tok:
            continue
        if tok in ("nom", "nominal", "-"):
            out.append(None)
        else:
            try:
                out.append(float(tok))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"voltages are floats or 'nom', got {tok!r}"
                )
    return out


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _backend_arg(text: str) -> str:
    # Validated against the registry *at parse time*, so any backend
    # registered by then — including ones registered after this module
    # was imported — is accepted, and a typo fails with the live list
    # instead of surfacing later as a runtime error.
    names = available_backends()
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown backend {text!r}; available: {', '.join(names)}"
        )
    return text


def _add_obs_flag(p: argparse.ArgumentParser) -> None:
    # One definition so every command names the observability switch
    # identically; the env default is resolved by obs.configure at run
    # time, not frozen into the parser.
    p.add_argument("--obs-dir", default=None, metavar="DIR",
                   help="observability directory: journal events to "
                        "DIR/journal.ndjson and flush metric snapshots "
                        "under DIR/metrics/ (default $REPRO_OBS_DIR, "
                        "else off)")


def _add_kernel_flag(p: argparse.ArgumentParser) -> None:
    # One definition so every simulation command pins kernels with the
    # same vocabulary as the registry (repro.hw.kernels); every choice
    # is bit-identical, so this is a speed/capability knob, never a
    # results knob.
    from ..hw.kernels import KERNEL_CHOICES

    p.add_argument("--kernel", choices=KERNEL_CHOICES, default="auto",
                   help="SNE kernel implementation (bit-identical; "
                        "'auto' prefers numba when importable, default auto)")


def _add_store_flags(p: argparse.ArgumentParser, store: str = "result store",
                     no_cache: str | None = None) -> None:
    """``--cache-dir`` and ``--max-bytes`` (read by :func:`_make_cache`),
    plus ``--no-cache`` with help ``no_cache`` when given."""
    p.add_argument("--cache-dir", default=None,
                   help=f"{store} directory (default {default_cache_dir()})")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="store size cap in bytes, LRU-evicted "
                        "(default $REPRO_CACHE_MAX_BYTES or uncapped)")
    if no_cache:
        p.add_argument("--no-cache", action="store_true", help=no_cache)


def _add_lease_flag(p: argparse.ArgumentParser, default: float, what: str) -> None:
    p.add_argument("--lease-ttl", type=_positive_float, default=default,
                   metavar="SECONDS", help=f"{what} (default {default:g})")


def _add_quiet_flag(p: argparse.ArgumentParser, unit: str = "job") -> None:
    p.add_argument("--quiet", action="store_true",
                   help=f"suppress per-{unit} progress output")


def _add_slo_flag(p: argparse.ArgumentParser, use: str) -> None:
    # Read by _load_slo_rules; unset means the built-in rule set.
    p.add_argument("--slo-rules", default=None, metavar="FILE",
                   help=f"SLO rules file (JSON/TOML) {use} (default: the "
                        "built-in rule set)")


def _add_deployment_flags(p: argparse.ArgumentParser, per_class: int) -> None:
    """The synthetic deployment :func:`_build_deployment` builds, plus
    ``--kernel``."""
    p.add_argument("--dataset", choices=("gesture", "nmnist"), default="gesture")
    p.add_argument("--size", type=int, default=16, help="sensor plane size")
    p.add_argument("--steps", type=int, default=12, help="timesteps per recording")
    p.add_argument("--per-class", type=int, default=per_class,
                   help="recordings per class")
    p.add_argument("--slices", type=int, default=8, help="SNE slice count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-samples", type=int, default=None)
    _add_kernel_flag(p)


def _warn_kernel_fleet(args) -> None:
    """Surface kernel capability gaps before a run starts.

    A pinned kernel that is locally unavailable, or a numba pin on a
    cluster fleet (whose workers may lack numba), degrades to the numpy
    shim with bit-identical outputs — worth a warning, never a crash.
    """
    from ..hw.kernels import available_kernels

    kernel = getattr(args, "kernel", "auto")
    if kernel == "auto":
        return
    caps = available_kernels()["kernels"]
    if not caps[kernel]["available"]:
        print(f"repro {args.command}: warning: kernel {kernel!r} unavailable "
              f"here ({caps[kernel]['detail']}); falling back to numpy "
              "(outputs are bit-identical)", file=sys.stderr)
    if kernel == "numba" and (getattr(args, "backend", None) == "cluster"
                              or getattr(args, "spool", None) is not None):
        print(f"repro {args.command}: warning: --kernel numba on a cluster "
              "fleet: workers without numba fall back to numpy — outputs "
              "stay bit-identical, but timings mix kernels (check the "
              "workers' startup logs)", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with every subcommand attached.

    Exposed separately from :func:`main` so tests and tooling can
    introspect flags without executing a command.
    """
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNE reproduction runtime: parallel sweeps, cached simulation.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, summary: str) -> argparse.ArgumentParser:
        # Each subcommand is wired to the function main() runs for it here.
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    def add_common(p: argparse.ArgumentParser) -> None:
        # The name list in the help is rendered from the registry.
        p.add_argument("--backend", type=_backend_arg, default=None, metavar="NAME",
                       help="execution backend: "
                            f"{', '.join(available_backends())} "
                            "(default: serial, or process when --workers > 1)")
        p.add_argument("--workers", type=_positive_int, default=None,
                       help="worker threads/processes (default: 1, or the "
                            "backend's own sizing when --backend is given)")
        p.add_argument("--spool", default=None, metavar="DIR",
                       help="shared spool directory for --backend cluster, "
                            "so external `repro worker --spool DIR` agents "
                            "receive the chunks (default: a private "
                            "per-run temp spool served by spawned local "
                            "workers)")
        _add_store_flags(p, no_cache="bypass the result store entirely")
        _add_quiet_flag(p)
        _add_obs_flag(p)

    p_sweep = add("sweep", _cmd_sweep, "run a design-space sweep")
    p_sweep.add_argument("--slices", type=_int_list, default=[1, 2, 4, 8],
                         help="comma-separated slice counts (default 1,2,4,8)")
    p_sweep.add_argument("--voltages", type=_voltage_list, default=[None],
                         help="comma-separated supply voltages; 'nom' = 0.8 V")
    p_sweep.add_argument("--utilizations", type=_float_list, default=[1.0],
                         help="comma-separated cluster utilisations in [0,1]")
    p_sweep.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    _add_kernel_flag(p_sweep)
    add_common(p_sweep)

    p_eval = add("eval", _cmd_eval, "hardware-in-the-loop dataset evaluation")
    _add_deployment_flags(p_eval, per_class=2)
    p_eval.add_argument("--epochs", type=int, default=0,
                        help="training epochs before deployment (0 = untrained weights)")
    add_common(p_eval)

    p_prof = add("profile", _cmd_profile,
                 "per-stage hot-path profile of the cycle-level simulator")
    _add_deployment_flags(p_prof, per_class=1)
    p_prof.add_argument("--json", metavar="PATH", default=None,
                        help="also write the span summary as JSON "
                             "('-' for stdout)")
    _add_quiet_flag(p_prof)
    _add_obs_flag(p_prof)

    p_cache = add("cache", _cmd_cache, "inspect, evict or clear the result store")
    p_cache.add_argument("action", choices=("stats", "evict", "clear"))
    _add_store_flags(p_cache)

    p_worker = add("worker", _cmd_worker,
                   "cluster work-queue agent: claim, execute and publish "
                   "spooled job chunks")
    p_worker.add_argument("--spool", required=True, metavar="DIR",
                          help="the shared spool directory a broker "
                               "(`repro sweep --backend cluster --spool "
                               "DIR`, or any ClusterBackend/Broker) "
                               "submits chunks into")
    p_worker.add_argument("--worker-id", default=None,
                          help="lease owner name (default host-pid-nonce)")
    p_worker.add_argument("--poll", type=_positive_float, default=0.1,
                          metavar="SECONDS",
                          help="sleep between empty spool scans (default 0.1)")
    _add_lease_flag(p_worker, 30.0, "claim lifetime; heartbeats refresh it at ttl/3")
    p_worker.add_argument("--drain", action="store_true",
                          help="exit once the spool has no unfinished "
                               "chunks (default: poll forever)")
    p_worker.add_argument("--max-chunks", type=_positive_int, default=None,
                          help="exit after publishing this many chunks")
    _add_store_flags(p_worker, "shared result store for read/write-through",
                     no_cache="execute without the shared store")
    _add_quiet_flag(p_worker, "chunk")
    _add_obs_flag(p_worker)

    p_serve = add("serve", _cmd_serve,
                  "async streaming server: NDJSON requests over TCP/stdio")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="TCP bind address (default 127.0.0.1; the "
                              "protocol is unauthenticated, bind wider "
                              "deliberately)")
    p_serve.add_argument("--port", type=int, default=7797,
                         help="TCP port (default 7797; 0 = ephemeral, "
                              "printed on startup)")
    p_serve.add_argument("--stdio", action="store_true",
                         help="serve stdin/stdout instead of TCP (exits "
                              "at EOF after draining in-flight requests)")
    p_serve.add_argument("--batch-window", type=float, default=0.005,
                         metavar="SECONDS",
                         help="micro-batch coalescing window (default 0.005)")
    p_serve.add_argument("--max-batch", type=_positive_int, default=32,
                         help="dispatch as soon as this many requests "
                              "coalesced (default 32)")
    p_serve.add_argument("--dispatch", choices=("local", "broker"),
                         default="local",
                         help="execution plane: 'local' runs batches "
                              "in-process on --backend; 'broker' spools "
                              "them to a worker fleet (requires --spool)")
    p_serve.add_argument("--max-queue-depth", type=_positive_int,
                         default=None, metavar="N",
                         help="admission control: shed requests with a "
                              "structured 'overloaded' error once this "
                              "many are queued (default unbounded)")
    p_serve.add_argument("--conn-credits", type=_positive_int, default=64,
                         metavar="N",
                         help="per-connection in-flight window; a "
                              "connection at the limit stops being read "
                              "until answers drain (default 64)")
    _add_lease_flag(p_serve, 30.0,
                    "broker dispatch only: worker lease TTL per spooled batch")
    p_serve.add_argument("--dispatch-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="broker dispatch only: per-batch fleet "
                              "deadline; past it outstanding jobs fail "
                              "structurally (default: wait forever)")
    _add_slo_flag(p_serve, "backing the wire protocol's 'health' op")
    add_common(p_serve)

    p_sup = add("supervise", _cmd_supervise,
                "autoscaling fleet supervisor: operate workers off spool "
                "signals and GC abandoned spool state")
    p_sup.add_argument("--spool", required=True, metavar="DIR",
                       help="the shared spool directory to watch and serve")
    p_sup.add_argument("--min-workers", type=int, default=1,
                       help="fleet floor, kept alive even when idle "
                            "(default 1)")
    p_sup.add_argument("--max-workers", type=_positive_int, default=4,
                       help="fleet ceiling under backlog (default 4)")
    p_sup.add_argument("--tick", type=_positive_float, default=0.5,
                       metavar="SECONDS",
                       help="control-loop cadence (default 0.5)")
    p_sup.add_argument("--backlog-per-worker", type=_positive_float,
                       default=2.0, metavar="CHUNKS",
                       help="pending chunks each worker is expected to "
                            "absorb; scale-up targets "
                            "ceil(pending / this) (default 2)")
    p_sup.add_argument("--scale-up-ticks", type=_positive_int, default=2,
                       help="consecutive backlogged ticks before scaling "
                            "up (default 2)")
    p_sup.add_argument("--idle-ticks", type=_positive_int, default=4,
                       help="consecutive empty ticks before scaling down "
                            "(default 4)")
    _add_lease_flag(p_sup, 30.0, "lease TTL handed to spawned workers")
    p_sup.add_argument("--gc-ttl", type=_positive_float, default=900.0,
                       metavar="SECONDS",
                       help="age beyond which abandoned claims, chunks "
                            "and results are GCed (default 900)")
    p_sup.add_argument("--respawn-budget", type=_positive_int, default=16,
                       help="lifetime cap on crash replacements "
                            "(default 16)")
    p_sup.add_argument("--max-ticks", type=_positive_int, default=None,
                       help="exit after this many ticks (smoke/CI; "
                            "default: run until interrupted)")
    _add_store_flags(p_sup, "result store for workers' read/write-through",
                     no_cache="spawn workers without the shared store")
    _add_slo_flag(p_sup, "whose rules journal an slo.breach event when they "
                         "newly start burning (needs --obs-dir)")
    _add_quiet_flag(p_sup, "event")
    _add_obs_flag(p_sup)

    p_chaos = add("chaos-soak", _cmd_chaos,
                  "seeded chaos soak: supervised fleet + fault injection, "
                  "verified bit-identical to a serial run")
    p_chaos.add_argument("--spool", default=None, metavar="DIR",
                         help="spool directory (default: a private temp "
                              "spool, removed afterwards)")
    p_chaos.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result store the fleet writes through and "
                              "eviction faults squeeze (default: a "
                              "private temp store)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="fault-timeline RNG seed (default 0)")
    p_chaos.add_argument("--rounds", type=_positive_int, default=3,
                         help="traffic rounds (default 3; extends while "
                              "faults are still pending)")
    p_chaos.add_argument("--jobs", type=_positive_int, default=24,
                         help="jobs per round (default 24)")
    p_chaos.add_argument("--duration", type=_positive_float, default=6.0,
                         metavar="SECONDS",
                         help="fault-timeline length (default 6)")
    p_chaos.add_argument("--kills", type=int, default=3,
                         help="worker SIGKILLs to inject (default 3)")
    p_chaos.add_argument("--chunk-corruptions", type=int, default=2,
                         help="spool chunk corruptions (default 2)")
    p_chaos.add_argument("--result-corruptions", type=int, default=1,
                         help="result-file corruptions (default 1)")
    p_chaos.add_argument("--evictions", type=int, default=1,
                         help="forced store evictions (default 1)")
    p_chaos.add_argument("--min-workers", type=int, default=1,
                         help="supervisor fleet floor (default 1)")
    p_chaos.add_argument("--max-workers", type=_positive_int, default=3,
                         help="supervisor fleet ceiling (default 3)")
    _add_lease_flag(p_chaos, 1.5,
                    "worker lease TTL; bounds requeue latency after a kill")
    _add_quiet_flag(p_chaos, "round")
    _add_obs_flag(p_chaos)

    p_metrics = add("metrics", _cmd_metrics,
                    "snapshot the merged observability metrics registry")
    group = p_metrics.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit the raw merged snapshot document")
    group.add_argument("--prom", action="store_true",
                       help="emit Prometheus text exposition format")
    _add_obs_flag(p_metrics)

    p_top = add("top", _cmd_top,
                "live fleet dashboard over the observability journal")
    p_top.add_argument("--interval", type=_positive_float, default=1.0,
                       metavar="SECONDS",
                       help="refresh cadence (default 1.0)")
    p_top.add_argument("--window", type=_positive_float, default=10.0,
                       metavar="SECONDS",
                       help="throughput averaging window (default 10)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit (scripts/CI)")
    _add_slo_flag(p_top, "for the alerts panel")
    _add_obs_flag(p_top)

    p_trace = add("trace", _cmd_trace,
                  "trace analytics: list, waterfall and critical-path the "
                  "journal's span trees")
    p_trace.add_argument("action", choices=("ls", "show", "critical-path"),
                         help="ls = slowest/failed traces; show = one "
                              "trace's cross-process waterfall; "
                              "critical-path = aggregate self-time table")
    p_trace.add_argument("trace_id", nargs="?", default=None,
                         help="trace ID (or unique prefix) for 'show'")
    p_trace.add_argument("--kind", default=None,
                         help="only traces touching this job kind")
    p_trace.add_argument("--status", choices=("ok", "failed"), default=None,
                         help="only traces with this terminal status")
    p_trace.add_argument("--limit", type=_positive_int, default=20,
                         metavar="N",
                         help="consider at most the N slowest traces "
                              "(default 20)")
    _add_obs_flag(p_trace)

    p_slo = add("slo", _cmd_slo,
                "evaluate declarative SLO rules against the journal and "
                "metrics registry")
    p_slo.add_argument("action", choices=("check",),
                       help="check = evaluate every rule once (or "
                            "continuously with --watch)")
    p_slo.add_argument("--rules", default=None, metavar="FILE",
                       help="JSON/TOML rules file (default: the built-in "
                            "serve/cluster rule set)")
    p_slo.add_argument("--watch", action="store_true",
                       help="re-evaluate every --interval seconds until "
                            "interrupted instead of exiting")
    p_slo.add_argument("--interval", type=_positive_float, default=2.0,
                       metavar="SECONDS",
                       help="--watch refresh cadence (default 2.0)")
    _add_obs_flag(p_slo)
    return parser


def _make_executor(args):
    name = args.backend or default_backend_name(args.workers)
    kwargs = {}
    if getattr(args, "spool", None) is not None:
        if name != "cluster":
            raise ValueError(
                f"--spool only applies to --backend cluster (got {name!r})"
            )
        kwargs["spool_dir"] = args.spool
    return make_backend(name, workers=args.workers, **kwargs)


def _make_cache(args) -> ResultStore | None:
    """The store named by :func:`_add_store_flags` (location and cap
    defaulting from the environment), or None under ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    return open_store(args.cache_dir, max_bytes=args.max_bytes)


def _make_progress(args) -> Progress:
    return Progress() if args.quiet else ConsoleProgress()


def _load_slo_rules(path: str | None):
    """The rules in ``path``; None (read by ``AsyncServer``, ``Supervisor``
    and ``SLOMonitor`` as the built-in rule set) when no file is named."""
    from .slo import load_rules

    return load_rules(path) if path else None


def _build_deployment(args):
    """The ``(dataset, HardwareEvaluator)`` pair ``eval`` and ``profile``
    run: a synthetic dataset and the small network on it, trained for
    ``--epochs`` when positive, compiled onto ``--slices`` slices."""
    from ..events.datasets import SyntheticDVSGesture, SyntheticNMNIST
    from ..hw.config import PAPER_CONFIG
    from ..hw.mapper import compile_network
    from ..hw.runner import HardwareEvaluator
    from ..snn.topology import build_small_network

    if args.dataset == "gesture":
        maker = SyntheticDVSGesture(size=args.size, n_steps=args.steps)
    else:
        # Largest glyph magnification whose 7x5 bitmap (+2px margin) fits.
        scale = max(1, min((args.size - 2) // 7, 3))
        maker = SyntheticNMNIST(size=args.size, n_steps=args.steps, scale=scale)
    data = maker.generate(n_per_class=args.per_class, seed=args.seed)
    net = build_small_network(
        input_size=maker.size, n_classes=data.n_classes, channels=6, hidden=32,
        seed=args.seed,
    )
    if getattr(args, "epochs", 0) > 0:
        from ..snn.training import TrainConfig, Trainer

        Trainer(net, TrainConfig(epochs=args.epochs, batch_size=min(8, len(data)),
                                 seed=args.seed)).fit(data)
    programs = compile_network(net, (2, maker.size, maker.size))
    return data, HardwareEvaluator(programs, PAPER_CONFIG.with_slices(args.slices))


@contextlib.contextmanager
def _sigterm_stops(stop):
    """Within the block SIGTERM (what service managers and ``kill`` send)
    calls ``stop()``, so a daemon exits through its normal path; a forked
    child that inherited the handler (a pool or fleet worker) dies as asked."""
    import os
    import signal

    main_pid = os.getpid()

    def on_sigterm(signum, frame):
        if os.getpid() == main_pid:
            return stop()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    previous = signal.signal(signal.SIGTERM, on_sigterm)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _refresh(frame, interval: float) -> int:
    """Redraw ``frame()`` every ``interval`` seconds until Ctrl-C."""
    import time

    try:
        while True:
            # Clear + home between frames, like watch(1); the frame
            # itself stays escape-free so one-shot output is grep-able.
            sys.stdout.write("\x1b[2J\x1b[H" + frame() + "\n")
            sys.stdout.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        print()  # leave the last frame intact; exit on the next line
        return 0


def _cmd_sweep(args) -> int:
    from .sweep import run_dse_sweep

    _warn_kernel_fleet(args)
    if args.kernel != "auto":
        # DSE points are analytic (area/power algebra, no SNE
        # simulation), so a pin only matters for fleet capability
        # hygiene — say so instead of silently accepting it.
        print("repro sweep: note: DSE points are analytic; --kernel "
              "affects simulation commands (eval, profile)", file=sys.stderr)
    report = run_dse_sweep(
        slices=args.slices,
        voltages=args.voltages,
        utilizations=args.utilizations,
        executor=_make_executor(args),
        cache=_make_cache(args),
        progress=_make_progress(args),
    )
    if args.csv:
        sys.stdout.write(report.to_csv())
        stats_out = sys.stderr  # keep redirected CSV files valid
    else:
        print(report.render(title="SNE design-space sweep (Figs. 4 + 5 axes)"))
        stats_out = sys.stdout
    print(f"run: {report.run.summary()}", file=stats_out)
    return 0 if report.ok else 1


def _cmd_eval(args) -> int:
    from ..analysis.tables import render_table
    from ..hw.runner import report_from_job_results
    from .executor import run_jobs

    data, evaluator = _build_deployment(args)
    _warn_kernel_fleet(args)
    jobs = evaluator.sample_jobs(data, max_samples=args.max_samples,
                                 kernel=args.kernel)
    run = run_jobs(jobs, executor=_make_executor(args),
                   cache=_make_cache(args), progress=_make_progress(args))
    if run.failures():
        print(f"run: {run.summary()}")
        print(run.failures()[0].error, file=sys.stderr)
        return 1
    report = report_from_job_results(run.results)

    rows = [
        [i, r.label, r.prediction, "Y" if r.correct else "n",
         r.input_events, r.cycles, f"{r.energy_uj:.3f}"]
        for i, r in enumerate(report.results[:10])
    ]
    print(render_table(
        ["#", "label", "pred", "ok", "events", "cycles", "energy [uJ]"],
        rows, title=f"hardware-in-the-loop: {data.name} (first 10 of {len(report.results)})",
    ))
    lo, hi = report.energy_range_uj
    print(f"hardware accuracy: {report.accuracy:.3f}   "
          f"per-inference energy: {lo:.3f} - {hi:.3f} uJ")
    print(f"run: {run.summary()}")
    return 0


def _cmd_profile(args) -> int:
    # Same deployment pipeline as `repro eval`, run in-process in the
    # backends' stacked batches under one Profiler.
    import json as _json

    from .profile import Profiler, render_profile

    data, evaluator = _build_deployment(args)
    _warn_kernel_fleet(args)
    profiler = Profiler()
    report = evaluator.evaluate(data, max_samples=args.max_samples,
                                progress=_make_progress(args),
                                kernel=args.kernel, profiler=profiler)
    summary = profiler.summary()
    profiled = len(report.results)
    mode = "vectorised" if args.kernel == "auto" else f"{args.kernel}-kernel"
    title = (f"hot-path profile — {data.name}, {profiled} sample(s), "
             f"{args.slices} slice(s), {mode} event loop")
    print(render_profile(summary, title=title))
    if args.json:
        from ..hw.kernels import available_kernels

        doc = _json.dumps({"workload": {
            "dataset": data.name, "samples": profiled,
            "n_slices": args.slices, "mode": mode,
            "kernel": args.kernel,
        }, "kernels": available_kernels(), **summary}, indent=2)
        if args.json == "-":
            print(doc)
        else:
            with open(args.json, "w") as fh:
                fh.write(doc + "\n")
            print(f"profile: wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    store = _make_cache(args)
    if args.action == "clear":
        removed = store.clear()
        print(f"cache: removed {removed} entr{'y' if removed == 1 else 'ies'} from {store.root}")
        return 0
    if args.action == "evict":
        if store.max_bytes is None:
            raise ValueError("evict needs --max-bytes (or $REPRO_CACHE_MAX_BYTES)")
        removed = store.evict()
        u = store.usage()
        print(f"cache: evicted {removed} entr{'y' if removed == 1 else 'ies'}; "
              f"{u['entries']} left, {u['bytes']} bytes "
              f"(cap {u['max_bytes']}) @ {u['root']}")
        return 0
    u = store.usage()
    cap = "uncapped" if u["max_bytes"] is None else f"cap {u['max_bytes']} bytes"
    print(f"cache: {u['entries']} entr{'y' if u['entries'] == 1 else 'ies'}, "
          f"{u['bytes']} bytes ({cap}), {u['shards']} shard dir(s) @ {u['root']}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .dispatch import BrokerDispatcher, LocalDispatcher
    from .serve import AsyncServer, serve_stdio, serve_tcp

    if args.dispatch == "broker":
        if not args.spool:
            print("repro serve: --dispatch broker requires --spool DIR "
                  "(the directory the worker fleet watches)", file=sys.stderr)
            return 2
        dispatcher = BrokerDispatcher(
            args.spool,
            lease_ttl_s=args.lease_ttl,
            timeout=args.dispatch_timeout,
        )
    else:
        # Serving is latency-bound: the thread backend answers a
        # one-job micro-batch without per-dispatch pool spin-up, so it
        # is the default here (unlike batch commands, which default via
        # default_backend_name).
        dispatcher = LocalDispatcher(args.backend or "thread",
                                     workers=args.workers)
    server = AsyncServer(
        dispatcher=dispatcher,
        cache=_make_cache(args),
        batch_window_s=args.batch_window,
        max_batch=args.max_batch,
        max_queue_depth=args.max_queue_depth,
        conn_credits=args.conn_credits,
        slo_rules=_load_slo_rules(args.slo_rules),
    )

    # Capability line first, so fleet operators can audit which kernel
    # a mixed serve/worker fleet will actually run from the logs alone.
    if not args.quiet:
        from ..hw.kernels import kernel_summary

        print(f"repro serve: {kernel_summary()}", file=sys.stderr)

    async def _tcp() -> None:
        # SIGTERM sets `stopped` from the signal handler (not the loop's
        # own add_signal_handler, which pool workers forked by
        # --backend process would inherit); the finally then drains.
        stopped = asyncio.Event()
        loop = asyncio.get_running_loop()
        tcp = await serve_tcp(server, host=args.host, port=args.port)
        try:
            with _sigterm_stops(lambda: loop.call_soon_threadsafe(stopped.set)):
                host, port = tcp.sockets[0].getsockname()[:2]
                shed = ("unbounded" if args.max_queue_depth is None
                        else str(args.max_queue_depth))
                print(f"repro serve: listening on {host}:{port} "
                      f"(dispatch {dispatcher.name}/"
                      f"{server.stats_backend_name()}, proto v2, "
                      f"window {args.batch_window:g}s, max batch {args.max_batch}, "
                      f"queue depth {shed})", file=sys.stderr)
                async with tcp:
                    await stopped.wait()
        finally:
            await server.aclose()
            await dispatcher.aclose()

    async def _stdio() -> None:
        try:
            await serve_stdio(server)
        finally:
            await dispatcher.aclose()

    try:
        asyncio.run(_stdio() if args.stdio else _tcp())
    except KeyboardInterrupt:
        pass  # Ctrl-C is the normal way to stop a TCP server
    if not args.quiet:
        s = server.stats()
        lat = s["latency"]
        print(
            f"serve: {s['requests']} request(s) in {s['batches']} batch(es) — "
            f"{s['cache_hits']} cache hit(s), {s['computed']} computed, "
            f"{s['failures']} failed, {s['shed']} shed; "
            f"latency p50 {lat['p50_s'] * 1e3:.2f} ms, "
            f"p99 {lat['p99_s'] * 1e3:.2f} ms",
            file=sys.stderr,
        )
    return 0


def _cmd_worker(args) -> int:
    import threading

    from .dist import worker_loop

    def on_chunk(chunk_id: str, n_jobs: int, elapsed: float) -> None:
        if not args.quiet:
            print(f"[worker] chunk {chunk_id}: {n_jobs} job(s) in "
                  f"{elapsed:.3f}s", file=sys.stderr)

    # SIGTERM ends the loop after the current chunk; worker_loop then
    # flushes the store's counters and the metrics.
    stop = threading.Event()
    with _sigterm_stops(stop.set):
        if not args.quiet:
            from ..hw.kernels import kernel_summary

            mode = "drain" if args.drain else "daemon"
            print(f"[worker] attached to spool {args.spool} ({mode} mode, "
                  f"lease ttl {args.lease_ttl:g}s)", file=sys.stderr)
            # Per-worker capability line: `repro profile --json` reports
            # the submitting host's kernels; a fleet mixing numba and
            # numpy workers is only detectable from each worker's own log.
            print(f"[worker] {kernel_summary()}", file=sys.stderr)
        try:
            done = worker_loop(
                args.spool,
                worker_id=args.worker_id,
                store=_make_cache(args),
                poll_s=args.poll,
                lease_ttl_s=args.lease_ttl,
                drain=args.drain,
                max_chunks=args.max_chunks,
                stop=stop,
                on_chunk=on_chunk,
            )
        except KeyboardInterrupt:
            done = None  # Ctrl-C is the normal way to stop a daemon worker
            obs.flush_metrics()  # worker_loop flushes on a normal exit only
    if not args.quiet and done is not None:
        print(f"[worker] done: {done} chunk(s) published", file=sys.stderr)
    return 0


def _cmd_supervise(args) -> int:
    import logging
    import threading

    from .supervisor import Supervisor, log as supervisor_log

    store = _make_cache(args)
    supervisor = Supervisor(
        args.spool,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        tick_s=args.tick,
        backlog_per_worker=args.backlog_per_worker,
        scale_up_ticks=args.scale_up_ticks,
        idle_ticks=args.idle_ticks,
        lease_ttl_s=args.lease_ttl,
        gc_ttl_s=args.gc_ttl,
        respawn_budget=args.respawn_budget,
        cache_dir=None if store is None else str(store.root),
        max_bytes=None if store is None else store.max_bytes,
        slo_rules=_load_slo_rules(args.slo_rules),
    )
    # The supervisor logs each scaling decision; print them unless quiet.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[supervise] %(message)s"))
    level = supervisor_log.level
    if not args.quiet:
        print(f"[supervise] fleet {args.min_workers}..{args.max_workers} "
              f"over spool {args.spool} (tick {args.tick:g}s, lease ttl "
              f"{args.lease_ttl:g}s, gc ttl {args.gc_ttl:g}s)",
              file=sys.stderr)
        supervisor_log.addHandler(handler)
        supervisor_log.setLevel(logging.INFO)
    # SIGTERM stops the loop the same way the max-ticks limit does, so
    # run()'s finally closes the fleet instead of orphaning it.
    stop = threading.Event()
    try:
        with _sigterm_stops(stop.set):
            supervisor.run(stop=stop, max_ticks=args.max_ticks)
    except KeyboardInterrupt:
        supervisor.close()  # Ctrl-C is the normal way to stop a daemon
    finally:
        supervisor_log.removeHandler(handler)
        supervisor_log.setLevel(level)
    if not args.quiet:
        # The process runs one supervisor, so the registry's counts are
        # its lifetime counts.
        n = obs.get_registry().counter("repro_supervisor_events_total").value
        gc = n(op="gc_claim") + n(op="gc_chunk") + n(op="gc_result")
        print(f"[supervise] done: {supervisor.ticks} tick(s), "
              f"{n(op='spawn'):.0f} spawned, {n(op='retire'):.0f} retired, "
              f"{n(op='respawn'):.0f} respawned after {n(op='crash'):.0f} "
              f"crash(es), {n(op='scale_up'):.0f} scale-up(s), "
              f"{n(op='scale_down'):.0f} scale-down(s), gc {gc:.0f} file(s)",
              file=sys.stderr)
    return 0


def _cmd_chaos(args) -> int:
    import tempfile as _tempfile

    from .chaos import run_chaos_soak

    def on_round(round_no: int, ok: bool) -> None:
        if not args.quiet:
            print(f"[chaos-soak] round {round_no}: "
                  f"{'bit-identical' if ok else 'DIVERGED'}",
                  file=sys.stderr)

    with _tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        spool = args.spool or f"{tmp}/spool"
        cache = args.cache_dir or f"{tmp}/store"
        report = run_chaos_soak(
            spool,
            cache_dir=cache,
            seed=args.seed,
            rounds=args.rounds,
            jobs_per_round=args.jobs,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            lease_ttl_s=args.lease_ttl,
            kills=args.kills,
            chunk_corruptions=args.chunk_corruptions,
            result_corruptions=args.result_corruptions,
            evictions=args.evictions,
            duration_s=args.duration,
            on_round=on_round,
        )
    print(report.summary())
    return 0 if report.ok else 1


def _resolved_obs_dir(args):
    """The observability directory the read commands work on.

    Raises:
        ValueError: neither ``--obs-dir`` nor ``$REPRO_OBS_DIR`` names one.
    """
    target = obs.configure(args.obs_dir)
    if target is None:
        raise ValueError("no observability directory "
                         "(pass --obs-dir or set $REPRO_OBS_DIR)")
    return target


def _cmd_metrics(args) -> int:
    import json as _json

    target = _resolved_obs_dir(args)
    registry = obs.read_metrics(target)
    if args.json:
        print(_json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        return 0
    if args.prom:
        sys.stdout.write(registry.render_prometheus())
        return 0
    names = registry.names()
    if not names:
        print(f"metrics: no snapshots under {target}/metrics yet")
        return 0
    print(f"metrics @ {target} — {len(names)} metric(s)")
    for name in names:
        metric = registry._metrics[name]
        if metric.kind == "histogram":
            series = metric._snapshot_series()
            count = sum(s["count"] for s in series)
            if not count:
                print(f"  {name} (histogram): empty")
                continue
            total = sum(s["sum"] for s in series)
            # Merge bucket counts across every labeled series for a
            # fleet-wide p99 (per-label quantiles stay in --json/--prom).
            counts = [0] * len(metric.buckets)
            for s in series:
                for i, c in enumerate(s["counts"]):
                    counts[i] += c
            p99, overflow = obs.quantile_from_counts(
                metric.buckets, counts, count, 99.0)
            # An overflow rank means the p99 sample landed beyond every
            # finite bucket: the honest statement is a lower bound.
            cmp = ">" if overflow else "<="
            print(f"  {name} (histogram): {count} sample(s), "
                  f"mean {total / count * 1e3:.2f} ms, "
                  f"p99 {cmp} {p99 * 1e3:.2f} ms")
        else:
            parts = ", ".join(
                f"{dict(s['labels']) or 'total'}={s['value']:g}"
                for s in metric._snapshot_series()[:6])
            print(f"  {name} ({metric.kind}): {parts}")
    return 0


class _TopState:
    """Accumulates journal events into the figures ``repro top`` shows."""

    def __init__(self, window_s: float) -> None:
        """Args: ``window_s`` — the chunks/s averaging window."""
        import collections

        self.window_s = window_s
        self.submits = 0
        self.completes = 0
        self.requeues = 0
        self.failures = 0
        self.claims = 0
        self.jobs_done = 0
        self.traces: set[str] = set()
        self.workers: dict[str, float] = {}
        self.complete_ts: collections.deque = collections.deque(maxlen=4096)

    def apply(self, ev: dict) -> None:
        """Fold one journal event into the counters."""
        name = ev.get("event")
        ts = float(ev.get("ts", 0.0))
        if "trace_id" in ev:
            self.traces.add(ev["trace_id"])
        worker = ev.get("worker")
        if worker:
            self.workers[worker] = max(ts, self.workers.get(worker, 0.0))
        if name == "chunk.submit":
            self.submits += 1
        elif name == "chunk.complete":
            self.completes += 1
            self.jobs_done += int(ev.get("jobs", 0))
            self.complete_ts.append(ts)
        elif name == "chunk.requeue":
            self.requeues += 1
        elif name == "chunk.failed":
            self.failures += 1
        elif name == "worker.claim":
            self.claims += 1

    def render(self, registry, now: float, alerts=None) -> str:
        """One dashboard frame (plain text, no escape codes).

        ``alerts`` is an optional list of breached
        :class:`~repro.runtime.slo.SLOStatus` — the SLO panel appended
        under the worker list (``alerts  none`` when empty).
        """
        queue_depth = max(0, self.submits - self.completes - self.failures)
        in_flight = max(0, self.claims - self.completes - self.requeues)
        recent = sum(1 for t in self.complete_ts if now - t <= self.window_s)
        rate = recent / self.window_s
        hits = misses = 0.0
        store = registry._metrics.get("repro_store_events_total")
        if store is not None:
            hits = store.value(op="hit")
            # A lookup that found an invalid entry missed too.
            misses = store.value(op="miss") + store.value(op="corrupt")
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        # Serve-side queue depth comes from the same process-wide gauge
        # the serve `stats` op reports (repro_serve_queue_depth), so the
        # dashboard and the wire protocol agree by construction.
        serve_depth = None
        serve_gauge = registry._metrics.get("repro_serve_queue_depth")
        if serve_gauge is not None:
            serve_depth = int(serve_gauge.value())
        live_cutoff = now - max(15.0, 3 * self.window_s)
        live = sorted(w for w, t in self.workers.items() if t >= live_cutoff)
        lines = [
            f"repro top — {len(self.traces)} trace(s), "
            f"{self.jobs_done} job(s) done",
            f"  queue depth     {queue_depth:>6}   (submitted {self.submits}, "
            f"completed {self.completes}, failed {self.failures})",
            f"  in-flight       {in_flight:>6}   (claims {self.claims}, "
            f"requeues {self.requeues})",
            f"  chunks/s        {rate:>8.1f} (last {self.window_s:g}s)",
            f"  requeues        {self.requeues:>6}",
            f"  cache hit rate  {hit_rate:>7.0%}  ({hits:g} hit(s), "
            f"{misses:g} miss(es))",
            f"  workers         {len(live)}/{len(self.workers)} live",
        ]
        if serve_depth is not None:
            lines.insert(2, f"  serve queue     {serve_depth:>6}   "
                            f"(repro_serve_queue_depth gauge)")
        for w in live[:8]:
            lines.append(f"    {w}  last seen {now - self.workers[w]:.1f}s ago")
        if alerts is not None:
            if not alerts:
                lines.append("  alerts          none")
            for s in alerts:
                burn = " ".join(f"{k}={v:.1f}" for k, v in
                                sorted(s.burn_rates.items()))
                lines.append(f"  ALERT {s.rule.name}: burn {burn}"
                             + (f" trace={s.exemplar_trace}"
                                if s.exemplar_trace else ""))
        return "\n".join(lines)


def _cmd_top(args) -> int:
    import time as _time

    from . import slo as slo_mod

    target = _resolved_obs_dir(args)
    state = _TopState(window_s=args.window)
    monitor = slo_mod.SLOMonitor(_load_slo_rules(args.slo_rules))
    # The tailer survives the journal being truncated or rotated
    # mid-watch (an operator resetting the obs dir): it restarts from
    # the top of the new file instead of stalling on a stale offset.
    tailer = obs.JournalTailer(target / "journal.ndjson")

    def frame() -> str:
        events = tailer.poll()
        for ev in events:
            state.apply(ev)
        monitor.feed(events)
        registry = obs.read_metrics(target)
        alerts = [s for s in monitor.evaluate(registry=registry) if not s.ok]
        return state.render(registry, now=_time.time(), alerts=alerts)

    if args.once:
        print(frame())
        return 0
    return _refresh(frame, args.interval)


def _cmd_trace(args) -> int:
    from . import tracequery as tq

    target = _resolved_obs_dir(args)
    # TraceQueryError is a ValueError: a missing/empty journal becomes
    # main()'s one-line error, never a traceback.
    traces = tq.build_traces(tq.load_events(target))
    if args.action == "show":
        if not args.trace_id:
            raise ValueError("'show' needs a trace ID (see `repro trace ls`)")
        print(tq.render_waterfall(tq.find_trace(traces, args.trace_id)))
        return 0
    selected = tq.filter_traces(traces, kind=args.kind, status=args.status,
                                limit=args.limit)
    if args.action == "critical-path":
        rows = tq.critical_path(selected)
        print(tq.render_critical_path(rows, len(selected)))
        return 0
    print(tq.render_trace_table(selected))
    return 0


def _cmd_slo(args) -> int:
    from . import slo as slo_mod
    from . import tracequery as tq

    target = _resolved_obs_dir(args)
    rules = _load_slo_rules(args.rules)
    if rules is None:
        rules = slo_mod.default_rules()

    def _check() -> tuple[str, bool]:
        try:
            events = tq.load_events(target)
        except tq.TraceQueryError:
            # SLOs must be checkable before the first traffic arrives
            # (a load balancer probing a fresh fleet): no journal just
            # means every journal-backed rule has no data yet.
            events = []
        statuses = slo_mod.evaluate_slos(
            rules, events=events, registry=obs.read_metrics(target))
        table = slo_mod.render_slo_table(statuses)
        return table, all(s.ok for s in statuses)

    if args.watch:
        return _refresh(lambda: _check()[0], args.interval)
    table, ok = _check()
    print(table)
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: parse ``argv`` and run the chosen subcommand.

    Args:
        argv: argument list (defaults to ``sys.argv[1:]``).

    Returns:
        Process exit status — 0 on success, 1 on a run with failed
        jobs or a closed stdout, 2 on usage/domain errors (which print
        to stderr).
    """
    args = build_parser().parse_args(argv)
    obs.configure(getattr(args, "obs_dir", None))
    try:
        status = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # The reader went away (`repro ... | head`): no error line.
        # Point stdout at devnull so the exit-time flush cannot raise
        # again (the Python docs' SIGPIPE recipe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        # Domain validation (slice counts, dataset geometry, an unusable
        # --cache-dir, ...) surfaces as a clean usage error; executor-level
        # job failures are already captured as structured records and
        # never reach here.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Persist this process's metric snapshot so `repro metrics` /
        # `repro top` in another terminal can merge it (no-op when the
        # observability directory is unset).  `serve` and `worker` write
        # it on their own way out (AsyncServer.aclose, worker_loop).
        if args.run not in (_cmd_serve, _cmd_worker):
            obs.flush_metrics()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
