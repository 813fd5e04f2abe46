"""Parallel simulation-orchestration runtime.

This subsystem turns the repository's single-shot simulations into
fan-out-able, memoised workloads.  The flow is a straight pipeline::

    JobSpec  ──▶  ResultStore  ──▶  Backend  ──▶  Sweep/aggregation
    (jobs.py)     (store.py)        (executor.py)  (sweep.py)

1. **Jobs** (:mod:`.jobs`).  A :class:`~repro.runtime.jobs.JobSpec`
   describes one unit of work — a design-space point, a Table I energy
   query, a Table II baseline comparison, or one hardware-in-the-loop
   sample inference — as a canonical JSON key hashing everything that
   determines the result: ``SNEConfig`` fields, compiled layer-program
   weights, event-stream content, dataset identity and seeds.  Equal
   hash ⇒ equal result, by construction.

2. **Store** (:mod:`.store`).
   :class:`~repro.runtime.store.ResultStore` stores one validated JSON
   envelope per job hash on disk.  Lookups that fail
   schema/kind/key/hash validation are treated as corruption: the
   entry is deleted and the job recomputed.  ``get`` answers with a
   ``cached=True`` :class:`~repro.runtime.backends.JobResult`;
   ``put(spec, result)`` stores only successes, and a write that fails
   returns False (one ``put_error``) instead of raising, so every
   caller — ``run_jobs``, the worker, the server — loses at most the
   cached copy.  Each lookup and write counts once in the
   ``repro_store_events_total`` counter of :mod:`.obs` (lifetime
   totals: ``repro metrics --obs-dir DIR``).  The store is built to be
   *shared*: content-addressed two-level layout (``ab/abcd….json``),
   each entry's mtime as its recency, and LRU eviction under a size cap, so
   concurrent sweeps, CI jobs and collaborators can reuse one
   directory safely.

3. **Backends** (:mod:`.backends`).  A registry of execution backends
   — in-process ``serial``, thread-pool ``thread`` for IO-bound jobs,
   ``multiprocessing`` ``process`` for CPU-bound sweeps — behind one
   contract: per-job timing, structured failure capture (a runner
   value that is not a JSON-serialisable ``dict`` fails too, in one
   place for every backend and plane), and results
   **in input order**, so every backend is bit-identical to serial
   (``tests/test_backend_parity.py`` enforces this differentially).
   :func:`~repro.runtime.backends.register_backend` adds new ones;
   :func:`~repro.runtime.executor.run_jobs` layers the store over a
   backend (instance or registered name) and returns a
   :class:`~repro.runtime.executor.RunReport` whose hit, computed and
   failure counts are derived from its ordered results.

4. **Sweeps** (:mod:`.sweep`).  :class:`~repro.runtime.sweep.SweepGrid`
   builds cartesian products over design axes (slice count, supply
   voltage, utilisation, …), compiles them to job lists, and aggregates
   results into :mod:`repro.analysis.tables`-compatible rows.

5. **Serving** (:mod:`.serve`, :mod:`.dispatch`).
   :class:`~repro.runtime.serve.AsyncServer` is the asyncio streaming
   front end: requests arrive one at a time, coalesce into
   micro-batches for up to a configurable window, and stream per-job
   results back as each completes.  Batches run through the
   :class:`~repro.runtime.dispatch.Dispatcher` seam — the single
   execution-plane API — so the server never knows whether the plane
   is in-process (:class:`~repro.runtime.dispatch.LocalDispatcher`
   over any registered backend) or a supervised worker fleet
   (:class:`~repro.runtime.dispatch.BrokerDispatcher`, which spools
   each batch as broker chunks and tails the result files without
   blocking the event loop).  Cache hits are answered straight from
   the store (async read-through); a versioned line-delimited JSON
   protocol over TCP or stdio (``repro serve``, v2 handshake with
   structured ``overloaded | bad_request | backend_error`` codes)
   exposes the payload-free job kinds to remote clients, with
   per-connection credit backpressure and ``--max-queue-depth``
   admission control.  The server's request counts, in-flight and
   queue-depth gauges and p50/p99 latency live in the :mod:`.obs`
   registry, which the ``stats`` op reads back.

:mod:`.progress` provides the callback protocol the executors report
through (:class:`~repro.runtime.progress.Progress` and the console
ticker :class:`~repro.runtime.progress.ConsoleProgress`);
:mod:`.profile` is the hot-path profiling
layer — :class:`~repro.runtime.profile.Profiler` spans threaded through
the SNE event loop and the hardware-in-the-loop runner, which
``repro profile`` collects in-process over the same stacked batches
the backends run;
:mod:`.cli` exposes the whole pipeline as
``python -m repro sweep|eval|profile|cache|serve|worker|supervise`` (also
installed as the ``repro`` console script), with ``--backend``
selecting any registered backend and ``repro cache stats|evict|clear``
administering the shared store.

:mod:`.dist` is the fleet layer: a :class:`~repro.runtime.dist.Broker`
leases hashed job chunks out of a durable spool directory (atomic
claim files, lease TTL + heartbeat, requeue on dead workers),
``repro worker`` agents pull and execute chunks through the same
runner registry, and :class:`~repro.runtime.dist.ClusterBackend`
(registered as ``cluster``) puts the whole queue behind the standard
backend contract — bit-identical ordered results, even across a
worker kill.  Dataset sharding
(:class:`repro.events.ShardedDataset`) splits big workloads into
hash-assigned shards whose job subtrees compose in one shared store.

:mod:`.supervisor` and :mod:`.chaos` make the fleet self-operating
and prove it: :class:`~repro.runtime.supervisor.Supervisor`
(``repro supervise``) is a control loop over spool signals — queue
depth, lease expirations, pending-chunk age — that starts, retires
and respawns worker agents between ``--min-workers`` and
``--max-workers`` (scale-up on sustained backlog, scale-down on idle,
bounded crash respawn with measured recovery latency) and garbage
-collects spool state abandoned past a TTL without ever touching a
live lease.  :class:`~repro.runtime.chaos.ChaosScheduler` +
:func:`~repro.runtime.chaos.run_chaos_soak` (``repro chaos-soak``)
drive that fleet under a seeded fault timeline — worker SIGKILLs,
in-place chunk/result corruption, forced store eviction — and assert
every round merges bit-identical to a serial run, the sustained
-traffic proof ``benchmarks/bench_chaos_soak.py`` gates in CI.

:mod:`.obs` is the observability core the whole stack reports into —
the one place the runtime records counters and latencies: a
process-wide :class:`~repro.runtime.obs.MetricsRegistry` of labeled
counters/gauges/histograms whose snapshots merge across processes, an
append-only NDJSON :class:`~repro.runtime.obs.Journal` of structured
events, and trace spans (:func:`~repro.runtime.obs.span`) whose IDs
propagate sweep → broker chunk → worker → store write-through → serve
response — surviving requeue-after-kill, so a chunk's retries share
one trace.  Enabled per process by ``--obs-dir``/``$REPRO_OBS_DIR``
and read back by ``repro metrics`` (JSON or Prometheus text), the
serving ``metrics`` op, and the ``repro top`` live fleet dashboard.

:mod:`.tracequery` and :mod:`.slo` are the read side of that
telemetry — the operator loop.  ``tracequery`` folds the journal back
into per-trace span trees: ``repro trace ls`` ranks the slowest/failed
traces, ``repro trace show`` renders one as a cross-process waterfall
with per-stage self-time (kill-requeued chunks list every worker
attempt under one span), ``repro trace critical-path`` aggregates
where the time goes.  Histogram buckets keep **exemplars** — the
trace ID of their slowest recent sample, merge-safe and rendered in
OpenMetrics syntax — so a bad p99 links straight to its waterfall.
``slo`` evaluates declarative rules (JSON/TOML: latency percentile or
error ratio, target, window) against journal + registry with
multi-window burn rates, surfaced as ``repro slo check [--watch]``,
the serve protocol's ``health`` op, supervisor ``slo.breach`` events
and the alerts panel in ``repro top``.
``docs/ARCHITECTURE.md`` maps the whole stack; ``docs/RUNTIME_API.md``
documents this package's public API surface.
"""

from .jobs import (
    CODECS,
    SCHEMA_VERSION,
    JobSpec,
    baseline_compare_job,
    calibration_fingerprint,
    canonical_json,
    deployment_fingerprint,
    dse_point_job,
    execute_job,
    inference_energy_job,
    register_runner,
    sample_eval_job,
    spec_from_doc,
    spec_to_doc,
)
from .backends import (
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    arun,
    available_backends,
    default_backend_name,
    make_backend,
    register_backend,
)
from .executor import JobResult, RunReport, run_jobs
from .store import (
    MAX_BYTES_ENV,
    ResultStore,
    default_cache_dir,
    default_max_bytes,
    open_store,
)
from .profile import Profiler, SpanStats, render_profile
from .progress import ConsoleProgress, Progress
from .dist import (
    Broker,
    ClusterBackend,
    DistError,
    claim_state,
    worker_loop,
)
from .supervisor import SpoolSnapshot, Supervisor
from .chaos import (
    ChaosScheduler,
    SoakReport,
    run_chaos_soak,
)
from .obs import (
    Journal,
    JournalTailer,
    MetricsRegistry,
    SpanContext,
    current_span,
    get_registry,
    read_journal,
    read_metrics,
    span,
)
from .obs import configure as configure_obs
from .tracequery import (
    SpanNode,
    Trace,
    TraceQueryError,
    build_traces,
    critical_path,
    filter_traces,
    find_trace,
    load_events,
    render_waterfall,
)
from .slo import (
    SLOMonitor,
    SLORule,
    SLOStatus,
    default_rules,
    evaluate_slos,
    load_rules,
)
from .dispatch import (
    BrokerDispatcher,
    Dispatcher,
    LocalDispatcher,
)
from .serve import (
    PROTO_VERSION,
    WIRE_KINDS,
    AsyncServer,
    ServerOverloadedError,
    request_to_spec,
    serve_stdio,
    serve_tcp,
)
from .sweep import (
    DSE_HEADERS,
    SweepAxis,
    SweepGrid,
    SweepReport,
    dse_grid,
    dse_jobs,
    run_dse_sweep,
)

__all__ = [
    "SCHEMA_VERSION",
    "JobSpec",
    "canonical_json",
    "dse_point_job",
    "inference_energy_job",
    "baseline_compare_job",
    "sample_eval_job",
    "calibration_fingerprint",
    "deployment_fingerprint",
    "execute_job",
    "register_runner",
    "default_cache_dir",
    "ResultStore",
    "open_store",
    "default_max_bytes",
    "MAX_BYTES_ENV",
    "Backend",
    "register_backend",
    "make_backend",
    "available_backends",
    "default_backend_name",
    "arun",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "JobResult",
    "RunReport",
    "run_jobs",
    "Progress",
    "ConsoleProgress",
    "Profiler",
    "SpanStats",
    "render_profile",
    "AsyncServer",
    "ServerOverloadedError",
    "PROTO_VERSION",
    "Dispatcher",
    "LocalDispatcher",
    "BrokerDispatcher",
    "WIRE_KINDS",
    "request_to_spec",
    "serve_tcp",
    "serve_stdio",
    "SweepAxis",
    "SweepGrid",
    "SweepReport",
    "dse_grid",
    "dse_jobs",
    "run_dse_sweep",
    "DSE_HEADERS",
    "spec_to_doc",
    "spec_from_doc",
    "CODECS",
    "Broker",
    "ClusterBackend",
    "DistError",
    "claim_state",
    "worker_loop",
    "Supervisor",
    "SpoolSnapshot",
    "ChaosScheduler",
    "SoakReport",
    "run_chaos_soak",
    "MetricsRegistry",
    "Journal",
    "JournalTailer",
    "SpanContext",
    "span",
    "current_span",
    "get_registry",
    "configure_obs",
    "read_journal",
    "read_metrics",
    "TraceQueryError",
    "SpanNode",
    "Trace",
    "load_events",
    "build_traces",
    "filter_traces",
    "find_trace",
    "critical_path",
    "render_waterfall",
    "SLORule",
    "SLOStatus",
    "SLOMonitor",
    "load_rules",
    "default_rules",
    "evaluate_slos",
]
