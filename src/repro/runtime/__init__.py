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
   concurrent sweeps, servers, workers and CI jobs of one user can
   reuse one directory safely (entries are created 0600).

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
   micro-batches (closed by the rule in docs/ARCHITECTURE.md,
   "Micro-batching"), and stream per-job results back as each
   completes.  Batches run through the
   :class:`~repro.runtime.dispatch.Dispatcher` seam — the single
   execution-plane API — so the server never knows whether the plane
   is in-process (:class:`~repro.runtime.dispatch.LocalDispatcher`
   over any registered backend) or a supervised worker fleet
   (:class:`~repro.runtime.dispatch.BrokerDispatcher`, which spools
   each batch as broker chunks and tails the result files without
   blocking the event loop).  Cache hits are answered straight from
   the store (read inline on the event loop); a versioned
   line-delimited JSON protocol over TCP or stdio (``repro serve``, v2
   handshake with structured ``overloaded | bad_request |
   backend_error`` codes) exposes the payload-free job kinds to remote
   clients, with
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

from .._lazy import lazy_exports

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "SCHEMA_VERSION": "jobs",
    "JobSpec": "jobs",
    "canonical_json": "jobs",
    "dse_point_job": "jobs",
    "inference_energy_job": "jobs",
    "baseline_compare_job": "jobs",
    "sample_eval_job": "jobs",
    "calibration_fingerprint": "jobs",
    "deployment_fingerprint": "jobs",
    "execute_job": "jobs",
    "register_runner": "jobs",
    "default_cache_dir": "store",
    "ResultStore": "store",
    "open_store": "store",
    "default_max_bytes": "store",
    "MAX_BYTES_ENV": "store",
    "Backend": "backends",
    "register_backend": "backends",
    "make_backend": "backends",
    "available_backends": "backends",
    "default_backend_name": "backends",
    "arun": "backends",
    "SerialBackend": "backends",
    "ThreadBackend": "backends",
    "ProcessBackend": "backends",
    "JobResult": "executor",
    "RunReport": "executor",
    "run_jobs": "executor",
    "Progress": "progress",
    "ConsoleProgress": "progress",
    "Profiler": "profile",
    "SpanStats": "profile",
    "render_profile": "profile",
    "AsyncServer": "serve",
    "ServerOverloadedError": "serve",
    "PROTO_VERSION": "serve",
    "Dispatcher": "dispatch",
    "LocalDispatcher": "dispatch",
    "BrokerDispatcher": "dispatch",
    "WIRE_KINDS": "serve",
    "request_to_spec": "serve",
    "serve_tcp": "serve",
    "serve_stdio": "serve",
    "SweepAxis": "sweep",
    "SweepGrid": "sweep",
    "SweepReport": "sweep",
    "dse_grid": "sweep",
    "dse_jobs": "sweep",
    "run_dse_sweep": "sweep",
    "DSE_HEADERS": "sweep",
    "spec_to_doc": "jobs",
    "spec_from_doc": "jobs",
    "CODECS": "jobs",
    "Broker": "dist",
    "ClusterBackend": "dist",
    "DistError": "dist",
    "claim_state": "dist",
    "worker_loop": "dist",
    "Supervisor": "supervisor",
    "SpoolSnapshot": "supervisor",
    "ChaosScheduler": "chaos",
    "SoakReport": "chaos",
    "run_chaos_soak": "chaos",
    "MetricsRegistry": "obs",
    "Journal": "obs",
    "JournalTailer": "obs",
    "SpanContext": "obs",
    "span": "obs",
    "current_span": "obs",
    "get_registry": "obs",
    "configure_obs": "obs:configure",
    "read_journal": "obs",
    "read_metrics": "obs",
    "TraceQueryError": "tracequery",
    "SpanNode": "tracequery",
    "Trace": "tracequery",
    "load_events": "tracequery",
    "build_traces": "tracequery",
    "filter_traces": "tracequery",
    "find_trace": "tracequery",
    "critical_path": "tracequery",
    "render_waterfall": "tracequery",
    "SLORule": "slo",
    "SLOStatus": "slo",
    "SLOMonitor": "slo",
    "load_rules": "slo",
    "default_rules": "slo",
    "evaluate_slos": "slo",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
