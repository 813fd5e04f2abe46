"""Unified observability: metrics registry, trace context, event journal.

This is the one place the runtime records counters and latencies: the
serving front end, the broker, the supervisor, the result store and the
executors all write to the process-wide registry and journal below, and
``repro top``, the serve ``stats`` op, ``repro trace`` and ``repro slo``
all read them back.  (:class:`~repro.runtime.profile.Profiler` stage
timings of the cycle model are the one separate per-job record.)

* :class:`MetricsRegistry` — process-wide named counters, gauges and
  bounded-bucket histograms.  Series are labeled, snapshots are plain
  JSON, and snapshots from different processes (cluster workers, the
  broker, a serving front end) **merge** into one fleet-wide view.
  :meth:`MetricsRegistry.render_prometheus` emits the Prometheus text
  exposition format consumed by the ``{"op": "metrics"}`` serve op and
  ``repro metrics --prom``.
* A **trace context** (:class:`SpanContext` + :func:`span` /
  :func:`activate`) carried in a :mod:`contextvars` variable so spans
  propagate sweep → backend → broker chunk → worker → store
  write-through → serve response.  The broker embeds the chunk's trace
  in the spool document, so a chunk requeued after a worker SIGKILL
  keeps the same trace and span IDs across attempts.
* :class:`Journal` — a structured NDJSON event log.  Each event is one
  whole-line ``O_APPEND`` write, so concurrent writers (broker plus
  local workers) interleave without tearing lines.  ``repro top`` tails
  it to render the live fleet dashboard, and
  :mod:`~repro.runtime.tracequery` reconstructs per-trace span trees
  from it.
* **Exemplars** — each histogram bucket retains the trace ID and value
  of its slowest recent sample (one per bucket per series, replaced on
  a slower sample or after :data:`EXEMPLAR_TTL_S`), captured
  automatically from the ambient span at :meth:`Histogram.observe`
  time.  Exemplars survive snapshot/merge (the larger value wins) and
  render in the OpenMetrics exemplar syntax, so a bad ``p99`` in
  ``repro metrics --prom`` links straight to ``repro trace show``.

Observability is **off by default** and costs a dict lookup per call
site when off.  Enable it by exporting ``$REPRO_OBS_DIR`` or passing
``--obs-dir`` to the CLI; :func:`configure` wires the journal to
``<obs_dir>/journal.ndjson`` and :func:`flush_metrics` snapshots the
registry to ``<obs_dir>/metrics/<proc>.json`` (one file per process —
idempotent overwrite, no cross-process locking), which
:func:`read_metrics` merges back into a single registry.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "OBS_SCHEMA",
    "OBS_DIR_ENV",
    "DEFAULT_BUCKETS",
    "EXEMPLAR_TTL_S",
    "quantile_from_counts",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Journal",
    "SpanContext",
    "current_span",
    "span",
    "activate",
    "new_id",
    "configure",
    "obs_dir",
    "get_registry",
    "set_registry",
    "get_journal",
    "emit",
    "flush_metrics",
    "read_metrics",
    "read_journal",
    "JournalTailer",
]

#: Version stamped into metrics snapshots and journal events so later
#: readers can detect (and refuse) incompatible layouts.
OBS_SCHEMA = 1

#: Environment variable naming the observability directory; setting it
#: enables the journal and metric flushes for every repro process that
#: inherits the environment (including spawned cluster workers).
OBS_DIR_ENV = "REPRO_OBS_DIR"

#: Default histogram bucket upper bounds (seconds), Prometheus-style:
#: sub-millisecond store I/O up through multi-second chunk executions.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Stable per-process identity used in journal events and metric
#: snapshot file names: ``<host>-<pid>-<nonce>``.  The nonce keeps a
#: recycled PID from overwriting a dead process's snapshot.
PROC_ID = f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"

#: An exemplar older than this is replaced by *any* fresh traced sample
#: in its bucket, even a faster one — "slowest recent", not "slowest
#: ever", so a long-running server's exemplars stay actionable.
EXEMPLAR_TTL_S = 600.0


def quantile_from_counts(buckets, counts, count: int, q: float):
    """Nearest-rank quantile over cumulative histogram buckets.

    The one quantile implementation shared by
    :meth:`Histogram.percentile` and the CLI's fleet-wide summary, so
    their answers can never drift apart.

    Args:
        buckets: sorted finite bucket upper bounds (seconds).
        counts: per-bucket (non-cumulative) sample counts, same length.
        count: total samples including the implicit ``+Inf`` overflow
            bucket (``count >= sum(counts)``).
        q: percentile in ``[0, 100]``.

    Returns:
        ``(bound, overflow)`` — the upper bound of the bucket holding
        the nearest-rank sample, and whether that rank landed in the
        ``+Inf`` overflow bucket (in which case ``bound`` is the top
        finite bound and the true quantile is *greater* than it).
        ``(0.0, False)`` when empty.

    Raises:
        ValueError: ``q`` outside ``[0, 100]``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if count <= 0:
        return 0.0, False
    rank = max(1, math.ceil(q / 100.0 * count))
    seen = 0
    for bound, c in zip(buckets, counts):
        seen += c
        if seen >= rank:
            return bound, False
    return buckets[-1], True


def new_id() -> str:
    """A fresh 16-hex-digit trace/span identifier (64 random bits)."""
    return os.urandom(8).hex()


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label dict (sorted key/value pairs).

    Every metric update pays for this, so the usual zero, one and two
    labels skip the generator and ``sorted``; the keys are the same.
    """
    n = len(labels)
    if n == 0:
        return ()
    if n == 1:
        [(k, v)] = labels.items()
        return ((str(k), str(v)),)
    if n == 2:
        (k1, v1), (k2, v2) = labels.items()
        a, b = (str(k1), str(v1)), (str(k2), str(v2))
        return (a, b) if a <= b else (b, a)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing metric, optionally labeled.

    One :class:`Counter` object holds every label combination (series)
    observed under its name; unlabeled use is just the empty label set.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        """Create the counter; use :meth:`MetricsRegistry.counter` instead."""
        self.name = name
        self.help = help
        self._series: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the series named by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value of one series (0.0 if never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._series.values())

    def _snapshot_series(self) -> list[dict]:
        """Serializable per-series records for :meth:`MetricsRegistry.snapshot`."""
        with self._lock:
            return [{"labels": dict(k), "value": v}
                    for k, v in sorted(self._series.items())]

    def _merge_series(self, series: list[dict]) -> None:
        """Fold snapshot series from another process into this counter."""
        with self._lock:
            for rec in series:
                key = _label_key(rec.get("labels", {}))
                self._series[key] = self._series.get(key, 0.0) + float(rec["value"])


class Gauge(Counter):
    """A point-in-time level (queue depth, in-flight requests).

    Merging sums series across processes — the fleet-wide queue depth
    is the sum of each worker's local depth.  Use :meth:`set` for
    levels and :meth:`add` for deltas (which may be negative).
    """

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Gauges accept any delta; alias of :meth:`add`."""
        self.add(amount, **labels)

    def add(self, amount: float, **labels) -> None:
        """Add ``amount`` (may be negative) to one series."""
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set(self, value: float, **labels) -> None:
        """Set one series to an absolute level."""
        with self._lock:
            self._series[_label_key(labels)] = float(value)


class Histogram:
    """A bounded-bucket distribution (Prometheus cumulative style).

    Bucket upper bounds are fixed at registration, so histograms from
    different processes merge by summing counts bucket-for-bucket.
    Each labeled series tracks per-bucket counts plus ``sum``/``count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Create the histogram; use :meth:`MetricsRegistry.histogram` instead."""
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._series: dict[tuple, dict] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        """Record one sample into the series named by ``labels``.

        When an ambient span is active, the sample's bucket retains a
        ``{trace_id, value, ts}`` exemplar — replaced by a slower
        sample, or by any traced sample once :data:`EXEMPLAR_TTL_S` has
        passed — so a surprising bucket links back to one trace.
        """
        key = _label_key(labels)
        ctx = _SPAN.get()
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"counts": [0] * len(self.buckets), "sum": 0.0,
                          "count": 0, "exemplars": {}}
                self._series[key] = series
            bucket = len(self.buckets)  # the implicit +Inf overflow bucket
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][i] += 1
                    bucket = i
                    break
            series["sum"] += value
            series["count"] += 1
            if ctx is not None:
                now = time.time()
                ex = series["exemplars"].get(bucket)
                if (ex is None or value >= ex["value"]
                        or now - ex["ts"] > EXEMPLAR_TTL_S):
                    series["exemplars"][bucket] = {
                        "trace_id": ctx.trace_id, "value": value, "ts": now}

    def count(self, **labels) -> int:
        """Total samples observed by one series."""
        series = self._series.get(_label_key(labels))
        return series["count"] if series else 0

    def percentile(self, q: float, **labels) -> tuple[float, bool]:
        """Bucket-resolution ``q``-th percentile with an overflow flag.

        Returns ``(bound, overflow)`` via :func:`quantile_from_counts`:
        ``overflow`` is True when the nearest-rank sample landed in the
        ``+Inf`` bucket, meaning the true percentile is *greater than*
        the returned top finite bound.  ``(0.0, False)`` when empty.
        """
        series = self._series.get(_label_key(labels))
        if not series or not series["count"]:
            if not 0.0 <= q <= 100.0:
                raise ValueError(f"percentile must be in [0, 100], got {q}")
            return 0.0, False
        return quantile_from_counts(self.buckets, series["counts"],
                                    series["count"], q)

    def quantile(self, q: float, **labels) -> float:
        """Bucket-resolution estimate of the ``q``-th percentile (0-100).

        Returns the upper bound of the bucket holding the nearest-rank
        sample (the largest bound for overflow samples); 0.0 when empty.
        Use :meth:`percentile` when the overflow distinction matters.
        """
        bound, _ = self.percentile(q, **labels)
        return bound

    def exemplar(self, bucket: int, **labels) -> dict | None:
        """The retained exemplar of one bucket (index into
        :attr:`buckets`; ``len(buckets)`` is the ``+Inf`` overflow
        bucket), or ``None``."""
        series = self._series.get(_label_key(labels))
        if not series:
            return None
        ex = series.get("exemplars", {}).get(bucket)
        return dict(ex) if ex else None

    def worst_exemplar(self, **labels) -> dict | None:
        """The exemplar from the highest occupied bucket of one series
        — the trace behind the slowest recent sample — or ``None``."""
        series = self._series.get(_label_key(labels))
        exemplars = series.get("exemplars", {}) if series else {}
        if not exemplars:
            return None
        return dict(exemplars[max(exemplars)])

    def _snapshot_series(self) -> list[dict]:
        """Serializable per-series records for :meth:`MetricsRegistry.snapshot`."""
        with self._lock:
            out = []
            for k, s in sorted(self._series.items()):
                rec = {"labels": dict(k), "counts": list(s["counts"]),
                       "sum": s["sum"], "count": s["count"]}
                if s.get("exemplars"):
                    # JSON object keys are strings; _merge_series maps
                    # them back to int bucket indices.
                    rec["exemplars"] = {
                        str(i): dict(ex) for i, ex in sorted(s["exemplars"].items())}
                out.append(rec)
            return out

    def _merge_series(self, series: list[dict]) -> None:
        """Fold snapshot series from another process into this histogram."""
        with self._lock:
            for rec in series:
                key = _label_key(rec.get("labels", {}))
                mine = self._series.get(key)
                if mine is None:
                    mine = {"counts": [0] * len(self.buckets), "sum": 0.0,
                            "count": 0, "exemplars": {}}
                    self._series[key] = mine
                counts = rec.get("counts", [])
                if len(counts) != len(self.buckets):
                    raise ValueError(
                        f"histogram {self.name}: bucket layout mismatch "
                        f"({len(counts)} != {len(self.buckets)})")
                for i, c in enumerate(counts):
                    mine["counts"][i] += int(c)
                mine["sum"] += float(rec.get("sum", 0.0))
                mine["count"] += int(rec.get("count", 0))
                for raw, ex in (rec.get("exemplars") or {}).items():
                    try:
                        bucket = int(raw)
                        value = float(ex["value"])
                    except (KeyError, TypeError, ValueError):
                        continue  # a foreign writer's malformed exemplar
                    cur = mine.setdefault("exemplars", {}).get(bucket)
                    if cur is None or value > cur["value"] or (
                            value == cur["value"]
                            and float(ex.get("ts", 0.0)) > cur["ts"]):
                        mine["exemplars"][bucket] = {
                            "trace_id": str(ex.get("trace_id", "")),
                            "value": value, "ts": float(ex.get("ts", 0.0))}


def _escape_label(value: str) -> str:
    """Escape a label value for the Prometheus text exposition format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: dict, extra: str = "") -> str:
    """Render ``{k="v",...}`` (plus an optional pre-rendered pair)."""
    pairs = [f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _render_exemplar(ex: dict | None) -> str:
    """The OpenMetrics exemplar suffix of one bucket line ("" if none)."""
    if not ex:
        return ""
    trace = _escape_label(str(ex.get("trace_id", "")))
    return (f' # {{trace_id="{trace}"}} {float(ex["value"]):g}'
            f' {float(ex.get("ts", 0.0)):.3f}')


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    The process-wide instance (:func:`get_registry`) is what the
    runtime's instrumentation points write to; tests and tools can
    build private registries.  Snapshots are JSON dicts that
    :meth:`merge` folds back in, so one registry can aggregate a whole
    fleet (broker + N workers + serving front end).
    """

    def __init__(self) -> None:
        """Start with no metrics registered."""
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help: str, **kwargs):
        """Get-or-create a metric, enforcing kind consistency per name."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls) or metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name} already registered as {metric.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or register the counter called ``name``."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or register the gauge called ``name``."""
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        """Get or register the histogram called ``name``."""
        return self._get(Histogram, name, help, buckets=buckets)

    def names(self) -> list[str]:
        """Sorted names of every registered metric."""
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """The registry as a schema-stamped, JSON-serializable dict."""
        metrics = {}
        for name in self.names():
            metric = self._metrics[name]
            doc = {"kind": metric.kind, "help": metric.help,
                   "series": metric._snapshot_series()}
            if isinstance(metric, Histogram):
                doc["buckets"] = list(metric.buckets)
            metrics[name] = doc
        return {"schema": OBS_SCHEMA, "proc": PROC_ID, "ts": time.time(),
                "metrics": metrics}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict (possibly from another process)
        into this registry, summing counters/gauges and histogram
        buckets series-by-series.

        Raises ``ValueError`` on schema or metric-kind mismatches.
        """
        if snapshot.get("schema", OBS_SCHEMA) != OBS_SCHEMA:
            raise ValueError(
                f"metrics snapshot schema {snapshot.get('schema')} != {OBS_SCHEMA}")
        for name, doc in snapshot.get("metrics", {}).items():
            kind = doc.get("kind", "counter")
            if kind == "counter":
                metric = self.counter(name, doc.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, doc.get("help", ""))
            elif kind == "histogram":
                bounds = tuple(float(b) for b in
                               doc.get("buckets", DEFAULT_BUCKETS))
                metric = self.histogram(name, doc.get("help", ""),
                                        buckets=bounds)
                if metric.buckets != bounds:
                    raise ValueError(
                        f"histogram {name}: bucket bounds mismatch "
                        f"({bounds} != {metric.buckets})")
            else:
                raise ValueError(f"metric {name}: unknown kind {kind!r}")
            metric._merge_series(doc.get("series", []))

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4).

        Histogram bucket lines carry their retained exemplar in the
        OpenMetrics exemplar syntax (``... # {trace_id="…"} value ts``)
        when one exists, so a scrape links slow buckets to traces.
        """
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for rec in metric._snapshot_series():
                labels = rec["labels"]
                if isinstance(metric, Histogram):
                    exemplars = rec.get("exemplars", {})
                    cumulative = 0
                    for i, (bound, count) in enumerate(
                            zip(metric.buckets, rec["counts"])):
                        cumulative += count
                        le = 'le="%g"' % bound
                        lines.append(
                            f"{name}_bucket{_render_labels(labels, le)} "
                            f"{cumulative}"
                            + _render_exemplar(exemplars.get(str(i))))
                    inf = 'le="+Inf"'
                    lines.append(
                        f"{name}_bucket{_render_labels(labels, inf)} {rec['count']}"
                        + _render_exemplar(
                            exemplars.get(str(len(metric.buckets)))))
                    lines.append(f"{name}_sum{_render_labels(labels)} {rec['sum']:g}")
                    lines.append(f"{name}_count{_render_labels(labels)} {rec['count']}")
                else:
                    lines.append(f"{name}{_render_labels(labels)} {rec['value']:g}")
        return "\n".join(lines) + ("\n" if lines else "")


# -- trace context ----------------------------------------------------------


@dataclass(frozen=True)
class SpanContext:
    """One node of a trace: ``trace_id`` groups every span of a logical
    run, ``span_id`` names this operation, ``parent_id`` links upward."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def to_doc(self) -> dict:
        """Wire form embedded in spool chunk documents."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_doc(cls, doc: dict | None) -> SpanContext | None:
        """Rebuild from :meth:`to_doc` output (``None`` passes through)."""
        if not doc or "trace_id" not in doc:
            return None
        return cls(trace_id=doc["trace_id"], span_id=doc.get("span_id") or new_id(),
                   parent_id=doc.get("parent_id"))


_SPAN: contextvars.ContextVar[SpanContext | None] = contextvars.ContextVar(
    "repro_obs_span", default=None)


def current_span() -> SpanContext | None:
    """The ambient :class:`SpanContext`, or ``None`` outside any span."""
    return _SPAN.get()


@contextlib.contextmanager
def activate(ctx: SpanContext | None):
    """Make a deserialized ``ctx`` the ambient span for the ``with`` body.

    Workers use this to adopt the trace the broker embedded in a chunk
    document, so store writes and nested spans inherit the chunk's
    trace.  ``None`` is a no-op (keeps whatever context is ambient).
    """
    if ctx is None:
        yield None
        return
    token = _SPAN.set(ctx)
    try:
        yield ctx
    finally:
        _SPAN.reset(token)


@contextlib.contextmanager
def span(name: str, trace_id: str | None = None, span_id: str | None = None,
         **attrs):
    """Run the ``with`` body inside a child span of the ambient context.

    A new trace starts when there is no ambient span and no explicit
    ``trace_id``.  On exit one ``name`` event is journaled (when the
    journal is configured) carrying the span/trace IDs, the wall-clock
    ``duration_s``, ``status`` (``"ok"`` or the exception type name),
    and any ``attrs``.  Yields the :class:`SpanContext` either way, so
    callers can attach trace IDs to responses even with the journal off.
    """
    parent = _SPAN.get()
    ctx = SpanContext(
        trace_id=trace_id or (parent.trace_id if parent else new_id()),
        span_id=span_id or new_id(),
        parent_id=parent.span_id if parent else None,
    )
    token = _SPAN.set(ctx)
    start = time.perf_counter()
    status = "ok"
    try:
        yield ctx
    except BaseException as exc:
        status = type(exc).__name__
        raise
    finally:
        _SPAN.reset(token)
        journal = get_journal()
        if journal is not None:
            journal.emit(name, ctx=ctx, status=status,
                         duration_s=time.perf_counter() - start, **attrs)


# -- journal ----------------------------------------------------------------


class Journal:
    """Append-only NDJSON event log safe for concurrent writers.

    Every event is serialized to one line and written with a single
    ``write()`` on an ``O_APPEND`` descriptor, so lines from the broker
    and from worker processes interleave whole — never torn — and
    ``repro top`` can tail the file while a sweep is running.  Events
    carry a per-process monotonic ``seq`` so a reader can totally order
    one writer's events even when timestamps collide.
    """

    def __init__(self, path: str | Path) -> None:
        """Open (creating if needed) the journal at ``path``."""
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(str(self.path),
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, name: str, ctx: SpanContext | None = None, **attrs) -> dict:
        """Append one event; returns the record written.

        ``ctx`` defaults to the ambient span, so events inherit trace
        lineage automatically; explicit ``trace_id``/``span_id`` keys in
        ``attrs`` would be overwritten by the context's.
        """
        ctx = ctx if ctx is not None else _SPAN.get()
        with self._lock:
            self._seq += 1
            seq = self._seq
        rec = {"ts": time.time(), "seq": seq, "proc": PROC_ID, "event": name}
        if ctx is not None:
            rec["trace_id"] = ctx.trace_id
            rec["span_id"] = ctx.span_id
            if ctx.parent_id:
                rec["parent_id"] = ctx.parent_id
        rec.update(attrs)
        line = json.dumps(rec, default=str) + "\n"
        os.write(self._fd, line.encode())
        return rec

    def emit_record(self, rec: dict) -> None:
        """Append a pre-built record verbatim: no ``seq``, timestamp or
        trace fields are added (replayed or synthetic event streams)."""
        os.write(self._fd, (json.dumps(rec, default=str) + "\n").encode())

    def close(self) -> None:
        """Close the underlying descriptor (idempotent)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def read_journal(path: str | Path) -> list[dict]:
    """Parse every well-formed event line of a journal file, in file
    order; skips lines still being written (partial JSON) and returns
    ``[]`` for a missing file."""
    path = Path(path)
    if not path.exists():
        return []
    events = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events


class JournalTailer:
    """Incremental journal reader that survives truncation and rotation.

    ``repro top`` and the fleet supervisor tail a journal that another
    process owns; that file can be truncated (an operator resetting the
    obs dir) or rotated (replaced by a fresh file at the same path) at
    any moment.  A naive byte-offset tail stalls forever after either —
    the remembered offset points past the new end of file.  This tailer
    notices both (size shrank below the offset, or the inode changed)
    and restarts from the top of the new file, so at most the events of
    the vanished generation are lost — never the stream itself.
    """

    def __init__(self, path: str | Path) -> None:
        """Tail the journal at ``path`` (the file may not exist yet)."""
        self.path = Path(path)
        self._ino: int | None = None
        self._offset = 0
        self._buffer = b""
        #: Generations observed: bumps by one every time a truncation
        #: or rotation forced a restart from offset zero.
        self.resets = 0

    def _restart(self) -> None:
        self._offset = 0
        self._buffer = b""
        self.resets += 1

    def poll(self) -> list[dict]:
        """Read newly appended events since the last poll.

        Returns the well-formed JSON events (torn or foreign lines are
        skipped); a missing file reads as no events and resets state so
        a recreated journal is picked up from its beginning.
        """
        try:
            st = os.stat(self.path)
        except OSError:
            if self._ino is not None:
                self._ino = None
                self._restart()
            return []
        if self._ino is not None and (st.st_ino != self._ino
                                      or st.st_size < self._offset):
            self._restart()
        self._ino = st.st_ino
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except OSError:
            return []
        self._offset += len(data)
        self._buffer += data
        events = []
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
        return events


# -- process-wide state -----------------------------------------------------

_REGISTRY = MetricsRegistry()
_STATE: dict = {"configured": False, "obs_dir": None, "journal": None}
_STATE_LOCK = threading.Lock()


def _after_fork_in_child() -> None:
    """Reset per-process identity after ``fork()``.

    Forked workers (the cluster backend's default start method on
    Linux) inherit the parent's ``PROC_ID``, registry contents, journal
    sequence counter and locks.  Without a reset the child would flush
    its snapshot over the parent's file and re-report counts the parent
    already owns.  The journal's ``O_APPEND`` descriptor is kept —
    whole-line appends from both processes interleave safely.
    """
    global PROC_ID, _REGISTRY, _STATE_LOCK
    PROC_ID = f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    _REGISTRY = MetricsRegistry()
    _STATE_LOCK = threading.Lock()
    journal = _STATE["journal"]
    if journal is not None:
        journal._seq = 0  # the new PROC_ID scopes a fresh sequence
        journal._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_after_fork_in_child)


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumentation point writes to."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry (tests); returns the old one."""
    global _REGISTRY
    old, _REGISTRY = _REGISTRY, registry
    return old


def configure(obs_dir: str | Path | None | bool = None) -> Path | None:
    """(Re)configure observability for this process.

    ``obs_dir`` may be a path (enable there), ``None`` (consult
    ``$REPRO_OBS_DIR``, else disable), or ``False`` (force-disable even
    when the environment variable is set).  Returns the active
    directory, or ``None`` when disabled.  Safe to call repeatedly.
    """
    with _STATE_LOCK:
        if obs_dir is False:
            target = None
        elif obs_dir is None:
            env = os.environ.get(OBS_DIR_ENV, "").strip()
            target = Path(env) if env else None
        else:
            target = Path(obs_dir)
        old_journal = _STATE["journal"]
        if old_journal is not None and (
                target is None or Path(old_journal.path).parent != target):
            old_journal.close()
            _STATE["journal"] = None
        _STATE["obs_dir"] = target
        _STATE["configured"] = True
        if target is not None and _STATE["journal"] is None:
            target.mkdir(parents=True, exist_ok=True)
            _STATE["journal"] = Journal(target / "journal.ndjson")
        return target


def obs_dir() -> Path | None:
    """The active observability directory (auto-configures from the
    environment on first use), or ``None`` when observability is off."""
    if not _STATE["configured"]:
        configure(None)
    return _STATE["obs_dir"]


def get_journal() -> Journal | None:
    """The process journal, or ``None`` when observability is off."""
    if not _STATE["configured"]:
        configure(None)
    return _STATE["journal"]


def emit(name: str, ctx: SpanContext | None = None, **attrs) -> dict | None:
    """Journal one event if observability is on; cheap no-op otherwise."""
    journal = get_journal()
    if journal is None:
        return None
    return journal.emit(name, ctx=ctx, **attrs)


def flush_metrics(directory: str | Path | None = None) -> Path | None:
    """Write this process's registry snapshot to
    ``<obs_dir>/metrics/<proc>.json`` (atomic replace; one file per
    process, so no cross-process locking is needed).  Returns the path
    written, or ``None`` when observability is off or the registry is
    empty."""
    target = Path(directory) if directory is not None else obs_dir()
    if target is None:
        return None
    snapshot = _REGISTRY.snapshot()
    if not snapshot["metrics"]:
        return None
    metrics_dir = target / "metrics"
    metrics_dir.mkdir(parents=True, exist_ok=True)
    path = metrics_dir / f"{PROC_ID}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(snapshot, sort_keys=True))
    os.replace(tmp, path)
    return path


def read_metrics(directory: str | Path | None = None) -> MetricsRegistry:
    """Merge every per-process snapshot under ``<obs_dir>/metrics/``
    into a fresh registry (fleet-wide view).  Unreadable or
    schema-incompatible files are skipped, so a crashed writer cannot
    break ``repro metrics``."""
    registry = MetricsRegistry()
    target = Path(directory) if directory is not None else obs_dir()
    if target is None:
        return registry
    metrics_dir = target / "metrics"
    if not metrics_dir.is_dir():
        return registry
    for path in sorted(metrics_dir.glob("*.json")):
        try:
            registry.merge(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue
    return registry
