"""Job specifications: hashable units of simulation work.

A :class:`JobSpec` names one unit of work — a design-space point, a
Table I energy query, a Table II baseline comparison, or one
hardware-in-the-loop sample evaluation — through a *canonical key*: a
sorted-key JSON document derived from everything that determines the
result (``SNEConfig`` fields, layer-program weights, event-stream
content, dataset identity, seeds).  The SHA-256 of that key is the
job's identity for the on-disk result store
(:mod:`repro.runtime.store`): two specs with the same hash are
guaranteed to compute the same value, so a cached result can be reused
across runs and processes.

Heavyweight in-memory objects (compiled programs, event streams) ride
along in ``JobSpec.payload``; the payload is *excluded* from hashing
and equality — only content digests of it enter the key — so a spec
stays cheap to compare while remaining executable in a worker process.

:func:`execute_job` dispatches a spec to its registered runner and
returns a JSON-serialisable result dict, which is what the executors
ship back from workers and the cache persists.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import functools
import hashlib
import importlib
import json
import marshal
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..hw.config import SNEConfig

__all__ = [
    "SCHEMA_VERSION",
    "CODECS",
    "JobSpec",
    "canonical_json",
    "calibration_fingerprint",
    "dse_point_job",
    "inference_energy_job",
    "baseline_compare_job",
    "sample_eval_job",
    "deployment_fingerprint",
    "execute_job",
    "execute_sample_batch",
    "batch_signature",
    "register_runner",
    "spec_to_doc",
    "spec_from_doc",
]

#: Bumped whenever a runner's result layout changes; part of every job
#: hash, so stale cache entries from an older schema can never be hit.
SCHEMA_VERSION = 1


def _jsonable(obj: Any) -> Any:
    """Reduce ``obj`` to plain JSON types, deterministically."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):  # np.float64 is a float subclass
        return float(obj) if obj == obj else "nan"
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for a job key")


def canonical_json(obj: Any) -> str:
    """Sorted-key, separator-free JSON: the stable identity encoding."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def _digest_array(a: np.ndarray) -> str:
    """Content digest of an array (dtype + shape + bytes)."""
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class JobSpec:
    """One hashable unit of work.

    ``kind`` selects the registered runner; ``key`` is the canonical
    JSON identity document; ``payload`` optionally carries live objects
    the runner needs (never hashed, never compared, never cached).
    """

    kind: str
    key: str
    payload: Any = field(default=None, compare=False, repr=False)
    #: Stable SHA-256 identity: schema version + kind + key.  Computed
    #: once, at construction; a store hit reads it several times.
    job_hash: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        material = f"v{SCHEMA_VERSION}:{self.kind}:{self.key}"
        object.__setattr__(
            self, "job_hash", hashlib.sha256(material.encode()).hexdigest())

    @property
    def params(self) -> dict:
        """The decoded key document."""
        return json.loads(self.key)


#: The spec-document codecs :func:`spec_to_doc` can emit (the value of
#: every document's ``codec`` field): ``json`` for payload-free specs,
#: ``events`` for ``sample_eval`` payloads (base64-encoded event arrays
#: and program weights — wire-portable).  A payload kind with no codec
#: cannot be encoded.
CODECS = ("json", "events")


def _encode_array(a: np.ndarray) -> dict:
    """One array as a JSON document: dtype + shape + base64 raw bytes.

    The raw-bytes encoding is exact (no float round-trip through
    decimal), which is what makes the events codec bit-identical.
    """
    a = np.ascontiguousarray(a)
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_array(doc: dict) -> np.ndarray:
    """Rebuild the exact array :func:`_encode_array` serialised."""
    data = base64.b64decode(doc["data"])
    a = np.frombuffer(data, dtype=np.dtype(doc["dtype"]))
    return a.reshape([int(s) for s in doc["shape"]]).copy()


def _encode_sample_payload(payload: dict) -> dict:
    """The ``events`` codec: a ``sample_eval`` payload as JSON.

    Every live object is reduced to plain data — layer geometries plus
    base64 weight arrays, the ``SNEConfig`` field dict, the event
    stream's four coordinate arrays and dense-envelope shape (the
    dataset reference the stream was cut from is already folded into
    the spec *key*), the label, and the power model's technology
    parameters — so the payload crosses any JSON wire and
    :func:`_decode_sample_payload` rebuilds bit-identical inputs.
    """
    programs = []
    for p in payload["programs"]:
        g = p.geometry
        programs.append({
            "geometry": {
                "kind": g.kind.value,
                "in_channels": g.in_channels,
                "in_height": g.in_height,
                "in_width": g.in_width,
                "out_channels": g.out_channels,
                "out_height": g.out_height,
                "out_width": g.out_width,
                "kernel": g.kernel,
                "stride": g.stride,
                "padding": g.padding,
            },
            "weights": _encode_array(np.asarray(p.weights)),
            "threshold": int(p.threshold),
            "leak": int(p.leak),
            "scale": float(p.scale),
            "name": str(p.name),
            "spiking": bool(p.spiking),
        })
    config = payload["config"]
    stream = payload["stream"]
    power = payload["power"]
    doc = {
        "programs": programs,
        "config": dataclasses.asdict(config),
        "stream": {
            "shape": [int(s) for s in stream.shape],
            "t": _encode_array(stream.t),
            "ch": _encode_array(stream.ch),
            "x": _encode_array(stream.x),
            "y": _encode_array(stream.y),
        },
        "label": int(payload["label"]),
        "power": None,
    }
    if power is not None:
        doc["power"] = {
            "tech": dataclasses.asdict(power.tech),
            "gating_residual": float(power.gating_residual),
        }
    return doc


def _decode_sample_payload(doc: dict) -> dict:
    """Rebuild the live ``sample_eval`` payload the ``events`` codec
    serialised — compiled layer programs, config, event stream, label
    and power model — with bit-identical arrays."""
    from ..events.event import EventFormat
    from ..events.stream import EventStream
    from ..hw.mapper import LayerGeometry, LayerKind, LayerProgram

    programs = []
    for p in doc["programs"]:
        g = p["geometry"]
        geometry = LayerGeometry(
            kind=LayerKind(g["kind"]),
            in_channels=int(g["in_channels"]),
            in_height=int(g["in_height"]),
            in_width=int(g["in_width"]),
            out_channels=int(g["out_channels"]),
            out_height=int(g["out_height"]),
            out_width=int(g["out_width"]),
            kernel=int(g["kernel"]),
            stride=int(g["stride"]),
            padding=int(g["padding"]),
        )
        programs.append(LayerProgram(
            geometry=geometry,
            weights=_decode_array(p["weights"]),
            threshold=int(p["threshold"]),
            leak=int(p["leak"]),
            scale=float(p["scale"]),
            name=str(p["name"]),
            spiking=bool(p["spiking"]),
        ))
    cfg_doc = dict(doc["config"])
    cfg_doc["event_format"] = EventFormat(**cfg_doc["event_format"])
    config = SNEConfig(**cfg_doc)
    s = doc["stream"]
    stream = EventStream(
        _decode_array(s["t"]), _decode_array(s["ch"]),
        _decode_array(s["x"]), _decode_array(s["y"]),
        shape=tuple(int(v) for v in s["shape"]),
    )
    power = None
    if doc.get("power") is not None:
        from ..energy.power import PowerModel
        from ..energy.technology import TechnologyParams

        power = PowerModel(tech=TechnologyParams(**doc["power"]["tech"]))
        power.gating_residual = float(doc["power"]["gating_residual"])
    return {
        "programs": programs,
        "config": config,
        "stream": stream,
        "label": int(doc["label"]),
        "power": power,
    }


def spec_to_doc(spec: JobSpec) -> dict:
    """One spec as a plain JSON document, tagged with its ``codec``.

    This is the wire/spool encoding the distributed work queue
    (:mod:`repro.runtime.dist`) writes into chunk files and the fleet
    -serving dispatcher puts on the broker plane.  The returned
    document always carries a ``codec`` field (one of :data:`CODECS`):

    * ``"json"`` — payload-free specs; ``kind`` + canonical ``key``
      are the entire identity.
    * ``"events"`` — ``sample_eval`` specs: the live payload crosses
      as encoded event arrays, program weights, config fields and the
      power calibration (bit-identical round trip), which is what lets
      payload-carrying jobs reach remote workers at all.

    Raises:
        ValueError: a payload of any other kind — it has no codec.
    """
    if spec.payload is None:
        return {"kind": spec.kind, "key": spec.key, "codec": "json"}
    if spec.kind == "sample_eval":
        return {
            "kind": spec.kind,
            "key": spec.key,
            "codec": "events",
            "payload": _encode_sample_payload(spec.payload),
        }
    raise ValueError(
        f"{spec.kind} spec carries an in-memory payload with no wire codec"
    )


def spec_from_doc(doc: dict) -> JobSpec:
    """Rebuild the :class:`JobSpec` a :func:`spec_to_doc` document names.

    Dispatches on the document's ``codec`` field (missing = ``"json"``,
    the pre-codec document shape).  Validates the document shape
    (string ``kind``, JSON-decodable string ``key``, a known codec) so
    a corrupt spool entry degrades to a structured error, never to a
    spec with a garbage identity.
    """
    kind, key = doc.get("kind"), doc.get("key")
    if not isinstance(kind, str) or not isinstance(key, str):
        raise ValueError(f"malformed spec document: {doc!r}")
    json.loads(key)  # raises ValueError on a non-JSON key
    codec = doc.get("codec", "json")
    if codec == "json":
        return JobSpec(kind=kind, key=key)
    if codec == "events":
        try:
            payload = _decode_sample_payload(doc["payload"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed events-codec payload for {kind!r}: {exc}") from exc
        return JobSpec(kind=kind, key=key, payload=payload)
    raise ValueError(f"unknown spec codec {codec!r}; known: {CODECS}")


# -- spec factories ---------------------------------------------------------

#: Single-slot memo of :func:`calibration_fingerprint`: the exact-content
#: key of the tables it last digested, and that digest.
_calibration_memo: tuple[bytes, str] | None = None


def calibration_fingerprint() -> str:
    """Digest of every constant the analytic models are calibrated on.

    Folded into the analytic job keys so that editing a calibration
    anchor (Fig. 5a totals, Fig. 4 areas, technology parameters, the
    gating residual) invalidates cached sweep results instead of
    silently serving the old model's numbers.

    Each call reads the live tables and ``marshal``s them into a key
    (a few µs); the canonical JSON and SHA-256 run only when that key
    differs from the last call's.  The key is exact in type and sign
    (``30`` vs ``30.0``, ``0.0`` vs ``-0.0``), which ``==`` is not but
    the canonical encoding is, so an edited table never meets a stale
    digest.  Tables ``marshal`` cannot encode skip the memo.
    """
    global _calibration_memo
    from .. import __version__
    from ..energy import area, power, technology

    try:
        memo_key = marshal.dumps((
            __version__, vars(technology.GF22FDX),
            power.PowerModel.gating_residual, power.FIG5A_TOTAL_MW,
            power.FIG5B_PJ_PER_SOP, area.FIG4_ANCHORS, area.COMPONENTS,
        ), 2)  # version 2 writes no refcount-dependent back-references
    except (TypeError, ValueError):
        memo_key = None
    memo = _calibration_memo
    if memo is not None and memo[0] == memo_key:
        return memo[1]
    material = canonical_json(
        {
            "version": __version__,
            "tech": dataclasses.asdict(technology.GF22FDX),
            "gating_residual": float(power.PowerModel.gating_residual),
            "fig5a_total_mw": power.FIG5A_TOTAL_MW,
            "fig5b_pj_per_sop": power.FIG5B_PJ_PER_SOP,
            "fig4_anchors": area.FIG4_ANCHORS,
            "area_components": area.COMPONENTS,
        }
    )
    digest = hashlib.sha256(material.encode()).hexdigest()[:16]
    if memo_key is not None:
        _calibration_memo = (memo_key, digest)
    return digest


def _check_slices(n_slices) -> None:
    # numpy ints (what the sweep grid yields) pass; bools and floats do
    # not, so 4.5 or 4.0 never hash apart from 4.
    if not isinstance(n_slices, numbers.Integral) or isinstance(n_slices, bool):
        raise ValueError(f"n_slices must be an integer, got {n_slices!r}")
    if n_slices < 1:
        raise ValueError("n_slices must be positive")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_voltage(voltage) -> None:
    if voltage is not None and not _is_number(voltage):
        raise ValueError(f"voltage must be a number or null, got {voltage!r}")


def dse_point_job(
    n_slices: int,
    voltage: float | None = None,
    utilization: float = 1.0,
) -> JobSpec:
    """One design-space point: area/power/efficiency at a configuration.

    ``voltage=None`` means the paper's nominal 0.8 V operating point
    (anchor-exact at the synthesised slice counts via Fig. 5a).  Like
    the other analytic factories it raises ``ValueError`` for malformed
    parameters before hashing, so a bad wire request never reaches a
    batch; accepted values enter the key unchanged.
    """
    _check_slices(n_slices)
    _check_voltage(voltage)
    if not _is_number(utilization) or not 0.0 <= utilization <= 1.0:
        raise ValueError(f"utilization must be a number in [0, 1], got {utilization!r}")
    key = canonical_json(
        {
            "n_slices": n_slices,
            "voltage": voltage,
            "utilization": utilization,
            "calibration": calibration_fingerprint(),
        }
    )
    return JobSpec(kind="dse_point", key=key)


def inference_energy_job(
    dataset: str, n_slices: int = 8, voltage: float | None = None
) -> JobSpec:
    """Table I energy/timing interval query for an anchored dataset."""
    from ..energy.efficiency import DATASET_EVENT_ANCHORS

    if not isinstance(dataset, str) or dataset not in DATASET_EVENT_ANCHORS:
        raise ValueError(f"unknown dataset {dataset!r}; "
                         f"known: {sorted(DATASET_EVENT_ANCHORS)}")
    _check_slices(n_slices)
    _check_voltage(voltage)
    key = canonical_json(
        {
            "dataset": dataset,
            "n_slices": n_slices,
            "voltage": voltage,
            "calibration": calibration_fingerprint(),
        }
    )
    return JobSpec(kind="inference_energy", key=key)


def baseline_compare_job(platform: str, n_slices: int = 8) -> JobSpec:
    """Efficiency comparison of SNE against one Table II platform."""
    from ..baselines.soa import TABLE2_LITERATURE

    known = [p.name for p in TABLE2_LITERATURE]
    if platform not in known:
        raise ValueError(f"unknown Table II platform {platform!r}; known: {sorted(known)}")
    _check_slices(n_slices)
    key = canonical_json(
        {
            "platform": platform,
            "n_slices": n_slices,
            "calibration": calibration_fingerprint(),
        }
    )
    return JobSpec(kind="baseline_compare", key=key)


def _program_digest(program) -> dict:
    """Identity document of one compiled :class:`LayerProgram`."""
    g = program.geometry
    return {
        "kind": g.kind.value,
        "geometry": (
            g.in_channels, g.in_height, g.in_width,
            g.out_channels, g.out_height, g.out_width,
            g.kernel, g.stride, g.padding,
        ),
        "weights": _digest_array(np.asarray(program.weights)),
        "threshold": int(program.threshold),
        "leak": int(program.leak),
        "spiking": bool(program.spiking),
    }


def _stream_digest(stream) -> dict:
    """Identity document of one :class:`EventStream`."""
    return {
        "shape": stream.shape if isinstance(stream.shape, tuple) else tuple(stream.shape),
        "events": _digest_array(
            np.stack([stream.t, stream.ch, stream.x, stream.y])
            if len(stream)
            else np.zeros((4, 0), dtype=np.int32)
        ),
    }


def _power_fingerprint(power) -> dict | None:
    if power is None:
        return None
    return {
        "tech": dataclasses.asdict(power.tech),
        "gating_residual": float(power.gating_residual),
    }


def deployment_fingerprint(programs: list, config: SNEConfig, power=None) -> dict:
    """The sample-independent part of a ``sample_eval`` key.

    Digesting the program weights is O(model size); when building one
    job per sample of a dataset, compute this once and pass it to
    :func:`sample_eval_job` instead of re-hashing per sample.
    """
    return {
        "config": dataclasses.asdict(config),
        "programs": [_program_digest(p) for p in programs],
        "power": _power_fingerprint(power),
    }


def sample_eval_job(
    programs: list,
    config: SNEConfig,
    stream,
    label: int,
    power=None,
    deployment: dict | None = None,
    kernel: str = "auto",
) -> JobSpec:
    """One hardware-in-the-loop inference: a stream through a network.

    The key hashes the *content* of the compiled programs, the hardware
    configuration, the power model calibration and the event stream, so
    re-evaluating the same sample on the same deployment is a cache hit
    even in a fresh process.  The live objects travel in the payload.
    ``deployment`` takes a precomputed :func:`deployment_fingerprint`
    for the programs/config/power triple.

    ``kernel`` pins the SNE kernel implementation
    (:mod:`repro.hw.kernels`) the runner selects.  It enters the key
    only when it deviates from ``"auto"`` — every kernel is
    bit-identical, so default jobs keep their historical hashes, while
    an explicitly pinned run is hash-isolated from the default and from
    other pins.
    """
    from ..hw.kernels import KERNEL_CHOICES

    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {', '.join(KERNEL_CHOICES)}"
        )
    identity = {
        **(deployment or deployment_fingerprint(programs, config, power)),
        "stream": _stream_digest(stream),
        "label": int(label),
    }
    if kernel != "auto":
        identity["kernel"] = kernel
    key = canonical_json(identity)
    payload = {
        "programs": list(programs),
        "config": config,
        "stream": stream,
        "label": int(label),
        "power": power,
    }
    return JobSpec(kind="sample_eval", key=key, payload=payload)


# -- runners ----------------------------------------------------------------

_RUNNERS: dict[str, Callable[[dict, Any], dict]] = {}

#: Built-in job kinds defined outside this module -> the module whose
#: import registers them.  A lookup of one of them imports it, so a
#: worker runs every built-in kind whatever it imported first.
_BUILTIN_MODULES = {"chaos_probe": "repro.runtime.chaos"}


def register_runner(kind: str):
    """Register the execution function for a job kind.

    Register at module import time (decorator on a top-level function),
    not inside ``main()``: under the ``spawn`` start method each worker
    process re-imports modules from scratch, so runners registered only
    at runtime exist in the parent and every job of that kind comes
    back as a structured KeyError failure.  The default ``fork`` start
    method on Linux inherits runtime registrations.
    """

    def deco(fn: Callable[[dict, Any], dict]):
        _RUNNERS[kind] = fn
        return fn

    return deco


def execute_job(spec: JobSpec) -> dict:
    """Run one spec to completion and return its JSON-able result dict."""
    if spec.kind not in _RUNNERS and spec.kind in _BUILTIN_MODULES:
        importlib.import_module(_BUILTIN_MODULES[spec.kind])
    try:
        runner = _RUNNERS[spec.kind]
    except KeyError:
        raise KeyError(
            f"no runner registered for job kind {spec.kind!r}; "
            f"known: {sorted(_RUNNERS.keys() | _BUILTIN_MODULES.keys())}"
        ) from None
    return runner(spec.params, spec.payload)


@functools.lru_cache(maxsize=1)
def _models():
    """Shared calibrated model stack (cheap to build, built once)."""
    from ..energy.area import AreaModel
    from ..energy.efficiency import EfficiencyModel
    from ..energy.power import PowerModel

    area = AreaModel()
    power = PowerModel(area=area)
    return area, power, EfficiencyModel(power=power)


@register_runner("dse_point")
def _run_dse_point(params: dict, payload: Any) -> dict:
    from ..energy.area import FIG4_SLICES
    from ..hw.config import PAPER_CONFIG

    n = int(params["n_slices"])
    voltage = params["voltage"]
    utilization = float(params["utilization"])
    area, power, eff = _models()
    cfg = PAPER_CONFIG.with_slices(n)
    if voltage is None and utilization == 1.0:
        breakdown = power.fig5a_breakdown(n)
    else:
        breakdown = power.breakdown(n, utilization, voltage)
    return {
        "n_slices": n,
        "voltage": voltage,
        "utilization": utilization,
        "synthesised": n in FIG4_SLICES,
        "area_kge": area.total_kge(n),
        "area_mm2": area.total_mm2(n),
        "dynamic_mw": breakdown.dynamic_mw,
        "leakage_mw": breakdown.leakage_mw,
        "total_mw": breakdown.total_mw,
        "performance_gsops": eff.performance_gsops(cfg),
        "energy_per_sop_pj": eff.energy_per_sop_pj(cfg, voltage=voltage),
        "efficiency_tsops_w": eff.efficiency_tsops_w(cfg, voltage=voltage),
    }


@register_runner("inference_energy")
def _run_inference_energy(params: dict, payload: Any) -> dict:
    from ..hw.config import PAPER_CONFIG

    _, _, eff = _models()
    cfg = PAPER_CONFIG.with_slices(int(params["n_slices"]))
    best, worst = eff.dataset_range(params["dataset"], cfg)
    return {
        "dataset": params["dataset"],
        "n_slices": cfg.n_slices,
        "best": dataclasses.asdict(best),
        "worst": dataclasses.asdict(worst),
    }


@register_runner("baseline_compare")
def _run_baseline_compare(params: dict, payload: Any) -> dict:
    from ..baselines.soa import TABLE2_LITERATURE, improvement_over, sne_record

    name = params["platform"]
    others = {p.name: p for p in TABLE2_LITERATURE}
    if name not in others:
        raise KeyError(f"unknown Table II platform {name!r}; known: {sorted(others)}")
    sne = sne_record()
    other = others[name]
    return {
        "platform": name,
        "sne_efficiency_tsops_w": sne.efficiency_tops_w,
        "platform_efficiency_tsops_w": other.efficiency_tops_w,
        "improvement_x": improvement_over(sne, other),
    }


def batch_signature(spec: JobSpec) -> dict | None:
    """What consecutive ``sample_eval`` specs must share to run as one
    stacked batch (:func:`execute_sample_batch`), or ``None`` for a
    spec that runs on its own.

    Batchable specs carry their payload and agree on the deployment
    (config, program digests, power), the kernel and the stream
    envelope; the stream content and the label may differ.
    """
    if spec.kind != "sample_eval" or spec.payload is None:
        return None
    params = spec.params
    signature = {k: v for k, v in params.items() if k not in ("stream", "label")}
    signature["shape"] = params["stream"]["shape"]
    return signature


def execute_sample_batch(specs: list[JobSpec]) -> list[dict]:
    """Run specs of one :func:`batch_signature` as one stacked
    simulation; one result dict per spec, in order, each equal to what
    :func:`execute_job` returns for that spec alone."""
    from ..hw.runner import HardwareEvaluator

    first = specs[0].payload
    evaluator = HardwareEvaluator(first["programs"], first["config"], first["power"])
    results = evaluator.run_samples(
        [spec.payload["stream"] for spec in specs],
        [spec.payload["label"] for spec in specs],
        kernel=specs[0].params.get("kernel", "auto"),
    )
    return [dataclasses.asdict(result) for result in results]


@register_runner("sample_eval")
def _run_sample_eval(params: dict, payload: Any) -> dict:
    if payload is None:
        raise RuntimeError(
            "sample_eval jobs need their in-memory payload (programs, "
            "stream); they can be cache-served but not rebuilt from the key"
        )
    from ..hw.runner import HardwareEvaluator

    evaluator = HardwareEvaluator(
        payload["programs"], payload["config"], payload["power"]
    )
    result = evaluator.run_sample(payload["stream"], payload["label"],
                                  kernel=params.get("kernel", "auto"))
    return dataclasses.asdict(result)
