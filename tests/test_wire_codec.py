"""Spec-document codecs: ``json`` / ``events`` round trips, no pickle.

The fleet-serving path (``BrokerDispatcher``) and the ``cluster``
backend both cross process boundaries through
:func:`repro.runtime.jobs.spec_to_doc` documents, so these tests pin
the wire contract down:

* every document carries an explicit ``codec`` field from
  :data:`repro.runtime.jobs.CODECS`;
* ``sample_eval`` payloads round-trip through the ``events`` codec
  **bit-identically** — same job hash, byte-equal weight and event
  arrays, identical execution results;
* nothing is ever unpickled: a payload kind with no codec cannot be
  encoded (nor submitted to a broker), and a ``pickle`` document or
  pickle chunk file read from a spool is reported as corrupt without
  running the code it carries;
* the dist chunk files built on top are pure JSON, even for
  payload-carrying specs.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.energy.power import PowerModel
from repro.events import EventStream
from repro.hw import LayerGeometry, LayerKind, LayerProgram, SNEConfig
from repro.runtime import JobSpec, canonical_json, execute_job
from repro.runtime.jobs import CODECS, sample_eval_job, spec_from_doc, spec_to_doc


def make_sample_spec(power=True, seed=0):
    """A tiny but real ``sample_eval`` spec (compiled program, event
    stream, optional power model)."""
    g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 4, 1, 1)
    w = np.random.default_rng(seed).integers(-3, 4, (4, 4))
    programs = [LayerProgram(g, w, threshold=2, leak=0)]
    stream = EventStream.from_dense(np.ones((3, 1, 2, 2), dtype=np.uint8))
    return sample_eval_job(
        programs, SNEConfig(n_slices=1), stream, 1,
        power=PowerModel() if power else None,
    )


class TestCodecField:
    def test_codecs_tuple_is_the_contract(self):
        assert CODECS == ("json", "events")

    def test_payload_free_spec_is_json_codec(self):
        spec = JobSpec(kind="k", key=canonical_json({"a": 1}))
        doc = spec_to_doc(spec)
        assert doc["codec"] == "json"
        assert spec_from_doc(doc) == spec

    def test_missing_codec_field_means_json(self):
        # Pre-codec documents (old spools) decode unchanged.
        spec = JobSpec(kind="k", key=canonical_json({"a": 1}))
        assert spec_from_doc({"kind": spec.kind, "key": spec.key}) == spec

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown spec codec"):
            spec_from_doc({"kind": "k", "key": "{}", "codec": "msgpack"})


class TestEventsCodec:
    def test_sample_eval_uses_events_codec_and_is_pure_json(self):
        doc = spec_to_doc(make_sample_spec())
        assert doc["codec"] == "events"
        json.dumps(doc)  # raises if anything live leaked into the doc

    def test_round_trip_is_bit_identical(self):
        spec = make_sample_spec()
        back = spec_from_doc(spec_to_doc(spec))
        assert back.job_hash == spec.job_hash
        a, b = spec.payload, back.payload
        for pa, pb in zip(a["programs"], b["programs"]):
            assert pa.geometry == pb.geometry
            assert pa.weights.dtype == pb.weights.dtype
            assert pa.weights.tobytes() == pb.weights.tobytes()
            assert (pa.threshold, pa.leak, pa.scale, pa.name, pa.spiking) == (
                pb.threshold, pb.leak, pb.scale, pb.name, pb.spiking)
        assert a["config"] == b["config"]
        for f in ("t", "ch", "x", "y"):
            assert getattr(a["stream"], f).tobytes() == (
                getattr(b["stream"], f).tobytes())
        assert a["stream"].shape == b["stream"].shape
        assert a["label"] == b["label"]
        assert dataclasses.asdict(a["power"].tech) == (
            dataclasses.asdict(b["power"].tech))
        assert a["power"].gating_residual == b["power"].gating_residual

    def test_round_trip_executes_identically(self):
        spec = make_sample_spec()
        back = spec_from_doc(spec_to_doc(spec))
        assert execute_job(back) == execute_job(spec)

    def test_round_trip_without_power_model(self):
        spec = make_sample_spec(power=False)
        back = spec_from_doc(spec_to_doc(spec))
        assert back.payload["power"] is None
        assert back.job_hash == spec.job_hash

    def test_corrupt_events_payload_is_structured_error(self):
        doc = spec_to_doc(make_sample_spec())
        doc["payload"]["stream"]["t"]["data"] = "!!not-base64!!"
        with pytest.raises(ValueError, match="events-codec payload"):
            spec_from_doc(doc)


class TestPickleFallback:
    """There is no pickle fallback: unknown payload kinds are refused."""

    def spec(self):
        return JobSpec(kind="t_exotic", key=canonical_json({"n": 1}),
                       payload={"blob": np.arange(3)})

    def test_rejected_without_opt_in(self):
        with pytest.raises(ValueError, match="t_exotic.*no wire codec"):
            spec_to_doc(self.spec())

    def test_corrupt_pickle_payload_is_structured_error(self):
        doc = {"kind": "t_exotic", "key": self.spec().key,
               "codec": "pickle", "payload": "AAAA"}
        with pytest.raises(ValueError, match="unknown spec codec"):
            spec_from_doc(doc)

    def test_broker_submit_refuses_kind_without_codec(self, tmp_path):
        from repro.runtime.dist import Broker

        ok = JobSpec(kind="k", key=canonical_json({"a": 1}))
        broker = Broker(tmp_path)
        with pytest.raises(ValueError, match="t_exotic"):
            broker.submit([ok, self.spec()], chunk_size=1)
        # Refused before anything reached the spool.
        assert list((tmp_path / "chunks").iterdir()) == []
        assert broker.chunk_ids == []


class TestChunkFilesAreJSON:
    def test_sample_eval_chunks_spool_as_json(self):
        from repro.runtime.dist import _decode_chunk, _encode_chunk

        spec = make_sample_spec()
        blob = _encode_chunk("c-0", 0, [spec], trace=None)
        doc = json.loads(blob.decode("utf-8"))  # not pickle bytes
        assert doc["jobs"][0]["codec"] == "events"
        specs, trace = _decode_chunk(blob)
        assert trace is None
        assert specs[0].job_hash == spec.job_hash
        assert execute_job(specs[0]) == execute_job(spec)

    def test_pickle_chunk_is_corrupt_and_never_unpickled(self, tmp_path):
        import pickle

        from repro.runtime.dist import DIST_SCHEMA, _decode_chunk

        marker = tmp_path / "unpickled"

        class Exploit:
            def __reduce__(self):
                return (open, (str(marker), "w"))

        blob = pickle.dumps({"schema": DIST_SCHEMA, "specs": [Exploit()]})
        with pytest.raises(ValueError, match="corrupt spool chunk"):
            _decode_chunk(blob)
        assert not marker.exists()
