"""Traced launcher for ``repro serve`` and ``repro worker``.

Usage::

    PYTHONPATH=src python3 perfbench/launch.py SPANS.json serve --port 0 ...
    PYTHONPATH=src python3 perfbench/launch.py SPANS.json worker --spool DIR

Installs timing wrappers around the public functions of each layer a
request crosses, then calls the unmodified CLI entry point with the
remaining arguments.  Spans stay in memory and are written to
``SPANS.json`` when the command returns (SIGINT stops both commands
cleanly).  Server-side records are keyed by the wire request id;
worker-side records by spool chunk id.
"""

from __future__ import annotations

import contextvars
import json
import sys
import time
from collections import defaultdict

pc = time.perf_counter

#: The record of the request whose ``_answer_line`` is running.
_CURRENT = contextvars.ContextVar("perfbench_request", default=None)
#: id(JobSpec) -> request record, while that request is inside submit.
_BY_SPEC: dict[int, dict] = {}
REQUESTS: list[dict] = []
COUNTS: dict[str, int] = defaultdict(int)
#: Worker side: chunk id -> its span durations.
CHUNKS: dict[str, dict] = {}
_chunk = {"id": None}


def _wrap(cls, attr, make):
    setattr(cls, attr, make(getattr(cls, attr)))


def _add(rec, key, dt):
    if rec is not None:
        rec[key] = rec.get(key, 0.0) + dt


def install_serve() -> None:
    from repro.runtime import backends, dispatch, dist, serve
    from repro.runtime.store import ResultStore

    orig_answer = serve._answer_line

    async def answer_line(server, line, send, conn=None):
        rec: dict = {}
        token = _CURRENT.set(rec)

        async def tracked_send(doc):
            rec["rid"] = doc.get("id")
            await send(doc)

        t0 = pc()
        try:
            await orig_answer(server, line, tracked_send, conn)
        finally:
            rec["answer"] = pc() - t0
            _CURRENT.reset(token)
            REQUESTS.append(rec)

    serve._answer_line = answer_line

    orig_r2s = serve.request_to_spec

    def request_to_spec(request):
        t0 = pc()
        try:
            return orig_r2s(request)
        finally:
            _add(_CURRENT.get(), "request_to_spec", pc() - t0)

    serve.request_to_spec = request_to_spec

    def make_submit(orig):
        async def submit(self, spec):
            rec = _CURRENT.get()
            if rec is not None:
                _BY_SPEC[id(spec)] = rec
            t0 = pc()
            try:
                result = await orig(self, spec)
                if rec is not None:
                    rec["cached"] = result.cached
                return result
            finally:
                _add(rec, "submit", pc() - t0)
                _BY_SPEC.pop(id(spec), None)
        return submit

    _wrap(serve.AsyncServer, "submit", make_submit)

    def make_spec_timer(key):
        def make(orig):
            def timed(self, spec, *args, **kwargs):
                t0 = pc()
                try:
                    return orig(self, spec, *args, **kwargs)
                finally:
                    _add(_BY_SPEC.get(id(spec)), key, pc() - t0)
            return timed
        return make

    def make_async_spec_timer(key, end_key):
        def make(orig):
            async def timed(self, spec, *args, **kwargs):
                t0 = pc()
                try:
                    return await orig(self, spec, *args, **kwargs)
                finally:
                    t1 = pc()
                    rec = _BY_SPEC.get(id(spec))
                    _add(rec, key, t1 - t0)
                    if rec is not None:
                        rec[end_key] = t1
            return timed
        return make

    _wrap(ResultStore, "get", make_spec_timer("get"))
    _wrap(ResultStore, "put", make_spec_timer("put"))
    _wrap(ResultStore, "aget", make_async_spec_timer("aget", "aget_end"))
    _wrap(ResultStore, "aput", make_async_spec_timer("aput", "aput_end"))

    orig_execute = backends.execute_job

    def execute_job(spec):
        t0 = pc()
        try:
            return orig_execute(spec)
        finally:
            _add(_BY_SPEC.get(id(spec)), "execute", pc() - t0)

    backends.execute_job = execute_job

    def make_dispatch(orig):
        async def submit(self, specs):
            specs = list(specs)
            recs = [_BY_SPEC.get(id(s)) for s in specs]
            d0 = pc()
            i = 0
            async for result in orig(self, specs):
                rec = recs[i] if i < len(recs) else None
                if rec is not None:
                    rec["dispatch_start"] = d0
                    rec["dispatch_end"] = pc()
                i += 1
                yield result
        return submit

    _wrap(dispatch.LocalDispatcher, "submit", make_dispatch)
    _wrap(dispatch.BrokerDispatcher, "submit", make_dispatch)

    brokers: dict[int, dict] = {}

    def make_broker_submit(orig):
        def submit(self, specs, chunk_size=None):
            specs = list(specs)
            t0 = pc()
            ids = orig(self, specs, chunk_size)
            t1 = pc()
            size = chunk_size or max(1, len(specs) // 8 or 1)
            recs = [_BY_SPEC.get(id(s)) for s in specs]
            for i, rec in enumerate(recs):
                if rec is not None:
                    rec["spool_write"] = t1 - t0
                    rec["spool_write_end"] = t1
                    rec["chunk"] = ids[i // size]
            brokers[id(self)] = {"recs": recs, "poll": 0.0}
            return ids
        return submit

    def make_poll(orig):
        def poll_once(self):
            t0 = pc()
            done = orig(self)
            t1 = pc()
            b = brokers.get(id(self))
            if b is not None:
                b["poll"] += t1 - t0
                if done:
                    for rec in b["recs"]:
                        if rec is not None:
                            rec["poll"] = b["poll"]
                            rec["poll_end"] = t1
                    del brokers[id(self)]
            return done
        return poll_once

    def make_requeue(orig):
        def requeue(self, chunk, why):
            COUNTS["requeues"] += 1
            return orig(self, chunk, why)
        return requeue

    _wrap(dist.Broker, "submit", make_broker_submit)
    _wrap(dist.Broker, "poll_once", make_poll)
    _wrap(dist.Broker, "_requeue", make_requeue)


def install_worker() -> None:
    from repro.runtime import dist
    from repro.runtime.store import ResultStore

    def chunk_add(key, dt, chunk_id=None):
        cid = chunk_id or _chunk["id"]
        if cid is not None:
            rec = CHUNKS.setdefault(cid, {})
            rec[key] = rec.get(key, 0.0) + dt

    orig_claim = dist.claim_chunk

    def claim_chunk(spool, chunk_id, *args, **kwargs):
        t0 = pc()
        won = orig_claim(spool, chunk_id, *args, **kwargs)
        if won:
            _chunk["id"] = chunk_id
            chunk_add("claim", pc() - t0, chunk_id)
        return won

    dist.claim_chunk = claim_chunk

    def timed_module(name, key):
        orig = getattr(dist, name)

        def timed(*args, **kwargs):
            t0 = pc()
            try:
                return orig(*args, **kwargs)
            finally:
                chunk_add(key, pc() - t0)

        setattr(dist, name, timed)

    timed_module("_execute_one", "execute")
    timed_module("write_chunk_result", "result_write")

    def make_store(orig):
        def timed(self, *args, **kwargs):
            t0 = pc()
            try:
                return orig(self, *args, **kwargs)
            finally:
                chunk_add("store", pc() - t0)
        return timed

    _wrap(ResultStore, "get", make_store)
    _wrap(ResultStore, "put", make_store)


def main(argv: list[str]) -> int:
    out, command = argv[0], argv[1:]
    if command[0] == "serve":
        install_serve()
    elif command[0] == "worker":
        install_worker()
    from repro.runtime.cli import main as cli_main

    try:
        status = cli_main(command)
    finally:
        with open(out, "w") as fh:
            json.dump({"requests": REQUESTS, "counts": COUNTS, "chunks": CHUNKS}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
