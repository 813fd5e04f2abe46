"""Streaming inference against the async serving front end.

Boots a ``repro.runtime.serve`` server in-process on a loopback TCP
port, then acts as a remote client: it streams design-space and
baseline-comparison requests over the line-delimited JSON protocol and
prints each answer **as it arrives** — the serving behaviour that
distinguishes ``repro serve`` from the batch-to-completion ``repro
sweep``.  The same request set is then replayed to show the
cache-hit path (answers come straight from the shared result store,
never touching the backend pool), and the server's ``stats`` op
(micro-batch sizes, p50/p99 latency, cache-hit ratio) closes the demo.

Usage::

    python examples/streaming_inference.py [--backend NAME] [--workers N]

Against a long-running server started elsewhere (``repro serve --port
7797``), point any NDJSON-speaking client at it; one request per line::

    {"id": "r1", "kind": "dse_point", "params": {"n_slices": 4}}
"""

import argparse
import asyncio
import json
import time

from repro.runtime import (
    AsyncServer,
    LocalDispatcher,
    available_backends,
    open_store,
    serve_tcp,
)

#: The demo's request mix: a slice sweep plus two Table II comparisons.
REQUESTS = [
    {"id": f"dse-{n}", "kind": "dse_point", "params": {"n_slices": n}}
    for n in (1, 2, 3, 4, 6, 8)
] + [
    {"id": "soa-tn", "kind": "baseline_compare", "params": {"platform": "TrueNorth"}},
    {"id": "soa-tj", "kind": "baseline_compare", "params": {"platform": "Tianjic"}},
]


async def stream_once(host: str, port: int, label: str) -> None:
    """Send every request on one connection, print answers as they land."""
    reader, writer = await asyncio.open_connection(host, port)
    start = time.perf_counter()
    for request in REQUESTS:
        writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    for _ in REQUESTS:
        response = json.loads(await reader.readline())
        ms = (time.perf_counter() - start) * 1e3
        origin = "cache" if response.get("cached") else "computed"
        if response["ok"]:
            value = response["value"]
            detail = (
                f"eff {value['efficiency_tsops_w']:.2f} TSOP/s/W"
                if response["kind"] == "dse_point"
                else f"{value['improvement_x']:.0f}x vs {value['platform']}"
            )
        else:
            detail = f"FAILED: {response['error']}"
        print(f"  [{label} +{ms:6.1f} ms] {response['id']:>7} ({origin}) {detail}")
    writer.write(b'{"id": "stats", "op": "stats"}\n')
    await writer.drain()
    stats = json.loads(await reader.readline())["stats"]
    writer.close()
    await writer.wait_closed()
    latency = stats["latency"]
    print(
        f"  [{label}] server: {stats['requests']} request(s), "
        f"{stats['batches']} batch(es) (mean {stats['mean_batch']:.1f} jobs), "
        f"cache-hit ratio {stats['cache_hit_ratio']:.0%}, "
        f"p50 {latency['p50_s'] * 1e3:.2f} ms, p99 {latency['p99_s'] * 1e3:.2f} ms"
    )


async def main_async(args) -> None:
    """Server + two client passes (cold compute, then cache replay)."""
    server = AsyncServer(
        dispatcher=LocalDispatcher(args.backend, workers=args.workers),
        cache=open_store(args.cache_dir),
    )
    tcp = await serve_tcp(server)  # ephemeral loopback port
    host, port = tcp.sockets[0].getsockname()[:2]
    print(f"serving on {host}:{port} (backend {args.backend})")
    try:
        print("cold pass — every request computed through the backend pool:")
        await stream_once(host, port, "cold")
        print("warm pass — identical requests, streamed from the result store:")
        await stream_once(host, port, "warm")
    finally:
        tcp.close()
        await tcp.wait_closed()
        await server.aclose()


def main() -> None:
    """Parse flags and run the demo."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="thread", choices=available_backends())
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--cache-dir", default=None,
                        help="result store directory (default: the shared "
                             "$REPRO_CACHE_DIR / .repro_cache)")
    args = parser.parse_args()
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be positive")
    asyncio.run(main_async(args))


if __name__ == "__main__":
    main()
