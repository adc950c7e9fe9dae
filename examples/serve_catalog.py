"""Serving a catalog over the network: server, client, raw sockets.

The walkthrough builds a small persistent catalog, starts the asyncio
query server on a background thread (exactly what ``python -m repro
server serve <catalog>`` runs in the foreground), and then queries it
three ways:

1. the unified front door — ``repro.connect("tcp://host:port")`` —
   whose uniform result object is bit-identical to the local routes;
2. a raw socket speaking the newline-delimited JSON protocol by hand —
   the same bytes ``nc 127.0.0.1 7411`` would send;
3. many concurrent clients issuing the *same* statement, to show request
   coalescing doing the catalog's work once;
4. the observability surfaces: a traced query's stage-latency table,
   the Prometheus-style ``{"op": "metrics"}`` scrape, and the
   slow-query log.

It finishes by restarting the server on the **process executor backend**
(``--backend process`` on the CLI): per-statement fan-out runs on
spawn-started worker processes, each with its own warm cache — the
multi-core path for CPU-bound aggregates — and returns bit-identical
results.

Run with::

    PYTHONPATH=src python examples/serve_catalog.py
"""

from __future__ import annotations

import json
import socket
import tempfile
import threading
from pathlib import Path

import numpy as np

import repro
from repro.server import Client, QueryServer, ServerThread
from repro.store import Catalog
from repro.view.omega import OmegaGrid


def build_catalog(root: Path) -> Catalog:
    """A few plant-floor temperature series with drifting baselines."""
    catalog = Catalog(root)
    rng = np.random.default_rng(0)
    for index in range(6):
        series_id = f"plant-{index}"
        catalog.create_series(
            series_id,
            metric="variable_threshold",
            H=40,
            grid=OmegaGrid(delta=0.5, n=8),
        )
        values = 20.0 + 0.1 * index + np.cumsum(
            rng.normal(0.0, 0.08, size=160)
        )
        catalog.append(series_id, values)
    return catalog


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="serve_catalog_"))
    catalog = build_catalog(workdir / "catalog")
    statement = (
        f"SELECT exceedance(21.0) FROM CATALOG '{catalog.root}' TOP 3"
    )

    server = QueryServer(catalog.root, port=0, max_inflight=8)
    with ServerThread(server) as (host, port):
        print(f"server listening on {host}:{port}\n")

        # -- 1. The unified front door. --------------------------------
        # The same repro.connect() that opens in-memory engines and local
        # catalog services also speaks tcp:// — the uniform result object
        # serializes bit-identically to the local routes.
        with repro.connect(f"tcp://{host}:{port}") as conn:
            result = conn.execute(statement)
            print("hottest series by P(value > 21.0) "
                  f"(kind: {result.kind}):")
            for entry in result.to_dict()["results"]:
                print(f"  {entry['series']}: max_p={entry['score']:.4f}")
            result = result.to_dict()

        # -- 2. Raw sockets: the protocol is one JSON object per line. -
        with socket.create_connection((host, port)) as sock:
            stream = sock.makefile("rwb")
            frame = {"id": 1, "statement": statement}
            stream.write(json.dumps(frame).encode() + b"\n")
            stream.flush()
            response = json.loads(stream.readline())
            print(
                f"\nraw-socket response: ok={response['ok']}, "
                f"{len(response['result']['results'])} series"
            )

        # -- 3. Concurrent identical statements coalesce. --------------
        def poll() -> None:
            with Client(host, port) as poller:
                for _ in range(10):
                    poller.query(statement)

        threads = [threading.Thread(target=poll) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with Client(host, port) as observer:
            stats = observer.stats()
        print(
            f"\n40 polling requests: executed {stats['executed']}, "
            f"coalesced {stats['coalesced']} "
            f"(cache: {stats['cache']['entries']} views resident)"
        )

        # -- 4. Observability: trace, metrics scrape, slow log. --------
        with Client(host, port) as client:
            traced = client.query(statement, trace=True)
            trace = traced["trace"]
            print(
                f"\nwhere {trace['wall_ms']:.2f} ms of wall time went "
                f"(backend={trace['backend']}):"
            )
            for span in trace["stages"]:
                share = span["ms"] / trace["wall_ms"]
                print(
                    f"  {span['name']:<10} {span['ms']:8.3f} ms  "
                    f"{'#' * round(40 * share)}"
                )

            metrics = client.metrics()
            latency = metrics["metrics"]["repro_query_seconds"]["values"]
            print("\nper-aggregate latency (streaming quantiles):")
            for labels, sample in latency.items():
                print(
                    f"  {labels}: n={sample['count']}, "
                    f"p50={sample['p50'] * 1e3:.2f} ms, "
                    f"p99={sample['p99'] * 1e3:.2f} ms"
                )
            scrape = metrics["text"].splitlines()
            print(
                f"\nPrometheus exposition: {len(scrape)} lines, e.g. "
                f"{scrape[-1]!r}"
            )

            slowlog = client.slowlog(limit=3)
            print(
                f"slow-query log (threshold "
                f"{slowlog['threshold_ms']:.0f} ms): "
                f"{slowlog['recorded']}/{slowlog['observed']} recorded"
            )
        baseline = result
    print("\nserver drained and stopped")

    # -- 5. The process backend: multi-core fan-out, same answers. -----
    # Equivalent CLI:  python -m repro server serve <catalog> --backend
    # process.  Worker processes spawn once and keep per-worker warm
    # caches, so a repeated statement reloads no segment.
    server = QueryServer(
        catalog.root, port=0, max_inflight=8, backend="process"
    )
    with ServerThread(server) as (host, port):
        with Client(host, port) as client:
            result = client.query(statement)
            stats = client.stats()
        assert result == baseline  # Bit-identical across backends.
        print(
            f"\nprocess backend ({stats['backend']}): same top series, "
            "bit-identical result"
        )
    print("process-backend server drained and stopped")


if __name__ == "__main__":
    main()
