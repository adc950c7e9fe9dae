"""Executor-backend benchmark: sequential (inline) vs process.

What `repro.service.backends` records in ``BENCH_backends.json`` at the
repo root:

1. **Cold and warm wall times of both schedulers**, ungated: a cold
   catalog-wide SELECT pays segment decoding, columnar view construction,
   and the aggregate itself — work that holds the GIL for long stretches
   (small-array numpy, per-segment Python bookkeeping).  The sequential
   backend runs it inline on the caller's thread; the process backend
   runs truly parallel and (with the store's layout-v2 segments)
   memory-maps columns zero-copy, sharing page cache across workers
   instead of rehydrating per-worker copies, at the price of IPC.  Which
   one wins depends on the host's cores and the catalog's size, so the
   ratios are recorded for the trend and only a collapse is asserted.
2. **Parity is bit-exact**: the canonical JSON serialisation of every
   statement's result is byte-identical across sequential and process
   execution — parallelism must never change an answer.  The
   same contract covers the process backend's two result transports:
   shared-memory descriptors and the plain-pickle fallback
   (``REPRO_SHM_TRANSPORT=0``) must produce identical canonical bytes,
   and the sweep records the transport counters
   (``shm_chunks``/``pickle_chunks``/``shm_fallbacks``/``shm_bytes``)
   for both modes.

Run directly (``python benchmarks/bench_backends.py``) or via pytest
(``pytest benchmarks/bench_backends.py``); the pytest entries assert the
floors.  Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) to shrink
the catalog while keeping the same shape.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.server.protocol import canonical_dumps, serialize_result
from repro.service import CatalogQueryService, shm_available
from repro.store import Catalog
from repro.view.omega import OmegaGrid

_QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
_GRID = OmegaGrid(delta=0.5, n=8)
_H = 40
# Per-series work must dominate per-chunk IPC for the process backend's
# ratio to mean anything: short series measure pipe latency, not compute.
# Quick mode therefore shrinks the series *count*, never the per-series
# size — fixed IPC overhead does not shrink with the workload.
_SERIES_COUNT = 12 if _QUICK else 32
_TIMES_PER_SERIES = 1000
_COLD_REPEATS = 2 if _QUICK else 3
_WARM_REPEATS = 3 if _QUICK else 5
_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_backends.json"

#: The throughput statement: time_above composes the exceedance vector,
#: a windowed reduction, and per-time dict materialisation — the
#: CPU-bound shape the process backend exists for.
_AGGREGATE = "time_above(21.0, 8)"


def build_catalog(workdir: Path) -> Catalog:
    """A many-series, layout-v2 catalog of independent random walks."""
    catalog = Catalog(workdir / "catalog", segment_layout="v2")
    rng = np.random.default_rng(42)
    for index in range(_SERIES_COUNT):
        series_id = f"sensor-{index:03d}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=_H, grid=_GRID
        )
        values = 20.0 + np.cumsum(
            rng.normal(0.0, 0.1, size=_TIMES_PER_SERIES + _H)
        )
        catalog.append(series_id, values)
    return catalog


def _statement(catalog: Catalog, aggregate: str = _AGGREGATE) -> str:
    return f"SELECT {aggregate} FROM CATALOG '{catalog.root}'"


def _parity_statements(catalog: Catalog) -> list[str]:
    return [
        _statement(catalog, "expected_value"),
        _statement(catalog, "exceedance(21.0)"),
        f"SELECT threshold(0.2) FROM CATALOG '{catalog.root}' TOP 5",
        _statement(catalog),
    ]


def _service(catalog: Catalog, backend: str, *, budget: int) -> CatalogQueryService:
    return CatalogQueryService(
        catalog, backend=backend, cache_budget_bytes=budget
    )


def bench_backend(catalog: Catalog, backend: str) -> dict:
    """Cold and warm wall times for one backend."""
    statement = _statement(catalog)
    out: dict = {}
    # Cold scans: a 1-byte cache budget makes every view oversize for the
    # cache (the service's and per-worker alike), so each execute pays
    # the full segment-decode + view-build + aggregate path.
    with _service(catalog, backend, budget=1) as service:
        service.execute(statement)  # Untimed: pool spawn / first touch.
        start = time.perf_counter()
        for _ in range(_COLD_REPEATS):
            service.execute(statement)
        out["cold_s"] = (time.perf_counter() - start) / _COLD_REPEATS
    # Warm scans: everything resident (the service's cache inline, one
    # private cache per worker process), pure aggregate throughput.
    with _service(catalog, backend, budget=512 << 20) as service:
        service.execute(statement)  # Untimed: populates the cache(s).
        start = time.perf_counter()
        for _ in range(_WARM_REPEATS):
            service.execute(statement)
        out["warm_s"] = (time.perf_counter() - start) / _WARM_REPEATS
    print(
        f"{backend:>10}: cold {out['cold_s'] * 1e3:7.1f} ms, "
        f"warm {out['warm_s'] * 1e3:7.1f} ms "
        f"({_SERIES_COUNT} series x {_TIMES_PER_SERIES} times)"
    )
    return out


def bench_parity(catalog: Catalog) -> bool:
    """Canonical result bytes must match across both backends."""
    statements = _parity_statements(catalog)
    payloads: list[list[str]] = []
    for backend in ("sequential", "process"):
        with _service(catalog, backend, budget=512 << 20) as service:
            payloads.append(
                [
                    canonical_dumps(serialize_result(service.execute(s)))
                    for s in statements
                ]
            )
    identical = payloads[0] == payloads[1]
    print(f"bit-identical across backends: {identical}")
    return identical


@contextlib.contextmanager
def _shm_disabled():
    """Force the process backend onto the plain-pickle transport."""
    previous = os.environ.get("REPRO_SHM_TRANSPORT")
    os.environ["REPRO_SHM_TRANSPORT"] = "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_SHM_TRANSPORT"]
        else:
            os.environ["REPRO_SHM_TRANSPORT"] = previous


def bench_shm_transport(catalog: Catalog) -> dict:
    """Shared-memory vs pickle result transport on the process backend.

    Runs the parity statement set twice through process services — once
    with the default (shared-memory where available) transport and once
    with ``REPRO_SHM_TRANSPORT=0`` — and records both transport counter
    blocks plus whether the canonical bytes matched.  The parity bit is
    gated (transports must never change an answer); the counters are
    recorded for the regression baseline's context.
    """
    statements = _parity_statements(catalog)
    out: dict = {"available": shm_available()}
    with _service(catalog, "process", budget=512 << 20) as service:
        default_payload = [
            canonical_dumps(serialize_result(service.execute(s)))
            for s in statements
        ]
        out["stats"] = service.backend.transport_stats()
    with _shm_disabled():
        with _service(catalog, "process", budget=512 << 20) as service:
            pickle_payload = [
                canonical_dumps(serialize_result(service.execute(s)))
                for s in statements
            ]
            out["pickle_stats"] = service.backend.transport_stats()
    out["pickle_parity"] = default_payload == pickle_payload
    print(
        f"shm transport: mode={out['stats']['mode']}, "
        f"shm_chunks={out['stats'].get('shm_chunks', 0)}, "
        f"shm_bytes={out['stats'].get('shm_bytes', 0)}, "
        f"fallbacks={out['stats'].get('shm_fallbacks', 0)}; "
        f"pickle parity: {out['pickle_parity']}"
    )
    return out


def run_benchmark() -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="bench_backends_"))
    try:
        catalog = build_catalog(workdir)
        backends = {
            name: bench_backend(catalog, name)
            for name in ("sequential", "process")
        }
        bit_identical = bench_parity(catalog)
        shm_transport = bench_shm_transport(catalog)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = {
        "quick": _QUICK,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "series_count": _SERIES_COUNT,
        "times_per_series": _TIMES_PER_SERIES,
        "grid": {"delta": _GRID.delta, "n": _GRID.n},
        "H": _H,
        "segment_layout": "v2",
        "statement": f"SELECT {_AGGREGATE} FROM CATALOG '<root>'",
        "backends": backends,
        "headline": {
            # Throughput ratios (higher = process wins), recorded on
            # every run and gated nowhere: CI tracks the trend.
            "process_vs_sequential": (
                backends["sequential"]["cold_s"]
                / backends["process"]["cold_s"]
            ),
            "warm_process_vs_sequential": (
                backends["sequential"]["warm_s"]
                / backends["process"]["warm_s"]
            ),
        },
        "shm_transport": shm_transport,
        "bit_identical": bit_identical,
    }
    _OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {_OUTPUT}")
    return results


# ----------------------------------------------------------------------
# Pytest entry points (the acceptance floors).
# ----------------------------------------------------------------------
_RESULTS: dict | None = None


def _results() -> dict:
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = run_benchmark()
    return _RESULTS


def test_backends_bit_identical():
    assert _results()["bit_identical"], (
        "sequential/process produced different canonical bytes"
    )


def test_shm_and_pickle_transports_agree():
    # Gated on every host: the result transport must never change an
    # answer, whether shm is available or the pickle fallback ran.
    assert _results()["shm_transport"]["pickle_parity"], (
        "process backend produced different canonical bytes under the "
        "shm and pickle result transports"
    )


def test_process_overhead_bounded_on_any_host():
    # Even where processes cannot win (1 core), chunked IPC must keep the
    # machinery from collapsing: no order-of-magnitude faceplant.
    ratio = _results()["headline"]["process_vs_sequential"]
    assert ratio >= 0.1, (
        f"process backend {ratio:.2f}x sequential throughput — IPC "
        "overhead has grown pathological"
    )


if __name__ == "__main__":
    run_benchmark()
