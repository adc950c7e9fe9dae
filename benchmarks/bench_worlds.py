"""Possible-worlds benchmark: SIMULATE throughput and shared-scan savings.

Two claims back the worlds/plan-tree work, recorded in
``BENCH_worlds.json`` at the repo root:

1. **Seeded SIMULATE is bit-identical across backends**: the same
   ``SIMULATE n SEED s`` statement serialises to the same canonical JSON
   bytes on the sequential and process backends (deterministic
   per-series seeding).  Recorded as ``bit_identical`` and gated as a
   boolean; the sampling throughput (``worlds_per_s``) is recorded for
   the curious but never gated — it is machine-absolute.
2. **Multi-aggregate select lists share the scan**: one
   ``SELECT a, b, c`` statement beats running a, b, and c as three
   separate cold statements, because the per-series views are
   materialised once and reused by every kernel.  The result stays
   bit-identical to the three standalone runs (``multi_identical``,
   gated as a boolean) and the cold-vs-cold speedup is gated with a
   modest floor.

Run directly (``python benchmarks/bench_worlds.py``) or via pytest
(``pytest benchmarks/bench_worlds.py``); the pytest entries assert the
floors.  Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) to shrink
the catalog while keeping the same shape.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.server.protocol import canonical_dumps, serialize_result
from repro.service import CatalogQueryService
from repro.store import Catalog
from repro.view.omega import OmegaGrid

_QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
_GRID = OmegaGrid(delta=0.5, n=4)
_H = 16
_SERIES_COUNT = 12 if _QUICK else 60
_TIMES_PER_SERIES = 120
_N_WORLDS = 8 if _QUICK else 16
_SEED = 7
_CACHE_BUDGET = 256 << 20
_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_worlds.json"

_AGGREGATES = ("threshold(0.4)", "expected_value", "exceedance(21)")


def _time(function, *, repeat: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def build_catalog(workdir: Path) -> Catalog:
    catalog = Catalog(workdir / "catalog")
    rng = np.random.default_rng(42)
    total = _H + _TIMES_PER_SERIES
    for index in range(_SERIES_COUNT):
        series_id = f"sensor-{index:04d}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=_H, grid=_GRID
        )
        values = 20.0 + np.cumsum(rng.normal(0.0, 0.1, size=total))
        catalog.append(series_id, values)
    return catalog


def bench_simulate(catalog: Catalog) -> tuple[dict, bool]:
    """SIMULATE wall time + worlds/sec, and cross-backend bit-identity."""
    statement = (
        f"SIMULATE {_N_WORLDS} SEED {_SEED} FROM CATALOG '{catalog.root}'"
    )
    wires: dict[str, str] = {}
    timings: dict[str, float] = {}
    for backend in ("sequential", "process"):
        with CatalogQueryService(
            catalog, backend=backend, cache_budget_bytes=_CACHE_BUDGET
        ) as service:
            service.execute(statement)  # warm the cache / worker pools

            elapsed, result = _time(
                lambda: service.execute(statement), repeat=3
            )
            timings[backend] = elapsed
            wires[backend] = canonical_dumps(serialize_result(result))
    identical = wires["sequential"] == wires["process"]
    total_worlds = _N_WORLDS * _SERIES_COUNT
    out = {
        "statement": statement,
        "n_worlds": _N_WORLDS,
        "series_count": _SERIES_COUNT,
        "times_per_series": _TIMES_PER_SERIES,
        "warm_s": timings,
        "worlds_per_s": {
            backend: total_worlds / elapsed
            for backend, elapsed in timings.items()
        },
    }
    for backend, elapsed in timings.items():
        print(
            f"simulate[{backend}]: {elapsed * 1e3:8.1f} ms warm "
            f"({total_worlds / elapsed:8.0f} worlds/s)"
        )
    print(f"simulate bit-identical across backends: {identical}")
    return out, identical


def bench_multi_aggregate(catalog: Catalog) -> tuple[dict, bool]:
    """One multi-aggregate statement vs N cold single statements."""
    multi_statement = (
        f"SELECT {', '.join(_AGGREGATES)} FROM CATALOG '{catalog.root}'"
    )
    singles = [
        f"SELECT {body} FROM CATALOG '{catalog.root}'"
        for body in _AGGREGATES
    ]
    with CatalogQueryService(
        catalog, backend="sequential", cache_budget_bytes=_CACHE_BUDGET
    ) as service:

        def multi_run():
            service.cache.clear()
            return service.execute(multi_statement)

        def singles_run():
            results = []
            for statement in singles:
                # Each single statement pays its own cold scan — the
                # one-shot-invocation shape the select list replaces.
                service.cache.clear()
                results.append(service.execute(statement))
            return results

        multi_s, multi_result = _time(multi_run, repeat=3)
        singles_s, single_results = _time(singles_run, repeat=3)
    multi_wires = [
        canonical_dumps(wire)
        for wire in serialize_result(multi_result)["statements"]
    ]
    single_wires = [
        canonical_dumps(serialize_result(result))
        for result in single_results
    ]
    identical = multi_wires == single_wires
    out = {
        "statement": multi_statement,
        "aggregates": list(_AGGREGATES),
        "multi_cold_s": multi_s,
        "singles_cold_s": singles_s,
        "shared_scan_speedup": singles_s / multi_s,
    }
    print(
        f"multi-aggregate: {multi_s * 1e3:8.1f} ms vs "
        f"{singles_s * 1e3:8.1f} ms as {len(_AGGREGATES)} singles "
        f"({out['shared_scan_speedup']:.2f}x); identical: {identical}"
    )
    return out, identical


def run_benchmark() -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="bench_worlds_"))
    try:
        build_s, catalog = _time(lambda: build_catalog(workdir))
        print(f"built {_SERIES_COUNT} series in {build_s:.1f} s")
        simulate, bit_identical = bench_simulate(catalog)
        multi, multi_identical = bench_multi_aggregate(catalog)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = {
        "quick": _QUICK,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "series_count": _SERIES_COUNT,
        "grid": {"delta": _GRID.delta, "n": _GRID.n},
        "H": _H,
        "simulate": simulate,
        "multi_aggregate": multi,
        "bit_identical": bit_identical,
        "multi_identical": multi_identical,
        "headline": {
            "simulate_worlds_per_s": simulate["worlds_per_s"]["sequential"],
            "shared_scan_speedup": multi["shared_scan_speedup"],
        },
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


def test_simulate_bit_identical_across_backends():
    assert _results()["bit_identical"], (
        "seeded SIMULATE serialised differently across backends"
    )


def test_multi_aggregate_matches_single_statements():
    assert _results()["multi_identical"], (
        "multi-aggregate select list differs from standalone statements"
    )


def test_multi_aggregate_shares_the_scan():
    results = _results()
    speedup = results["headline"]["shared_scan_speedup"]
    floor = 1.1
    assert speedup >= floor, (
        f"multi-aggregate statement only {speedup:.2f}x faster than "
        f"{len(_AGGREGATES)} cold single statements (floor {floor}x)"
    )


if __name__ == "__main__":
    run_benchmark()
