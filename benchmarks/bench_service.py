"""Catalog-wide query service benchmark: the cache gap.

One claim backs the `repro.service` design, recorded in
``BENCH_service.json`` at the repo root:

**The matrix cache pays**: a warm statement over a 200-series catalog
(materialised views resident in the byte-budgeted LRU cache) skips every
segment reload and runs several times faster than a cold one.

Run directly (``python benchmarks/bench_service.py``) or via pytest
(``pytest benchmarks/bench_service.py``); the pytest entries assert the
floors.  Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) to shrink
the catalog ~5x while keeping the same shape.
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

from repro.service import CatalogQueryService, MatrixCache
from repro.store import Catalog
from repro.view.omega import OmegaGrid

_QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
_GRID = OmegaGrid(delta=0.5, n=8)
_H = 40
_SERIES_COUNT = 40 if _QUICK else 200
_TIMES_PER_SERIES = 150 if _QUICK else 400
_CACHE_BUDGET = 512 << 20
_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_service.json"


def _time(function, *, repeat: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def build_catalog(workdir: Path) -> Catalog:
    """A many-series catalog of independent random walks."""
    catalog = Catalog(workdir / "catalog")
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


def _statement(catalog: Catalog) -> str:
    return f"SELECT exceedance(21.0) FROM CATALOG '{catalog.root}'"


def bench_cache_gap(catalog: Catalog) -> dict:
    """Cold-vs-warm gap on one long-lived service."""
    statement = _statement(catalog)
    cache = MatrixCache(_CACHE_BUDGET)
    service = CatalogQueryService(catalog, cache=cache)

    def cold_run():
        cache.clear()
        return service.execute(statement)

    cold_s, _ = _time(cold_run, repeat=3)
    warm_s, _ = _time(lambda: service.execute(statement), repeat=5)
    stats = cache.stats
    out = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s,
        "cached_entries": stats.entries,
        "cached_bytes": stats.current_bytes,
        "hit_rate": stats.hit_rate,
    }
    print(
        f"cache gap: cold {cold_s * 1e3:7.1f} ms, "
        f"warm {warm_s * 1e3:7.1f} ms ({out['warm_speedup']:.1f}x, "
        f"{stats.entries} views / {stats.current_bytes / 1e6:.1f} MB resident)"
    )
    return out


def run_benchmark() -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="bench_service_"))
    try:
        catalog = build_catalog(workdir)
        cache = bench_cache_gap(catalog)
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
        "statement": "SELECT exceedance(21.0) FROM CATALOG '<root>'",
        "cache_gap": cache,
        "headline": {"warm_speedup": cache["warm_speedup"]},
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


def test_warm_cache_beats_cold_reads():
    results = _results()
    speedup = results["cache_gap"]["warm_speedup"]
    floor = 2.0
    assert speedup >= floor, (
        f"warm statement only {speedup:.1f}x faster than cold over "
        f"{results['series_count']} series (floor {floor}x)"
    )


def test_cache_holds_every_series():
    results = _results()
    assert results["cache_gap"]["cached_entries"] == results["series_count"]
    assert results["cache_gap"]["hit_rate"] > 0.0


if __name__ == "__main__":
    run_benchmark()
