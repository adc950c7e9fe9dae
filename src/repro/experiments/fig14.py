"""Fig. 14 — sigma-cache efficiency and scaling.

(a) Time to evaluate the probabilistic view generation query with and
    without the sigma-cache as the database grows through
    {6 000, 10 000, 14 000, 18 000} tuples, with the paper's view
    parameters Delta = 0.05, n = 300 and distance constraint H' = 0.01.
    Expected shape: the cache wins by roughly an order of magnitude at 18k
    tuples (paper: 9.6x).

(b) Cache memory versus the maximum ratio threshold
    Ds in {2 000, 4 000, 8 000, 16 000} (log-x in the paper): the stored
    distribution count — and hence the size — grows logarithmically in Ds.

The query operates on *stored* densities (the framework persists
``p_t(R_t)`` as it streams, Section II-A), so the workload generator
synthesises a realistic mean/volatility sequence directly rather than
re-running a metric over 18k windows; the timed code path is
:meth:`ViewBuilder.build_matrix` with and without the cache — the call
every view takes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.common import ExperimentTable, get_scale
from repro.metrics.base import DensitySeries
from repro.util.rng import ensure_rng
from repro.view.builder import ViewBuilder
from repro.view.omega import OmegaGrid
from repro.view.sigma_cache import SigmaCache

__all__ = ["run_fig14a", "run_fig14b", "synthetic_density_series"]

DATABASE_SIZES = (6000, 10000, 14000, 18000)
RATIO_THRESHOLDS = (2000.0, 4000.0, 8000.0, 16000.0)

#: The paper's Fig. 14 view parameters.
PAPER_DELTA = 0.05
PAPER_N = 300
PAPER_DISTANCE = 0.01


def synthetic_density_series(
    n: int, rng: int | np.random.Generator | None = None
) -> DensitySeries:
    """Stored-density workload: smooth means, log-random-walk volatilities.

    Mimics what the framework persists after running a GARCH metric over a
    long temperature stream: slowly varying means and volatilities spanning
    roughly two orders of magnitude with strong temporal correlation (the
    property the sigma-cache exploits).
    """
    generator = ensure_rng(rng)
    t = np.arange(n)
    means = 14.0 + 6.0 * np.sin(2.0 * np.pi * t / 720.0)
    log_sigma = np.cumsum(generator.normal(0.0, 0.03, size=n))
    log_sigma = log_sigma - log_sigma.mean()
    scale = 2.0 / max(float(np.max(np.abs(log_sigma))), 1e-9)
    sigmas = np.exp(log_sigma * min(scale, 1.0)) * 0.3
    return DensitySeries.from_columns(
        t, means, sigmas, means - 3.0 * sigmas, means + 3.0 * sigmas
    )


def run_fig14a(
    scale: float | None = None,
    sizes: tuple[int, ...] = DATABASE_SIZES,
    rng_seed: int = 0,
) -> ExperimentTable:
    """Naive vs cached view-generation time as the database grows."""
    get_scale(scale)  # Validated for interface consistency; sizes are cheap
    # enough to run unscaled, matching the paper exactly.
    grid = OmegaGrid(delta=PAPER_DELTA, n=PAPER_N)
    table = ExperimentTable(
        experiment_id="Fig. 14a",
        title="Impact of the sigma-cache on view generation time",
        headers=[
            "tuples", "naive (ms)", "sigma-cache (ms)", "speedup",
            "cached distributions",
        ],
        notes=(
            f"Delta={PAPER_DELTA}, n={PAPER_N}, distance H'={PAPER_DISTANCE}; "
            "paper reports 9.6x at 18k tuples"
        ),
    )
    for size in sizes:
        forecasts = synthetic_density_series(size, rng=rng_seed)
        naive_builder = ViewBuilder(grid)
        start = time.perf_counter()
        naive_matrix = naive_builder.build_matrix(forecasts)
        naive_ms = 1000.0 * (time.perf_counter() - start)

        cached_builder = naive_builder.with_cache_for(
            forecasts, distance_constraint=PAPER_DISTANCE
        )
        start = time.perf_counter()
        cached_matrix = cached_builder.build_matrix(forecasts)
        cached_ms = 1000.0 * (time.perf_counter() - start)

        assert len(naive_matrix) == len(cached_matrix)
        assert cached_builder.cache is not None
        table.add_row(
            size,
            round(naive_ms, 2),
            round(cached_ms, 2),
            round(naive_ms / max(cached_ms, 1e-9), 2),
            len(cached_builder.cache),
        )
    return table


def run_fig14b(
    scale: float | None = None,
    ratios: tuple[float, ...] = RATIO_THRESHOLDS,
) -> ExperimentTable:
    """Cache size vs the maximum ratio threshold Ds (log growth expected)."""
    get_scale(scale)
    grid = OmegaGrid(delta=PAPER_DELTA, n=PAPER_N)
    table = ExperimentTable(
        experiment_id="Fig. 14b",
        title="Scaling behaviour of the sigma-cache",
        headers=["max ratio Ds", "distributions", "cache size (kB)"],
        notes=(
            "distance H'=0.01; doubling Ds adds a constant number of "
            "distributions (logarithmic growth)"
        ),
    )
    for ratio in ratios:
        cache = SigmaCache(
            grid,
            min_sigma=0.01,
            max_sigma=0.01 * ratio,
            distance_constraint=PAPER_DISTANCE,
        )
        table.add_row(
            ratio, len(cache), round(cache.size_bytes() / 1024.0, 1)
        )
    return table
