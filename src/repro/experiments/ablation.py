"""Ablations of the design decisions called out in DESIGN.md.

Three micro-studies, each isolating one implementation choice:

1. **GARCH warm-start** — seeding each rolling GARCH fit with the previous
   window's optimum vs cold multi-start: time per inference and density
   distance must show the speedup is quality-neutral.
2. **Analytic gradient** — the closed-form GARCH(1,1) gradient vs scipy's
   finite differences inside L-BFGS-B.
3. **Cache payload** — storing ready probability rows (CDF diffs) vs
   recomputing the Gaussian CDF at lookup time from the matched key.

Studies 1 and 2 also report likelihood evaluations per fit: the count
behind their time column, and the one that does not depend on the host.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize

from repro.data.synthetic import make_dataset
from repro.distributions import gaussian_cdf
from repro.evaluation.density_distance import density_distance
from repro.experiments.common import ExperimentTable, get_scale, steps_for
from repro.experiments.fig14 import synthetic_density_series
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.timeseries.garch import GARCHModel
from repro.view.omega import OmegaGrid
from repro.view.sigma_cache import SigmaCache

__all__ = ["run_ablation"]


def run_ablation(scale: float | None = None, rng_seed: int = 0) -> ExperimentTable:
    """Run all three ablations; one row per variant."""
    scale = get_scale(scale)
    table = ExperimentTable(
        experiment_id="Ablation",
        title="Design-decision ablations (DESIGN.md Section 6)",
        headers=[
            "study", "variant", "time (ms)", "quality", "evaluations per fit",
        ],
        notes=(
            "quality column: density distance for metric studies, max "
            "probability-row error for cache studies, '-' when untimed "
            "quality is identical by construction; evaluations per fit: "
            "objective calls L-BFGS-B made, '-' where nothing is fitted"
        ),
    )
    _ablate_warm_start(table, scale, rng_seed)
    _ablate_gradient(table, rng_seed)
    _ablate_cache_payload(table, rng_seed)
    return table


def _ablate_warm_start(table: ExperimentTable, scale: float, rng_seed: int) -> None:
    series = make_dataset("campus", scale=max(scale, 0.03), rng=rng_seed)
    H = 60
    budget = max(40, int(400 * scale))
    step = steps_for(len(series) - H, budget)
    for label, warm in (("warm-start", True), ("cold multi-start", False)):
        metric = ARMAGARCHMetric(warm_start=warm)
        start = time.perf_counter()
        forecasts = metric.run(series, H, step=step)
        elapsed = time.perf_counter() - start
        table.add_row(
            "garch estimation",
            label,
            round(1000.0 * elapsed / len(forecasts), 3),
            round(density_distance(forecasts, series), 4),
            round(metric.garch_evaluations_ / len(forecasts), 1),
        )


def _ablate_gradient(table: ExperimentTable, rng_seed: int) -> None:
    rng = np.random.default_rng(rng_seed)
    windows = [rng.standard_normal(120) * (1.0 + 0.5 * i) for i in range(20)]

    def fit_analytic() -> int:
        return sum(GARCHModel().fit(window).evaluations_ for window in windows)

    def fit_numeric() -> int:
        model = GARCHModel()
        evaluations = 0
        for window in windows:
            # Same objective through scipy's finite-difference gradient.
            base_variance = float(np.var(window))
            bounds = [(1e-10, None), (0.0, 0.9995), (0.0, 0.9995)]

            def objective(theta):
                return -model._log_likelihood(window, model._unpack(theta))

            for start in model._starting_points(base_variance):
                evaluations += optimize.minimize(
                    objective, start, method="L-BFGS-B", bounds=bounds,
                    options={"maxiter": 200},
                ).nfev
        return evaluations

    for label, fn in (("analytic gradient", fit_analytic),
                      ("finite differences", fit_numeric)):
        start = time.perf_counter()
        evaluations = fn()
        elapsed = time.perf_counter() - start
        table.add_row(
            "garch(1,1) mle", label,
            round(1000.0 * elapsed / len(windows), 3), "-",
            round(evaluations / len(windows), 1),
        )


def _ablate_cache_payload(table: ExperimentTable, rng_seed: int) -> None:
    grid = OmegaGrid(delta=0.05, n=300)
    forecasts = synthetic_density_series(4000, rng=rng_seed)
    sigmas = forecasts.volatilities
    cache = SigmaCache(
        grid, float(sigmas.min()), float(sigmas.max()), distance_constraint=0.01
    )
    edges = grid.edges_around(0.0)
    keys = cache.keys()

    def rows_from_cache() -> float:
        worst = 0.0
        for sigma in sigmas:
            row = cache.probability_row(float(sigma))
            worst = max(worst, float(row[0]))
        return worst

    def rows_recomputed() -> float:
        worst = 0.0
        for sigma in sigmas:
            index = int(np.searchsorted(keys, sigma, side="right")) - 1
            key = keys[max(index, 0)]
            row = np.diff(gaussian_cdf(edges, 0.0, key))
            worst = max(worst, float(row[0]))
        return worst

    for label, fn in (("stored rho rows", rows_from_cache),
                      ("recompute CDF per hit", rows_recomputed)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        table.add_row(
            "sigma-cache payload", label,
            round(1000.0 * elapsed, 2), "-", "-",
        )

