"""The Omega-view builder (paper Section VI, eq. 9).

Turns a :class:`~repro.metrics.base.DensitySeries` into the rows of a
tuple-independent probabilistic view: for every inference time ``t`` and
every range ``omega_lambda = [r_hat_t + lambda*Delta, r_hat_t + (lambda+1)*Delta]``,

    rho_lambda = P_t(r_hat_t + (lambda+1)*Delta) - P_t(r_hat_t + lambda*Delta).

:meth:`ViewBuilder.build_matrix` evaluates a whole density series at once
into a columnar :class:`ProbabilityMatrix`.  The Gaussian rows are served
either by one broadcasted CDF call over the ``(T, n + 1)`` edge matrix or,
when a :class:`SigmaCache` is attached, by one ``searchsorted`` floor lookup
over the cached sigma keys — valid because a Gaussian row depends only on
``sigma_hat_t`` after the mean shift.  The uniform rows (the
uniform-thresholding metric) take one broadcasted uniform-CDF call over
their edges, so mixed density series are evaluated column-wise too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions import gaussian_cdf, uniform_cdf
from repro.exceptions import InvalidParameterError
from repro.metrics.base import DensitySeries
from repro.view.omega import OmegaGrid
from repro.view.sigma_cache import SigmaCache

__all__ = ["ProbabilityMatrix", "ViewBuilder"]


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Columnar builder output: all range probabilities for all times.

    Row ``i`` of ``probabilities`` holds ``rho_lambda`` for
    ``lambda = -n/2 .. n/2 - 1`` at inference time ``t[i]``, the ranges
    centred on ``mean[i]``; ``volatility[i]`` is the forecast sigma (the
    cache key when the cached path was used).
    :class:`~repro.db.prob_view.ProbabilisticView` consumes it via
    ``from_matrix`` without materialising per-tuple objects.
    """

    t: np.ndarray
    mean: np.ndarray
    volatility: np.ndarray
    probabilities: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    @property
    def total_mass(self) -> np.ndarray:
        """Per-time probability mass captured by the grid."""
        return np.sum(self.probabilities, axis=1)


class ViewBuilder:
    """Evaluates the probability value generation query of Definition 2.

    Parameters
    ----------
    grid:
        The Omega view parameters ``(Delta, n)``.
    cache:
        Optional :class:`SigmaCache`; when present, Gaussian forecasts are
        served from it.

    Examples
    --------
    >>> from repro.metrics.base import DensitySeries
    >>> forecasts = DensitySeries.from_columns(
    ...     [5], [1.0], [2.0], [-5.0], [7.0], variance=[4.0])
    >>> builder = ViewBuilder(OmegaGrid(delta=1.0, n=4))
    >>> matrix = builder.build_matrix(forecasts)
    >>> float(np.round(matrix.total_mass[0], 3))
    0.683
    """

    def __init__(self, grid: OmegaGrid, cache: SigmaCache | None = None) -> None:
        if cache is not None and cache.grid != grid:
            raise InvalidParameterError(
                f"cache was built for grid {cache.grid!r}, not {grid!r}"
            )
        self.grid = grid
        self.cache = cache

    # ------------------------------------------------------------------
    # Row generation.
    # ------------------------------------------------------------------
    def build_matrix(self, forecasts: DensitySeries) -> ProbabilityMatrix:
        """Evaluate eq. (9) for a whole density series in one shot.

        Gaussian rows are served either from one broadcasted CDF call over
        the ``(T, n + 1)`` edge matrix or, when a cache is attached, from
        one vectorised floor lookup over the cached sigma keys.  Uniform
        rows take one broadcasted uniform-CDF call over their edges.
        """
        count = len(forecasts)
        means = np.asarray(forecasts.means, dtype=float)
        vols = np.asarray(forecasts.volatilities, dtype=float)
        probabilities = np.empty((count, self.grid.n))
        mask, mu, sigma = forecasts.gaussian_params()
        if np.any(mask):
            if self.cache is not None:
                probabilities[mask] = self.cache.probability_rows(vols[mask])
            else:
                edges = self.grid.edges_matrix(means[mask])
                cdf = gaussian_cdf(edges, mu[mask, None], sigma[mask, None])
                probabilities[mask] = np.diff(cdf, axis=1)
        uniform = ~mask
        if np.any(uniform):
            edges = self.grid.edges_matrix(means[uniform])
            cdf = uniform_cdf(
                edges,
                forecasts.lowers[uniform, None],
                forecasts.uppers[uniform, None],
            )
            probabilities[uniform] = np.diff(cdf, axis=1)
        return ProbabilityMatrix(
            t=np.asarray(forecasts.times, dtype=np.int64),
            mean=means,
            volatility=vols,
            probabilities=probabilities,
        )

    # ------------------------------------------------------------------
    # Cache construction helper.
    # ------------------------------------------------------------------
    def with_cache_for(
        self,
        forecasts: DensitySeries,
        distance_constraint: float | None = None,
        memory_constraint: int | None = None,
    ) -> "ViewBuilder":
        """Return a builder whose cache is sized for ``forecasts``.

        Computes ``min(sigma_hat_t)`` / ``max(sigma_hat_t)`` over the
        forecasts matching the query — the paper's procedure for setting up
        the cache from the WHERE clause — and builds the sigma grid.
        """
        volatilities = forecasts.volatilities
        cache = SigmaCache(
            self.grid,
            min_sigma=float(np.min(volatilities)),
            max_sigma=float(np.max(volatilities)),
            distance_constraint=distance_constraint,
            memory_constraint=memory_constraint,
        )
        return ViewBuilder(self.grid, cache)
