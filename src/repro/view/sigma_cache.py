"""The sigma-cache (paper Section VI-A/B, Fig. 9).

Key observation: the *shape* of a Gaussian CDF is fully determined by its
standard deviation; the mean only translates it.  Because the Omega ranges
are themselves centred on the mean (``r_hat_t + lambda * Delta``), the
probability row ``{rho_lambda}`` of eq. (9) depends *only* on ``sigma_t`` —
so rows computed for one time can be reused at any other time with a similar
sigma.

The cache pre-computes rows for a geometric grid of sigmas
``sigma_q = d_s^q * min(sigma)`` and serves a query sigma from the greatest
grid key below it (floor lookup on the sorted key array), which by
Theorem 1 keeps the Hellinger approximation error within the distance
constraint used to choose ``d_s``.  Theorem 2 bounds the number of stored
rows for a memory constraint.  The stored row count is ``ceil(Q) + 1``
where ``max(sigma) = d_s^Q * min(sigma)`` — the ``+ 1`` stores the minimum
sigma itself so every query has a key below it (see DESIGN.md).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.distributions import gaussian_cdf
from repro.exceptions import CacheConstraintError, InvalidParameterError
from repro.util.arrays import readonly_view
from repro.view.hellinger import (
    ratio_threshold_for_distance,
    ratio_threshold_for_memory,
)
from repro.view.omega import OmegaGrid

__all__ = ["SigmaCache", "CacheStatistics"]


@dataclass
class CacheStatistics:
    """Hit/miss counters and sizing facts for one cache instance."""

    hits: int = 0
    misses: int = 0
    n_distributions: int = 0
    ratio_threshold: float = 1.0
    max_ratio: float = 1.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class SigmaCache:
    """Pre-computed probability rows keyed by standard deviation.

    Parameters
    ----------
    grid:
        The Omega view parameters ``(Delta, n)``; cached rows hold the
        ``n`` probabilities ``rho_lambda`` of eq. (9) for a zero-mean
        Gaussian of the keyed sigma.
    min_sigma, max_sigma:
        The extremes of ``sigma_hat_t`` over the tuples the query matches
        (the paper computes them from the WHERE clause).
    distance_constraint:
        User bound ``H'`` on the Hellinger approximation error; converted
        to the ratio threshold ``d_s`` by Theorem 1.
    memory_constraint:
        Maximum number of stored distributions ``Q'``; converted to a lower
        bound on ``d_s`` by Theorem 2.  At least one of the two constraints
        must be given.  When both are given the memory bound takes
        precedence only if it is compatible with the distance bound,
        otherwise :class:`CacheConstraintError` is raised (the give-and-take
        trade-off discussed in the paper).

    Examples
    --------
    >>> cache = SigmaCache(OmegaGrid(0.1, 4), min_sigma=0.5, max_sigma=5.0,
    ...                    distance_constraint=0.05)
    >>> row = cache.probability_row(2.0)
    >>> len(row) == 4
    True
    """

    def __init__(
        self,
        grid: OmegaGrid,
        min_sigma: float,
        max_sigma: float,
        distance_constraint: float | None = None,
        memory_constraint: int | None = None,
    ) -> None:
        if min_sigma <= 0 or not math.isfinite(min_sigma):
            raise InvalidParameterError(f"min_sigma must be > 0, got {min_sigma}")
        if max_sigma < min_sigma or not math.isfinite(max_sigma):
            raise InvalidParameterError(
                f"max_sigma must be >= min_sigma, got {max_sigma} < {min_sigma}"
            )
        if distance_constraint is None and memory_constraint is None:
            raise InvalidParameterError(
                "provide at least one of distance_constraint / memory_constraint"
            )
        self.grid = grid
        self.min_sigma = float(min_sigma)
        self.max_sigma = float(max_sigma)
        self.distance_constraint = distance_constraint
        self.memory_constraint = memory_constraint
        max_ratio = self.max_sigma / self.min_sigma  # D_s of eq. (12).
        ratio = self._choose_ratio(max_ratio)
        self._ratio = ratio
        self._populate()
        self.stats = CacheStatistics(
            n_distributions=len(self),
            ratio_threshold=ratio,
            max_ratio=max_ratio,
        )

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def _choose_ratio(self, max_ratio: float) -> float:
        """Pick ``d_s`` honouring the given constraint(s)."""
        upper = None  # Largest d_s allowed by the distance constraint.
        lower = None  # Smallest d_s allowed by the memory constraint.
        if self.distance_constraint is not None:
            upper = ratio_threshold_for_distance(self.distance_constraint)
        if self.memory_constraint is not None:
            if self.memory_constraint < 1:
                raise InvalidParameterError(
                    f"memory_constraint must be >= 1, got {self.memory_constraint}"
                )
            lower = ratio_threshold_for_memory(
                max(max_ratio, 1.0), self.memory_constraint
            )
        if upper is not None and lower is not None:
            if lower > upper:
                raise CacheConstraintError(
                    f"distance constraint requires d_s <= {upper:.6g} but the "
                    f"memory constraint requires d_s >= {lower:.6g}; relax one"
                )
            # Tightest memory use that still honours the error bound.
            return upper
        if upper is not None:
            return upper
        assert lower is not None
        return lower

    def _populate(self) -> None:
        """Pre-compute rows for sigma_q = d_s^q * min_sigma, q = 0..ceil(Q)."""
        if self._ratio <= 1.0:
            raise CacheConstraintError(
                "ratio threshold d_s collapsed to 1: the distance constraint "
                "is too tight to cache anything (every sigma would need its "
                "own distribution)"
            )
        max_ratio = self.max_sigma / self.min_sigma
        if max_ratio <= 1.0:
            q_count = 0
        else:
            # The 1e-9 slack absorbs float error when d_s was derived from
            # the memory constraint as exactly max_ratio^(1/Q').
            q_count = math.ceil(
                math.log(max_ratio) / math.log(self._ratio) - 1e-9
            )
        edges = self.grid.edges_around(0.0)  # Mean-shifted: centre at zero.
        # Keys ascending, one probability row per key.
        sigmas = [self.min_sigma * self._ratio**q for q in range(q_count + 1)]
        self._keys_array = np.array(sigmas)
        self._rows_matrix = np.diff(
            gaussian_cdf(edges, 0.0, self._keys_array[:, None]), axis=1
        )

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def probability_row(self, sigma: float) -> np.ndarray:
        """Return the cached ``rho_lambda`` row approximating ``sigma``.

        Performs the floor lookup of Theorem 1 (greatest cached sigma not
        above the query).  Sigmas below the declared minimum are clamped to
        it; sigmas above the declared maximum are served from the top key,
        whose error remains bounded as long as the declaration was honest.
        """
        if sigma <= 0 or not math.isfinite(sigma):
            raise InvalidParameterError(f"sigma must be > 0, got {sigma}")
        index = bisect_right(self._keys_array, sigma) - 1
        if index < 0:
            # Below the declared minimum: clamp to the smallest key.
            self.stats.misses += 1
            return self._rows_matrix[0]
        self.stats.hits += 1
        return self._rows_matrix[index]

    def probability_rows(self, sigmas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`probability_row`: one ``(len(sigmas), n)`` matrix.

        Performs the floor lookup for every query sigma in a single
        ``searchsorted`` over the cached keys; sigmas below the declared
        minimum clamp to the smallest key and count as misses, exactly like
        the scalar path.
        """
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.size and (np.any(sigmas <= 0) or not np.all(np.isfinite(sigmas))):
            bad = sigmas[(sigmas <= 0) | ~np.isfinite(sigmas)][0]
            raise InvalidParameterError(f"sigma must be > 0, got {bad}")
        indices = np.searchsorted(self._keys_array, sigmas, side="right") - 1
        below = indices < 0
        self.stats.misses += int(np.count_nonzero(below))
        self.stats.hits += int(sigmas.size - np.count_nonzero(below))
        return self._rows_matrix[np.maximum(indices, 0)]

    def guaranteed_distance(self) -> float:
        """The Hellinger error bound implied by the chosen ``d_s``.

        Inverts eq. (11): the distance at ratio ``d_s`` is
        ``sqrt(1 - sqrt(2 d_s / (1 + d_s^2)))``.
        """
        ratio = self._ratio
        squared = 1.0 - math.sqrt(2.0 * ratio / (1.0 + ratio * ratio))
        return math.sqrt(max(squared, 0.0))

    # ------------------------------------------------------------------
    # Sizing.
    # ------------------------------------------------------------------
    @property
    def ratio_threshold(self) -> float:
        """The chosen ``d_s``."""
        return self._ratio

    def __len__(self) -> int:
        return self._keys_array.size

    def size_bytes(self) -> int:
        """Approximate memory footprint: keys + float64 probability rows."""
        per_row = 8 + self.grid.n * 8
        return len(self) * per_row

    def keys(self) -> np.ndarray:
        """The cached sigma keys in ascending order (for tests/inspection)."""
        return readonly_view(self._keys_array)

    def __repr__(self) -> str:
        return (
            f"SigmaCache(n={len(self)}, d_s={self._ratio:.6g}, "
            f"sigma=[{self.min_sigma:.6g}, {self.max_sigma:.6g}], "
            f"grid={self.grid!r})"
        )
