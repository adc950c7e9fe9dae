"""Possible-worlds semantics over created probabilistic views.

The paper's views are *block-independent-disjoint* databases: at one time
the range tuples are mutually exclusive alternatives (they partition the
value domain around ``r_hat_t``, plus a residual "outside the grid" world
carrying the leftover mass), while tuples at different times are
independent.  This module makes that semantics executable two ways:

* :func:`conjunctive_range_query` — exact probability of a conjunction of
  per-time range predicates (product over times of within-time sums);
* :class:`WorldSampler` / :func:`monte_carlo_query` — draw complete
  possible worlds and estimate arbitrary functionals by averaging, the
  MCDB approach (Jampani et al.) whose parameter-storage idea the paper
  says it inherits.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.db.prob_view import ProbabilisticView
from repro.exceptions import InvalidParameterError
from repro.util.rng import ensure_rng

__all__ = [
    "World",
    "WorldSampler",
    "MonteCarloEstimate",
    "conjunctive_range_query",
    "derive_series_seed",
    "monte_carlo_query",
]


def derive_series_seed(seed: int, series_id: str) -> int:
    """A per-series sampling seed, stable across processes and platforms.

    Mixes the statement-level seed with the series id through SHA-256 —
    never Python's ``hash()``, whose string hashing varies with
    ``PYTHONHASHSEED`` and therefore across spawn-started worker
    processes.  This is what makes ``SIMULATE n SEED s`` bit-identical on
    the sequential and process executor backends: each series'
    stream depends only on ``(seed, series_id)``, never on which worker
    ran it or in what order.
    """
    digest = hashlib.sha256(
        f"repro.worlds:{int(seed)}:{series_id}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")

#: Sampled value marking the residual "outside every range" alternative.
OUTSIDE = None


@dataclass(frozen=True)
class World:
    """One sampled possible world: a concrete value (or OUTSIDE) per time."""

    values: Mapping[int, float | None]

    def value_at(self, t: int) -> float | None:
        if t not in self.values:
            raise InvalidParameterError(f"world has no time {t}")
        return self.values[t]

    def in_range(self, t: int, low: float, high: float) -> bool:
        """True when the world's value at ``t`` exists and lies in range.

        The range is **half-open** — ``low <= value < high`` — matching
        the columnar reference semantics of
        :meth:`~repro.db.prob_view.ProbabilisticView.probability_at`, so
        Monte Carlo estimates of range indicators converge to
        :func:`conjunctive_range_query`'s exact answers.
        """
        value = self.value_at(t)
        return value is not None and low <= value < high


class WorldSampler:
    """Samples possible worlds from a tuple-independent view.

    Per time, one alternative is drawn according to the tuple
    probabilities; the leftover mass ``1 - sum(rho)`` selects the OUTSIDE
    world.  Within the chosen range the value is drawn uniformly — the
    maximum-entropy choice given only the range probability.
    """

    def __init__(self, view: ProbabilisticView) -> None:
        self.view = view
        self._times = view.times
        self._lows: dict[int, np.ndarray] = {}
        self._highs: dict[int, np.ndarray] = {}
        self._cumulative: dict[int, np.ndarray] = {}
        for t in self._times:
            tuples = view.tuples_at(t)
            self._lows[t] = np.array([tup.low for tup in tuples])
            self._highs[t] = np.array([tup.high for tup in tuples])
            probabilities = np.array([tup.probability for tup in tuples])
            self._cumulative[t] = np.cumsum(probabilities)

    def sample(self, rng: int | np.random.Generator | None = None) -> World:
        """Draw one complete world."""
        generator = ensure_rng(rng)
        values: dict[int, float | None] = {}
        for t in self._times:
            cumulative = self._cumulative[t]
            if cumulative.size == 0:
                # An empty tuple block carries no in-grid mass at all:
                # yield OUTSIDE deterministically, without consuming a
                # draw, so the stream stays aligned across views that
                # agree on their non-empty blocks.
                values[t] = OUTSIDE
                continue
            u = generator.uniform()
            if u >= cumulative[-1]:
                values[t] = OUTSIDE  # Residual mass outside the grid.
                continue
            # side="right" skips zero-probability alternatives: when u
            # lands exactly on a flat cumulative step, the first index
            # *past* the flat run is selected — a tuple with rho = 0 can
            # never be drawn.
            index = int(np.searchsorted(cumulative, u, side="right"))
            low = float(self._lows[t][index])
            high = float(self._highs[t][index])
            values[t] = float(generator.uniform(low, high))
        return World(values)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """An estimated functional with its Monte Carlo standard error."""

    mean: float
    standard_error: float
    n_samples: int

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI (default 95%)."""
        half = z * self.standard_error
        return self.mean - half, self.mean + half


def monte_carlo_query(
    view: ProbabilisticView,
    functional: Callable[[World], float],
    n_samples: int = 1000,
    rng: int | np.random.Generator | None = None,
) -> MonteCarloEstimate:
    """Estimate ``E[functional(world)]`` by sampling possible worlds.

    ``functional`` maps a :class:`World` to a number — e.g. an indicator
    ("was the temperature above 30 at any time?") or an aggregate (count
    of exceedances).

    >>> # P(any value above 100) over a view:
    >>> # monte_carlo_query(view, lambda w: float(any(
    >>> #     (v is not None and v > 100) for v in w.values.values())))
    """
    if n_samples < 2:
        raise InvalidParameterError(f"n_samples must be >= 2, got {n_samples}")
    generator = ensure_rng(rng)
    sampler = WorldSampler(view)
    samples = np.empty(n_samples)
    for index in range(n_samples):
        samples[index] = float(functional(sampler.sample(generator)))
    mean = float(np.mean(samples))
    standard_error = float(np.std(samples, ddof=1) / np.sqrt(n_samples))
    return MonteCarloEstimate(
        mean=mean, standard_error=standard_error, n_samples=n_samples
    )


def conjunctive_range_query(
    view: ProbabilisticView,
    predicates: Mapping[int, tuple[float, float]],
) -> float:
    """Exact P(value in range at *every* predicated time).

    Every predicate is **half-open** — ``low <= value < high``, matching
    :meth:`~repro.db.prob_view.ProbabilisticView.probability_at` and
    :meth:`World.in_range` — so a degenerate ``low == high`` predicate
    selects nothing (factor 0) and an *inverted* predicate
    (``high < low``) raises :class:`InvalidParameterError`.

    Exploits the view's block-independent-disjoint structure: within one
    time the overlapping tuples' masses add (mutually exclusive
    alternatives, with partial overlaps contributing proportionally);
    across times the factors multiply (independence).  Degenerate range
    tuples (``tup.low == tup.high``) are treated as point masses: they
    contribute their whole probability when the predicate contains the
    point, never a division by their zero width.

    >>> # P(temp in [20, 22) at t=60 AND temp in [21, 23) at t=61):
    >>> # conjunctive_range_query(view, {60: (20, 22), 61: (21, 23)})
    """
    if not predicates:
        raise InvalidParameterError("provide at least one time predicate")
    for t, (low, high) in predicates.items():
        if high < low:
            raise InvalidParameterError(
                f"predicate at time {t} has inverted range [{low}, {high}]"
            )
    probability = 1.0
    for t, (low, high) in predicates.items():
        if high == low:
            return 0.0  # [a, a) is empty under half-open semantics.
        mass = 0.0
        for tup in view.tuples_at(t):
            width = tup.high - tup.low
            if width <= 0.0:
                # Point-mass tuple: inside iff the half-open predicate
                # contains the point.
                if low <= tup.low < high:
                    mass += tup.probability
                continue
            overlap = min(high, tup.high) - max(low, tup.low)
            if overlap <= 0:
                continue
            mass += tup.probability * (overlap / width)
        probability *= min(mass, 1.0)
        if probability == 0.0:
            break
    return probability
