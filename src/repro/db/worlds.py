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

Sampling runs as column passes over the view's tuples laid out as a
``(T, k)`` matrix (:meth:`~repro.db.prob_view.ViewColumns.by_time`), as
``PROBABILITY OF`` does (:func:`~repro.db.aggregates.per_time_range_mass`);
a conjunctive predicate sums its one time's
:func:`~repro.db.aggregates.range_contribution` in the same left-to-right
order, after binding through the ``probability_of``
:class:`~repro.db.aggregates.KernelSpec`, as a ``PROBABILITY OF`` item does.

Which draws of a sampler's stream are selectors depends on every earlier
branch, so :meth:`WorldSampler.sample_matrix` decodes the stream by
prediction: each time is assumed to take its likelier branch, and a
python step runs only at the draws that could overturn that guess.  Its
cost grows with those candidate draws, not with the ``n_worlds * T``
slots.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.db.aggregates import AGGREGATES, range_contribution
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

    The stream contract: worlds in turn, times ascending, each time one
    unit draw ``u`` plus, when ``u`` falls inside its mass, one draw ``d``
    for the value ``low + (high - low) * d`` — ``Generator.uniform``'s —
    and the generator left on exactly the draws read.
    """

    def __init__(self, view: ProbabilisticView) -> None:
        self.view = view
        cols = view.columns
        self._times = cols.times
        self._lows = cols.by_time(cols.low)
        self._highs = cols.by_time(cols.high)
        # Row-wise cumsum is the per-block cumsum; infinite padding keeps
        # every cell past a block's end unselectable.
        cumulative = np.cumsum(cols.by_time(cols.probability, np.inf), axis=1)
        self._last = cumulative[np.arange(cols.times.size), cols.counts - 1]
        self._cumulative = cumulative

    def sample_matrix(
        self, n_worlds: int, rng: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw ``n_worlds`` worlds as an ``(n_worlds, T)`` matrix.

        ``NaN`` marks OUTSIDE.  Consumes ``rng`` exactly as ``n_worlds``
        sequential :meth:`sample` calls do, no draw more: the matrix is
        those calls' worlds, and the generator ends on the same draw.

        >>> view = ProbabilisticView.from_columns(
        ...     "v", np.array([0, 0, 1]), np.array([20.0, 21.0, 20.0]),
        ...     np.array([21.0, 22.0, 21.0]), np.array([0.5, 0.25, 0.5]))
        >>> sampler = WorldSampler(view)
        >>> columnar, scalar = np.random.default_rng(3), np.random.default_rng(3)
        >>> matrix = sampler.sample_matrix(3, columnar)
        >>> matrix.round(2)
        array([[20.24,   nan],
               [21.09, 20.48],
               [20.73, 20.39]])
        >>> rows = [list(sampler.sample(scalar).values.values()) for _ in range(3)]
        >>> bool(np.array_equal(matrix, np.array(rows, float), equal_nan=True))
        True
        >>> bool(columnar.random() == scalar.random())
        True
        """
        generator = ensure_rng(rng)
        shape = (n_worlds, self._times.size)
        # Every slot takes at most two draws: decode from that upper bound
        # (one spare keeps the in-range gather in bounds), then rewind and
        # redraw exactly what the slots read.
        state = generator.bit_generator.state
        stream = generator.random(2 * n_worlds * self._times.size + 1)
        positions, consumed = self._selectors(stream, n_worlds)
        generator.bit_generator.state = state
        generator.random(consumed)
        u = stream[positions].reshape(shape)
        # count(cum <= u) is searchsorted(side="right"), so a rho = 0 tuple
        # is never selected.  The last column (a total or padding) never
        # counts for an inside u; skipping it keeps OUTSIDE in bounds.
        # ``index`` is flat: each row's first cell, plus the count.
        index = np.zeros(shape, dtype=np.intp)
        index += np.arange(shape[1]) * self._cumulative.shape[1]
        for cumulative in self._cumulative.T[:-1]:
            index += cumulative <= u
        low = self._lows.take(index)
        high = self._highs.take(index)
        value = low + (high - low) * stream[positions + 1].reshape(shape)
        return np.where(u < self._last, value, np.nan)

    def _selectors(
        self, stream: np.ndarray, n_worlds: int
    ) -> tuple[np.ndarray, int]:
        """Each slot's selector position in ``stream``, and the draws read.

        Decodes by prediction.  A time is predicted in range when most of
        its mass is, so a predicted world takes ``period`` draws, its
        selectors at ``offsets``, and world ``w`` starts at ``w * period``.
        Only a draw past the loosest threshold can overturn a prediction,
        so the python walk visits those candidates alone, in stream order.
        Under the current shift, candidate ``j`` is read by the slot
        predicted at ``j - shift``, if any; when that slot's draw disagrees
        with its prediction, every later selector moves one draw, forward
        or back.  The positions are then the predicted ones plus the shift
        of each run between breaks.
        """
        lasts = self._last
        predicted = lasts > 0.5
        steps = predicted + 1
        offsets = np.cumsum(steps) - steps
        period = int(steps.sum())
        candidates = np.flatnonzero(
            (stream >= lasts[predicted].min(initial=np.inf))
            | (stream < lasts[~predicted].max(initial=-np.inf))
        )
        # Per predicted position, the threshold its selector breaks on:
        # ``last`` when predicted OUTSIDE (a draw below it is in range),
        # ``-last`` when predicted in range (a draw at or above ``last`` is
        # OUTSIDE), NaN where a predicted in-range draw sits.
        signed = np.full(period, np.nan)
        signed[offsets] = np.where(predicted, -lasts, lasts)
        signed = signed.tolist() * n_worlds
        end = len(signed)
        breaks, shifts = [-1], [0]
        shift = 0
        for j, draw in zip(candidates.tolist(), stream[candidates].tolist()):
            at = j - shift
            if at >= end:
                break
            last = signed[at]
            if last >= 0.0:
                if draw < last:
                    shift += 1
                    # Its in-range draw, next, maps back here: a NaN skips it.
                    signed[at] = math.nan
                    breaks.append(at)
                    shifts.append(shift)
            elif draw >= -last:
                shift -= 1
                breaks.append(at)
                shifts.append(shift)
        starts = (np.arange(n_worlds)[:, None] * period + offsets).ravel()
        run = np.searchsorted(breaks, starts) - 1
        return starts + np.asarray(shifts)[run], end + shift

    def sample(self, rng: int | np.random.Generator | None = None) -> World:
        """Draw one complete world."""
        (world,) = self._worlds(self.sample_matrix(1, rng))
        return world

    def _worlds(self, matrix: np.ndarray) -> list[World]:
        """The :class:`World` of each row of a :meth:`sample_matrix`."""
        times = self._times.tolist()
        return [
            World(dict(zip(times, [OUTSIDE if math.isnan(v) else v for v in row])))
            for row in matrix.tolist()
        ]


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
    sampler = WorldSampler(view)
    worlds = sampler._worlds(sampler.sample_matrix(n_samples, rng))
    samples = np.array([float(functional(world)) for world in worlds])
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
    selects nothing (factor 0); an *inverted* predicate (``high < low``)
    or a non-finite bound raises :class:`InvalidParameterError`, as the
    ``probability_of`` spec every predicate binds through does.

    Exploits the view's block-independent-disjoint structure: within one
    time the overlapping tuples' masses add (mutually exclusive
    alternatives, with partial overlaps contributing proportionally —
    :func:`~repro.db.aggregates.per_time_range_mass`); across times the
    factors multiply (independence).

    >>> # P(temp in [20, 22) at t=60 AND temp in [21, 23) at t=61):
    >>> # conjunctive_range_query(view, {60: (20, 22), 61: (21, 23)})
    """
    if not predicates:
        raise InvalidParameterError("provide at least one time predicate")
    spec = AGGREGATES["probability_of"]
    predicates = {t: spec.bind(bounds) for t, bounds in predicates.items()}
    cols = view.columns
    probability = 1.0
    for t, (low, high) in predicates.items():
        if high == low:
            return 0.0  # [a, a) is empty under half-open semantics.
        rows = view._group_indices(view._group_position(t))
        mass = 0.0
        for share in range_contribution(
            cols.low[rows], cols.high[rows], cols.probability[rows], low, high
        ).tolist():
            mass += share  # Left to right, as per_time_range_mass sums.
        probability *= min(mass, 1.0)
        if probability == 0.0:
            break
    return probability
