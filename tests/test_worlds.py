"""Tests for the possible-worlds sampler and Monte Carlo query engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.db.worlds import (
    WorldSampler,
    conjunctive_range_query,
    derive_series_seed,
    monte_carlo_query,
)
from repro.exceptions import InvalidParameterError
from view_helpers import view_from_rows


def _view(p1=0.6, p2=0.4, leftover=0.0) -> ProbabilisticView:
    """Two times, two ranges; optional residual mass outside the grid."""
    scale = 1.0 - leftover
    tuples = [
        ProbTuple(t=1, low=0.0, high=1.0, probability=p1 * scale),
        ProbTuple(t=1, low=1.0, high=2.0, probability=(1 - p1) * scale),
        ProbTuple(t=2, low=0.0, high=1.0, probability=p2 * scale),
        ProbTuple(t=2, low=1.0, high=2.0, probability=(1 - p2) * scale),
    ]
    return view_from_rows("w", tuples)


class _ZeroFirstRandom(np.random.Generator):
    """A generator whose *first* unit draw is exactly 0.0 — the
    adversarial value that lands on a flat cumulative step."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))
        self._armed = True

    def random(self, size=None, dtype=np.float64, out=None):
        draws = super().random(size, dtype, out)
        if self._armed:
            self._armed = False
            draws[0] = 0.0
        return draws


class TestWorldSampler:
    def test_world_has_value_per_time(self):
        sampler = WorldSampler(_view())
        world = sampler.sample(rng=0)
        assert set(world.values) == {1, 2}

    def test_values_fall_in_some_range(self):
        sampler = WorldSampler(_view())
        for seed in range(20):
            world = sampler.sample(rng=seed)
            for t in (1, 2):
                value = world.value_at(t)
                assert value is not None
                assert 0.0 <= value <= 2.0

    def test_leftover_mass_yields_outside_worlds(self):
        sampler = WorldSampler(_view(leftover=0.5))
        rng = np.random.default_rng(0)
        outside = sum(
            sampler.sample(rng).value_at(1) is None for _ in range(400)
        )
        assert outside / 400 == pytest.approx(0.5, abs=0.1)

    def test_range_frequencies_match_probabilities(self):
        sampler = WorldSampler(_view(p1=0.8))
        rng = np.random.default_rng(1)
        hits = sum(
            sampler.sample(rng).in_range(1, 0.0, 1.0) for _ in range(1500)
        )
        assert hits / 1500 == pytest.approx(0.8, abs=0.05)

    def test_world_unknown_time_rejected(self):
        world = WorldSampler(_view()).sample(rng=0)
        with pytest.raises(InvalidParameterError):
            world.value_at(99)

    def test_zero_probability_alternative_never_selected(self):
        # cumulative = [0.0, 1.0]; u == 0.0 lands exactly on the flat
        # step of the rho = 0 first tuple — side="right" must skip it.
        view = ProbabilisticView.from_columns(
            "w", [1, 1], [0.0, 1.0], [1.0, 2.0], [0.0, 1.0]
        )
        value = WorldSampler(view).sample(_ZeroFirstRandom()).value_at(1)
        assert value is not None and 1.0 <= value < 2.0

    def test_views_hold_no_point_mass_or_empty_block(self):
        # The column kernels carry no branch for a zero-width tuple or an
        # empty tuple block, because no view can hold either: from_columns,
        # the one constructor, rejects high <= low, and a view's times are
        # the times of its tuples.
        with pytest.raises(InvalidParameterError):
            ProbabilisticView.from_columns("w", [1], [1.0], [1.0], [0.25])
        view = ProbabilisticView.from_columns(
            "w", [3, 1], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]
        )
        assert view.times == [1, 3]
        assert view.columns.counts.tolist() == [1, 1]

    def test_in_range_is_half_open(self):
        world = WorldSampler(_view()).sample(rng=0)
        t = 1
        value = world.value_at(t)
        assert world.in_range(t, value, value + 1.0)
        assert not world.in_range(t, value - 1.0, value)  # high excluded


class TestDeriveSeriesSeed:
    def test_deterministic_and_distinct(self):
        assert derive_series_seed(42, "a") == derive_series_seed(42, "a")
        assert derive_series_seed(42, "a") != derive_series_seed(42, "b")
        assert derive_series_seed(42, "a") != derive_series_seed(43, "a")

    def test_pins_known_value(self):
        # Cross-platform stability contract: SHA-256 of the canonical
        # string, first 8 bytes big-endian.  A change here silently
        # breaks SIMULATE reproducibility for stored seeds.
        import hashlib

        digest = hashlib.sha256(b"repro.worlds:7:sensor-00").digest()
        expected = int.from_bytes(digest[:8], "big")
        assert derive_series_seed(7, "sensor-00") == expected


class TestMonteCarloQuery:
    def test_indicator_matches_exact(self):
        view = _view(p1=0.6, p2=0.4)
        estimate = monte_carlo_query(
            view,
            lambda world: float(world.in_range(1, 0.0, 1.0)),
            n_samples=3000,
            rng=2,
        )
        assert estimate.mean == pytest.approx(0.6, abs=0.05)
        low, high = estimate.confidence_interval()
        assert low < 0.6 < high

    def test_conjunction_matches_product(self):
        view = _view(p1=0.6, p2=0.4)
        estimate = monte_carlo_query(
            view,
            lambda world: float(
                world.in_range(1, 0.0, 1.0) and world.in_range(2, 0.0, 1.0)
            ),
            n_samples=4000,
            rng=3,
        )
        assert estimate.mean == pytest.approx(0.24, abs=0.04)

    def test_aggregate_functional(self):
        view = _view(p1=0.5, p2=0.5)
        estimate = monte_carlo_query(
            view,
            lambda world: sum(
                1.0 for value in world.values.values()
                if value is not None and value >= 1.0
            ),
            n_samples=3000,
            rng=4,
        )
        assert estimate.mean == pytest.approx(1.0, abs=0.1)

    def test_standard_error_shrinks_with_samples(self):
        view = _view()
        def indicator(world):
            return float(world.in_range(1, 0.0, 1.0))

        small = monte_carlo_query(view, indicator, n_samples=100, rng=5)
        large = monte_carlo_query(view, indicator, n_samples=6400, rng=5)
        assert large.standard_error < small.standard_error

    def test_n_samples_validation(self):
        with pytest.raises(InvalidParameterError):
            monte_carlo_query(_view(), lambda w: 0.0, n_samples=1)

    @pytest.mark.parametrize("leftover", [0.0, 0.3])
    def test_equals_per_sample_loop(self, leftover):
        """The worlds of one drawn matrix are those of ``n_samples``
        sequential ``sample`` calls, and the generator ends on the same
        draw."""
        view = _view(p1=0.6, p2=0.3, leftover=leftover)

        def total(world):  # Reads every value, OUTSIDE as -1.
            return sum(-1.0 if v is None else v for v in world.values.values())

        batched, looped = np.random.default_rng(9), np.random.default_rng(9)
        estimate = monte_carlo_query(view, total, n_samples=500, rng=batched)
        sampler = WorldSampler(view)
        samples = np.array([total(sampler.sample(looped)) for _ in range(500)])
        assert (samples == -2.0).any() == (leftover > 0.0)
        assert estimate.mean == float(np.mean(samples))
        assert estimate.standard_error == float(
            np.std(samples, ddof=1) / np.sqrt(500)
        )
        assert batched.random() == looped.random()


class TestConjunctiveRangeQuery:
    def test_product_over_times(self):
        view = _view(p1=0.6, p2=0.4)
        probability = conjunctive_range_query(
            view, {1: (0.0, 1.0), 2: (0.0, 1.0)}
        )
        assert probability == pytest.approx(0.24)

    def test_partial_overlap_scales(self):
        view = _view(p1=0.6)
        probability = conjunctive_range_query(view, {1: (0.0, 0.5)})
        assert probability == pytest.approx(0.3)

    def test_disjoint_range_gives_zero(self):
        view = _view()
        assert conjunctive_range_query(view, {1: (5.0, 6.0)}) == 0.0

    def test_agreement_with_monte_carlo(self):
        view = _view(p1=0.7, p2=0.3)
        predicates = {1: (0.0, 1.0), 2: (1.0, 2.0)}
        exact = conjunctive_range_query(view, predicates)
        estimate = monte_carlo_query(
            view,
            lambda world: float(
                all(world.in_range(t, *bounds)
                    for t, bounds in predicates.items())
            ),
            n_samples=5000,
            rng=6,
        )
        assert estimate.mean == pytest.approx(exact, abs=0.04)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            conjunctive_range_query(_view(), {})
        with pytest.raises(InvalidParameterError):
            conjunctive_range_query(_view(), {1: (2.0, 1.0)})

    def test_inverted_predicate_rejected_before_any_factor(self):
        # Every predicate is validated up front: an inverted range at a
        # later time raises even when an earlier factor is already 0.
        view = _view()
        with pytest.raises(InvalidParameterError, match="inverted"):
            conjunctive_range_query(
                view, {1: (5.0, 6.0), 2: (2.0, 1.0)}
            )

    @pytest.mark.parametrize("bounds", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0)])
    def test_non_finite_bound_rejected(self, bounds):
        # Each predicate binds through the probability_of spec.
        with pytest.raises(InvalidParameterError, match="must be finite"):
            conjunctive_range_query(_view(), {1: (0.0, 1.0), 2: bounds})

    def test_degenerate_predicate_is_empty(self):
        # [a, a) selects nothing under half-open semantics.
        assert conjunctive_range_query(_view(), {1: (0.5, 0.5)}) == 0.0

    def test_half_open_boundary_matches_sampler(self):
        # A predicate ending exactly at a tuple boundary takes none of
        # the upper tuple's mass.
        view = _view(p1=0.6)
        assert conjunctive_range_query(
            view, {1: (0.0, 1.0)}
        ) == pytest.approx(0.6)


class TestMonteCarloConvergence:
    """Hypothesis: MC estimates agree with the exact answers within CI."""

    @settings(max_examples=20, deadline=None)
    @given(
        p1=st.floats(0.05, 0.95),
        p2=st.floats(0.05, 0.95),
        leftover=st.floats(0.0, 0.5),
        cut=st.floats(0.2, 1.8),
        seed=st.integers(0, 2**16),
    )
    def test_estimate_within_interval_of_exact(
        self, p1, p2, leftover, cut, seed
    ):
        view = _view(p1=p1, p2=p2, leftover=leftover)
        predicates = {1: (0.0, cut), 2: (cut / 2, 2.0)}
        exact = conjunctive_range_query(view, predicates)
        estimate = monte_carlo_query(
            view,
            lambda world: float(
                all(
                    world.in_range(t, *bounds)
                    for t, bounds in predicates.items()
                )
            ),
            n_samples=1200,
            rng=seed,
        )
        # z=5 keeps the false-failure probability negligible (~1e-6 per
        # example); the epsilon floor covers exact == 0/1 edges where
        # the normal approximation collapses.
        low, high = estimate.confidence_interval(z=5.0)
        assert low - 0.01 <= exact <= high + 0.01
