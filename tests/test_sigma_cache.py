"""Tests for the sigma-cache: constraints, lookup correctness, sizing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import gaussian_cdf
from repro.exceptions import CacheConstraintError, InvalidParameterError
from repro.view.hellinger import hellinger_distance
from repro.view.omega import OmegaGrid
from repro.view.sigma_cache import SigmaCache


def _grid() -> OmegaGrid:
    return OmegaGrid(delta=0.1, n=10)


class TestConstruction:
    def test_requires_a_constraint(self):
        with pytest.raises(InvalidParameterError):
            SigmaCache(_grid(), 0.5, 5.0)

    def test_sigma_validation(self):
        with pytest.raises(InvalidParameterError):
            SigmaCache(_grid(), 0.0, 5.0, distance_constraint=0.01)
        with pytest.raises(InvalidParameterError):
            SigmaCache(_grid(), 5.0, 1.0, distance_constraint=0.01)

    def test_distribution_count_matches_theory(self):
        cache = SigmaCache(_grid(), 1.0, 100.0, distance_constraint=0.01)
        q = math.ceil(math.log(100.0) / math.log(cache.ratio_threshold))
        assert len(cache) == q + 1  # +1 stores the minimum itself.

    def test_memory_constraint_bounds_count(self):
        cache = SigmaCache(_grid(), 1.0, 100.0, memory_constraint=10)
        assert len(cache) <= 11

    def test_equal_sigmas_single_distribution(self):
        cache = SigmaCache(_grid(), 2.0, 2.0, distance_constraint=0.01)
        assert len(cache) == 1

    def test_conflicting_constraints_rejected(self):
        # Tight distance + tiny memory over a huge sigma span is infeasible.
        with pytest.raises(CacheConstraintError):
            SigmaCache(
                _grid(), 1.0, 1e6, distance_constraint=0.001,
                memory_constraint=2,
            )

    def test_compatible_joint_constraints_choose_distance_ratio(self):
        cache = SigmaCache(
            _grid(), 1.0, 10.0, distance_constraint=0.05,
            memory_constraint=1000,
        )
        # Memory allows far more distributions than distance requires; the
        # distance ratio (larger) should be chosen to keep the cache small.
        from repro.view.hellinger import ratio_threshold_for_distance

        assert cache.ratio_threshold == pytest.approx(
            ratio_threshold_for_distance(0.05)
        )


class TestLookup:
    def test_exact_key_row_matches_direct_computation(self):
        """Every stored row is bit-equal to its own key's CDF differences."""
        grid = _grid()
        cache = SigmaCache(grid, 1.0, 10.0, distance_constraint=0.01)
        edges = grid.edges_around(0.0)
        for sigma in cache.keys().tolist():
            expected = np.diff(gaussian_cdf(edges, 0.0, sigma))
            np.testing.assert_array_equal(cache.probability_row(sigma), expected)

    def test_floor_semantics(self):
        """A queried sigma is served from the greatest key below it."""
        cache = SigmaCache(_grid(), 1.0, 10.0, distance_constraint=0.05)
        keys = cache.keys()
        probe = (keys[2] + keys[3]) / 2.0
        row = cache.probability_row(probe)
        expected = cache.probability_row(float(keys[2]))
        np.testing.assert_array_equal(row, expected)

    def test_below_minimum_clamps(self):
        cache = SigmaCache(_grid(), 1.0, 10.0, distance_constraint=0.05)
        row = cache.probability_row(0.5)
        expected = cache.probability_row(1.0)
        np.testing.assert_array_equal(row, expected)
        assert cache.stats.misses >= 1

    def test_sigma_validation(self):
        cache = SigmaCache(_grid(), 1.0, 10.0, distance_constraint=0.05)
        with pytest.raises(InvalidParameterError):
            cache.probability_row(0.0)

    def test_hit_statistics(self):
        cache = SigmaCache(_grid(), 1.0, 10.0, distance_constraint=0.05)
        for sigma in (1.5, 2.5, 5.0):
            cache.probability_row(sigma)
        assert cache.stats.hits == 3
        assert cache.stats.hit_rate == 1.0


class TestGuarantees:
    def test_served_distribution_within_distance_constraint(self):
        """Theorem 1 end to end: every lookup's Hellinger error <= H'."""
        constraint = 0.02
        cache = SigmaCache(_grid(), 0.3, 30.0, distance_constraint=constraint)
        keys = cache.keys()
        rng = np.random.default_rng(0)
        for sigma in rng.uniform(0.3, 30.0, size=200):
            index = np.searchsorted(keys, sigma, side="right") - 1
            served_sigma = float(keys[max(index, 0)])
            assert hellinger_distance(served_sigma, float(sigma)) <= constraint + 1e-9

    def test_guaranteed_distance_reports_chosen_bound(self):
        cache = SigmaCache(_grid(), 1.0, 50.0, distance_constraint=0.03)
        assert cache.guaranteed_distance() == pytest.approx(0.03, rel=1e-6)

    def test_logarithmic_size_growth(self):
        sizes = []
        for max_sigma in (10.0, 100.0, 1000.0, 10000.0):
            cache = SigmaCache(_grid(), 1.0, max_sigma, distance_constraint=0.01)
            sizes.append(len(cache))
        increments = np.diff(sizes)
        # Each 10x increase of Ds adds a constant number of distributions.
        assert np.all(np.abs(increments - increments[0]) <= 1)

    def test_size_bytes_scales_with_grid(self):
        small = SigmaCache(OmegaGrid(0.1, 4), 1.0, 10.0, distance_constraint=0.05)
        large = SigmaCache(OmegaGrid(0.1, 40), 1.0, 10.0, distance_constraint=0.05)
        assert large.size_bytes() > small.size_bytes()


@settings(max_examples=40, deadline=None)
@given(
    min_sigma=st.floats(min_value=1e-3, max_value=1.0),
    span=st.floats(min_value=1.0, max_value=1e4),
    constraint=st.floats(min_value=5e-3, max_value=0.2),
    probe_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_cache_lookup_error_bounded_property(
    min_sigma, span, constraint, probe_fraction
):
    """Property: for any queried sigma in range, the approximation error of
    the served probability row is bounded by the Hellinger constraint."""
    grid = OmegaGrid(delta=0.2, n=4)
    max_sigma = min_sigma * span
    cache = SigmaCache(grid, min_sigma, max_sigma, distance_constraint=constraint)
    sigma = min_sigma + probe_fraction * (max_sigma - min_sigma)
    keys = cache.keys()
    index = np.searchsorted(keys, sigma, side="right") - 1
    served = float(keys[max(index, 0)])
    assert hellinger_distance(served, sigma) <= constraint + 1e-9
