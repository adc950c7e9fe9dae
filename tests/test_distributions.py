"""Tests for the two vectorised density CDFs, ``gaussian_cdf`` and ``uniform_cdf``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import gaussian_cdf, uniform_cdf


class TestGaussianCdf:
    def test_symmetry(self):
        sigma = np.sqrt(2.0)
        assert gaussian_cdf(1.0, 1.0, sigma) == pytest.approx(0.5)
        total = gaussian_cdf(0.0, 1.0, sigma) + gaussian_cdf(2.0, 1.0, sigma)
        assert total == pytest.approx(1.0)

    def test_three_sigma_rule(self):
        mass = gaussian_cdf(3.0, 0.0, 1.0) - gaussian_cdf(-3.0, 0.0, 1.0)
        assert mass == pytest.approx(0.9973, abs=1e-4)

    def test_vectorised_matches_scalar(self):
        xs = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            gaussian_cdf(xs, 0.0, 1.0), [gaussian_cdf(x, 0.0, 1.0) for x in xs]
        )

    def test_broadcasts_rows_against_edges(self):
        edges = np.linspace(-2.0, 2.0, 5)
        sigmas = np.array([0.5, 1.0, 3.0])
        matrix = gaussian_cdf(edges, 0.0, sigmas[:, None])
        assert matrix.shape == (3, 5)
        for row, sigma in zip(matrix, sigmas):
            np.testing.assert_array_equal(row, gaussian_cdf(edges, 0.0, sigma))


class TestUniformCdf:
    def test_clamps_outside_support(self):
        assert uniform_cdf(-1.0, 0.0, 1.0) == 0.0
        assert uniform_cdf(2.0, 0.0, 1.0) == 1.0

    def test_mass_of_subinterval(self):
        mass = uniform_cdf(2.0, 0.0, 4.0) - uniform_cdf(1.0, 0.0, 4.0)
        assert mass == pytest.approx(0.25)

    def test_linear_inside_support(self):
        assert uniform_cdf(3.0, 0.0, 10.0) == pytest.approx(0.3)

    def test_broadcasts_rows_against_edges(self):
        edges = np.linspace(0.0, 4.0, 5)
        lows, highs = np.array([0.0, 1.0, -2.0]), np.array([4.0, 2.0, 6.0])
        matrix = uniform_cdf(edges, lows[:, None], highs[:, None])
        assert matrix.shape == (3, 5)
        for row, low, high in zip(matrix, lows, highs):
            np.testing.assert_array_equal(row, uniform_cdf(edges, low, high))


@settings(max_examples=50, deadline=None)
@given(
    mu=st.floats(min_value=-100, max_value=100),
    sigma2=st.floats(min_value=1e-4, max_value=1e4),
    a=st.floats(min_value=-50, max_value=50),
    b=st.floats(min_value=-50, max_value=50),
)
def test_gaussian_cdf_monotone_property(mu, sigma2, a, b):
    sigma = np.sqrt(sigma2)
    lo, hi = min(a, b), max(a, b)
    assert gaussian_cdf(lo, mu, sigma) <= gaussian_cdf(hi, mu, sigma) + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    low=st.floats(min_value=-100, max_value=99),
    width=st.floats(min_value=1e-3, max_value=100),
    a=st.floats(min_value=-200, max_value=200),
    b=st.floats(min_value=-200, max_value=200),
)
def test_uniform_cdf_monotone_in_unit_interval_property(low, width, a, b):
    lo, hi = min(a, b), max(a, b)
    at_lo = uniform_cdf(lo, low, low + width)
    at_hi = uniform_cdf(hi, low, low + width)
    assert 0.0 <= at_lo <= at_hi <= 1.0
