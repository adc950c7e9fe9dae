"""Tests for descriptive statistics."""

from __future__ import annotations

import numpy as np
import pytest
from repro.exceptions import DataError, InvalidParameterError
from repro.timeseries.stats import rolling_variance, sample_variance


class TestSampleVariance:
    def test_matches_numpy_ddof1(self, rng):
        data = rng.normal(size=50)
        assert sample_variance(data) == pytest.approx(np.var(data, ddof=1))

    def test_single_value_is_zero(self):
        assert sample_variance([4.2]) == 0.0

    def test_constant_is_zero(self):
        assert sample_variance([2.0] * 10) == pytest.approx(0.0)


class TestRollingVariance:
    def test_matches_bruteforce(self, rng):
        data = rng.normal(size=40)
        window = 7
        out = rolling_variance(data, window)
        expected = [
            np.var(data[i : i + window], ddof=1)
            for i in range(len(data) - window + 1)
        ]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_output_length(self):
        out = rolling_variance(np.arange(10.0), 4)
        assert out.size == 7

    def test_never_negative_despite_rounding(self):
        # Large offset stresses the cumulative-sum cancellation.
        data = 1e8 + np.sin(np.arange(200))
        assert np.all(rolling_variance(data, 10) >= 0.0)

    def test_window_too_small(self):
        with pytest.raises(InvalidParameterError):
            rolling_variance(np.arange(10.0), 1)

    def test_series_shorter_than_window(self):
        with pytest.raises(DataError):
            rolling_variance(np.arange(3.0), 5)
