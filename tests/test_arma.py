"""Tests for ARMA estimation and forecasting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    DataError,
    EstimationError,
    InvalidParameterError,
    NotFittedError,
)
from repro.timeseries import arma
from repro.timeseries.arma import ARMAModel, ARMAParams, batch_arma_predict


class TestParams:
    def test_orders(self):
        params = ARMAParams(const=0.0, ar=np.array([0.5, 0.1]), ma=np.array([0.3]))
        assert params.p == 2
        assert params.q == 1

    def test_stationarity_check(self):
        assert ARMAParams(const=0.0, ar=np.array([0.5])).is_ar_stationary()
        assert not ARMAParams(const=0.0, ar=np.array([1.1])).is_ar_stationary()
        assert ARMAParams(const=0.0).is_ar_stationary()  # p=0 is stationary.


class TestFitAR:
    def test_recovers_ar1_coefficient(self):
        params = ARMAParams(const=2.0, ar=np.array([0.7]), sigma2=1.0)
        data = ARMAModel.simulate(params, 3000, rng=0)
        model = ARMAModel(p=1).fit(data)
        assert model.params_.ar[0] == pytest.approx(0.7, abs=0.05)
        # Implied process mean: const / (1 - phi1).
        implied_mean = model.params_.const / (1 - model.params_.ar[0])
        assert implied_mean == pytest.approx(2.0 / 0.3, rel=0.1)

    def test_recovers_ar2_coefficients(self):
        params = ARMAParams(
            const=0.0, ar=np.array([0.5, -0.3]), sigma2=1.0
        )
        data = ARMAModel.simulate(params, 5000, rng=1)
        model = ARMAModel(p=2).fit(data)
        np.testing.assert_allclose(model.params_.ar, [0.5, -0.3], atol=0.06)

    def test_mean_model_p0_q0(self):
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        model = ARMAModel(p=0, q=0).fit(data)
        assert model.params_.const == pytest.approx(3.0)
        assert model.predict_next() == pytest.approx(3.0)

    def test_residual_variance_estimated(self):
        params = ARMAParams(const=0.0, ar=np.array([0.5]), sigma2=2.0)
        data = ARMAModel.simulate(params, 4000, rng=2)
        model = ARMAModel(p=1).fit(data)
        assert model.params_.sigma2 == pytest.approx(2.0, rel=0.15)

    def test_residuals_aligned_with_input(self):
        data = ARMAModel.simulate(
            ARMAParams(const=0.0, ar=np.array([0.5]), sigma2=1.0), 100, rng=3
        )
        model = ARMAModel(p=1).fit(data)
        assert model.residuals_.size == data.size
        assert model.residuals_[0] == 0.0  # Warm-up convention.


class TestFitARMA:
    def test_recovers_ma_coefficient_sign(self):
        params = ARMAParams(
            const=0.0, ar=np.array([0.6]), ma=np.array([0.4]), sigma2=1.0
        )
        data = ARMAModel.simulate(params, 8000, rng=4)
        model = ARMAModel(p=1, q=1).fit(data)
        assert model.params_.ar[0] == pytest.approx(0.6, abs=0.12)
        assert model.params_.ma[0] == pytest.approx(0.4, abs=0.15)

    def test_long_ar_order_override(self):
        data = ARMAModel.simulate(
            ARMAParams(const=0.0, ar=np.array([0.5]), ma=np.array([0.2]),
                       sigma2=1.0),
            500, rng=5,
        )
        model = ARMAModel(p=1, q=1, long_ar_order=8).fit(data)
        assert model.params_ is not None


class TestForecast:
    def test_predict_next_equals_manual_eq2(self):
        data = np.array([1.0, 2.0, 1.5, 2.5, 2.0, 3.0, 2.5, 3.5, 3.0, 4.0])
        model = ARMAModel(p=1).fit(data)
        params = model.params_
        expected = params.const + params.ar[0] * data[-1]
        assert model.predict_next() == pytest.approx(expected)

    def test_multistep_converges_to_process_mean(self):
        params = ARMAParams(const=1.0, ar=np.array([0.5]), sigma2=0.5)
        data = ARMAModel.simulate(params, 2000, rng=6)
        model = ARMAModel(p=1).fit(data)
        far = model.forecast(200)[-1]
        process_mean = model.params_.const / (1 - model.params_.ar[0])
        assert far == pytest.approx(process_mean, rel=0.05)

    def test_forecast_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ARMAModel(p=1).predict_next()

    def test_forecast_steps_validation(self):
        data = np.arange(20.0)
        model = ARMAModel(p=1).fit(data)
        with pytest.raises(InvalidParameterError):
            model.forecast(0)


class TestValidation:
    def test_negative_orders_rejected(self):
        with pytest.raises(InvalidParameterError):
            ARMAModel(p=-1)

    def test_window_too_short(self):
        with pytest.raises(EstimationError):
            ARMAModel(p=3).fit(np.arange(4.0))

    def test_nan_input_rejected(self):
        with pytest.raises(DataError):
            ARMAModel(p=1).fit(np.array([1.0, np.nan, 2.0, 3.0, 4.0]))

    def test_constant_window_fits_without_error(self):
        model = ARMAModel(p=1).fit(np.full(30, 5.0))
        assert model.predict_next() == pytest.approx(5.0, abs=1e-6)


class TestSimulate:
    def test_reproducible_with_seed(self):
        params = ARMAParams(const=0.0, ar=np.array([0.5]), sigma2=1.0)
        a = ARMAModel.simulate(params, 50, rng=9)
        b = ARMAModel.simulate(params, 50, rng=9)
        np.testing.assert_array_equal(a, b)

    def test_custom_innovations_length_checked(self):
        params = ARMAParams(const=0.0, ar=np.array([0.5]), sigma2=1.0)
        with pytest.raises(DataError):
            ARMAModel.simulate(params, 50, innovations=np.zeros(10))

    def test_custom_innovations_used(self):
        params = ARMAParams(const=0.0, sigma2=1.0)
        out = ARMAModel.simulate(
            params, 5, burn_in=0, innovations=np.array([1.0, 2, 3, 4, 5])
        )
        np.testing.assert_array_equal(out, [1.0, 2, 3, 4, 5])

    def test_n_validation(self):
        with pytest.raises(InvalidParameterError):
            ARMAModel.simulate(ARMAParams(const=0.0), 0)


class TestBatchARMAPredict:
    @staticmethod
    def _windows() -> np.ndarray:
        rng = np.random.default_rng(4)
        return 20.0 + np.cumsum(rng.normal(0.0, 0.2, size=(5, 30)), axis=1)

    def test_ma_rows_are_fitted_one_by_one(self):
        windows = self._windows()
        expected = [ARMAModel(1, 1).fit(w).predict_next() for w in windows]
        assert batch_arma_predict(windows, 1, 1).tolist() == expected

    def test_only_the_non_finite_row_is_refitted(self, monkeypatch):
        windows = self._windows()
        stacked = arma.batch_ar_predict(windows, 1)
        poisoned = stacked.copy()
        poisoned[2] = np.nan
        monkeypatch.setattr(arma, "batch_ar_predict", lambda w, p: poisoned.copy())
        mean = batch_arma_predict(windows, 1, 0)
        assert mean[2] == ARMAModel(1, 0).fit(windows[2]).predict_next()
        keep = np.arange(5) != 2
        assert np.array_equal(mean[keep], stacked[keep])
