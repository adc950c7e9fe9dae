"""Tests for the C-GARCH online cleaning metric (paper Section V)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cleaning.svr_filter import learn_sv_max
from repro.data.errors import inject_errors
from repro.data.synthetic import campus_temperature
from repro.exceptions import DataError, InvalidParameterError
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.cgarch import CGARCHMetric, CGARCHReport
from repro.timeseries.series import TimeSeries


@pytest.fixture(scope="module")
def corrupted():
    """A small campus slice with known injected spikes."""
    clean = campus_temperature(500, rng=3)
    injection = inject_errors(
        clean, count=6, magnitude=10.0, rng=4, protect_prefix=61
    )
    return clean, injection


class TestConstruction:
    def test_oc_max_validation(self):
        with pytest.raises(InvalidParameterError):
            CGARCHMetric(oc_max=1)

    def test_sv_max_validation(self):
        with pytest.raises(InvalidParameterError):
            CGARCHMetric(sv_max=-0.5)

    def test_min_window_accounts_for_oc_max(self):
        metric = CGARCHMetric(oc_max=20)
        assert metric.min_window >= 21


class TestDetection:
    def test_detects_isolated_spikes(self, corrupted):
        _clean, injection = corrupted
        metric = CGARCHMetric(oc_max=8)
        _forecasts, report = metric.run_with_report(injection.series, H=60)
        assert report.capture_rate(injection.error_indices) >= 0.8

    def test_cleaned_values_replace_spikes(self, corrupted):
        clean, injection = corrupted
        metric = CGARCHMetric(oc_max=8)
        _forecasts, report = metric.run_with_report(injection.series, H=60)
        caught = set(report.flagged) & set(injection.error_indices.tolist())
        assert caught  # At least some true spikes were flagged.
        for index in caught:
            # The replacement must be far closer to the clean value than
            # the spike was.
            spike_error = abs(injection.series[index] - clean[index])
            cleaned_error = abs(report.cleaned[index] - clean[index])
            assert cleaned_error < spike_error * 0.5

    def test_volatility_stays_bounded_after_spikes(self, corrupted):
        """The C-GARCH promise: no Fig. 5(a) volatility blow-up."""
        clean, injection = corrupted
        metric = CGARCHMetric(oc_max=8)
        forecasts, _report = metric.run_with_report(injection.series, H=60)
        widths = np.array([f.upper - f.lower for f in forecasts])
        spike_scale = float(np.std(injection.series.values))
        assert np.max(widths) < 6.0 * spike_scale

    def test_clean_series_mostly_unflagged(self):
        clean = campus_temperature(400, rng=5)
        metric = CGARCHMetric(oc_max=8)
        _forecasts, report = metric.run_with_report(clean, H=60)
        # kappa=3 bounds admit ~0.3% false flags plus a few regime misses.
        assert report.n_flagged < 0.15 * (len(clean) - 60)


class TestTrendChange:
    def test_step_change_triggers_readjustment(self):
        """A genuine level shift must be recognised, not flagged forever."""
        rng = np.random.default_rng(6)
        values = np.concatenate([
            10.0 + 0.05 * rng.standard_normal(200),
            14.0 + 0.05 * rng.standard_normal(200),  # Sharp trend change.
        ])
        series = TimeSeries(values)
        oc_max = 6
        metric = CGARCHMetric(oc_max=oc_max)
        _forecasts, report = metric.run_with_report(series, H=60)
        assert len(report.trend_changes) >= 1
        first = report.trend_changes[0]
        assert 200 <= first <= 200 + 2 * oc_max
        # After re-adjustment the new level must be accepted: no flags well
        # beyond the transition.
        late_flags = [t for t in report.flagged if t > 200 + 5 * oc_max]
        assert len(late_flags) <= 5

    def test_cleaned_follows_new_level_after_trend_change(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            5.0 + 0.02 * rng.standard_normal(150),
            9.0 + 0.02 * rng.standard_normal(150),
        ])
        series = TimeSeries(values)
        metric = CGARCHMetric(oc_max=5)
        _forecasts, report = metric.run_with_report(series, H=50)
        assert report.cleaned[-50:].mean() == pytest.approx(9.0, abs=0.5)


class TestRunContract:
    def test_run_requires_sequential_semantics(self):
        series = campus_temperature(300, rng=8)
        metric = CGARCHMetric()
        with pytest.raises(InvalidParameterError):
            metric.run(series, H=60, step=5)
        with pytest.raises(InvalidParameterError):
            metric.run(series, H=60, start=61)
        # Rejected before the cleaning pass, not after it: no model was fit.
        assert metric.base.garch_evaluations_ == 0
        metric.run(series, H=60, stop=62)
        assert metric.base.garch_evaluations_ > 0

    def test_run_returns_forecasts_for_every_time(self):
        series = campus_temperature(200, rng=9)
        metric = CGARCHMetric()
        forecasts = metric.run(series, H=60)
        assert len(forecasts) == 140

    def test_stop_limits_processing(self):
        series = campus_temperature(300, rng=10)
        metric = CGARCHMetric()
        forecasts, _report = metric.run_with_report(series, H=60, stop=100)
        assert len(forecasts) == 40

    def test_rows_must_be_consecutive_times(self):
        values = campus_temperature(100, rng=14).values
        windows = np.stack([values[0:60], values[2:62]])
        with pytest.raises(InvalidParameterError, match="consecutive"):
            CGARCHMetric().infer_batch(windows, np.array([60, 62]))

    def test_a_row_that_does_not_continue_starts_a_fresh_pass(self):
        values = campus_temperature(100, rng=16).values
        metric = CGARCHMetric()
        windows = np.lib.stride_tricks.sliding_window_view(values, 60)
        metric.infer_batch(windows[:5], np.arange(60, 65))
        other = values[10:70] + 20.0  # The next time, but another stream.
        metric.infer(other, 65)
        assert np.array_equal(metric._cleaned, other)  # Nothing replaced.

    def test_infer_on_a_fresh_metric_is_arma_garch(self):
        """A one-off window is a fresh pass: nothing to clean yet."""
        window = campus_temperature(60, rng=15).values
        cleaned = CGARCHMetric().infer(window, 60)
        plain = ARMAGARCHMetric().infer(window, 60)
        assert (cleaned.mean, cleaned.volatility) == (plain.mean, plain.volatility)

    def test_window_below_minimum_rejected(self):
        series = campus_temperature(100, rng=11)
        with pytest.raises(InvalidParameterError):
            CGARCHMetric(oc_max=8).run_with_report(series, H=5)

    def test_series_shorter_than_window_rejected(self):
        series = campus_temperature(50, rng=12)
        with pytest.raises(DataError):
            CGARCHMetric().run_with_report(series, H=60)


class TestReport:
    def test_capture_rate_requires_truth(self, corrupted):
        _clean, injection = corrupted
        metric = CGARCHMetric(oc_max=8)
        _forecasts, report = metric.run_with_report(injection.series, H=60)
        with pytest.raises(InvalidParameterError):
            report.capture_rate(np.array([]))

    def test_report_fields(self, corrupted):
        _clean, injection = corrupted
        _forecasts, report = CGARCHMetric(oc_max=8).run_with_report(
            injection.series, H=60
        )
        assert isinstance(report, CGARCHReport)
        assert report.sv_max > 0.0
        assert report.cleaned.shape[0] == len(injection.series)
        assert all(isinstance(t, int) for t in report.flagged)

    def test_given_sv_max_is_reported(self):
        series = campus_temperature(300, rng=13)
        sv_max = learn_sv_max(series.values, 8)
        assert sv_max > 0.0
        _forecasts, report = CGARCHMetric(oc_max=8, sv_max=sv_max).run_with_report(
            series, H=60
        )
        assert report.sv_max == sv_max
