"""Calibration diagnostics beyond the scalar density distance.

The density distance (eq. 1) compresses forecast quality into one number;
this module provides the richer diagnostics an operator would look at when
a metric scores badly:

* :func:`pit_histogram` — the shape of the PIT distribution (U-shaped =
  over-confident, hump-shaped = under-confident, sloped = biased);
* :func:`coverage_curve` — empirical vs nominal coverage of central
  intervals over a grid of kappa values (the paper's "kappa = 3 covers
  ~99.73%" claim, checked);
* :func:`ks_uniformity_test` — the Kolmogorov-Smirnov test against
  uniformity, a classical complement to the histogram-based density
  distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

from repro.exceptions import DataError, InvalidParameterError
from repro.metrics.base import DensitySeries
from repro.timeseries.series import TimeSeries
from repro.util.validation import require_finite_array

__all__ = [
    "CalibrationReport",
    "pit_histogram",
    "coverage_curve",
    "ks_uniformity_test",
    "calibration_report",
]


def pit_histogram(z: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """Normalised PIT histogram: bin frequencies that sum to one.

    A calibrated metric yields approximately ``1 / n_bins`` everywhere.
    """
    data = require_finite_array("z", z)
    if n_bins < 2:
        raise InvalidParameterError(f"n_bins must be >= 2, got {n_bins}")
    if np.any((data < 0.0) | (data > 1.0)):
        raise DataError("PIT values must lie in [0, 1]")
    counts, _ = np.histogram(data, bins=np.linspace(0.0, 1.0, n_bins + 1))
    return counts / data.size


def coverage_curve(
    forecasts: DensitySeries,
    series: TimeSeries,
    kappas: tuple[float, ...] = (1.0, 2.0, 3.0),
) -> list[dict[str, float]]:
    """Empirical vs nominal central-interval coverage per kappa.

    For each kappa, the nominal coverage is that of ``mean +- kappa *
    sigma`` under the forecast distribution itself; the empirical coverage
    is the fraction of realised values inside that interval.  Calibrated
    forecasts put the two within sampling noise of each other.
    """
    if not kappas:
        raise InvalidParameterError("provide at least one kappa")
    if not len(forecasts):
        raise DataError("coverage curve of an empty DensitySeries")
    mask, mean, sigma = forecasts.gaussian_params()
    # Each row's own standard deviation: a uniform's is width / sqrt(12).
    sigma = np.where(
        mask, sigma, np.sqrt((forecasts.uppers - forecasts.lowers) ** 2 / 12.0)
    )
    realised = forecasts.realised(series)
    rows = []
    for kappa in kappas:
        if kappa <= 0:
            raise InvalidParameterError(f"kappa must be > 0, got {kappa}")
        low = mean - kappa * sigma
        high = mean + kappa * sigma
        nominal = forecasts.cdf(high) - forecasts.cdf(low)
        hits = (low <= realised) & (realised <= high)
        rows.append(
            {
                "kappa": float(kappa),
                "nominal": float(np.mean(nominal)),
                "empirical": float(np.mean(hits)),
            }
        )
    return rows


def ks_uniformity_test(z: np.ndarray) -> tuple[float, float]:
    """Kolmogorov-Smirnov test of the PIT against U(0, 1).

    Returns ``(statistic, p_value)``; small p-values reject calibration.
    """
    data = require_finite_array("z", z, min_len=2)
    if np.any((data < 0.0) | (data > 1.0)):
        raise DataError("PIT values must lie in [0, 1]")
    result = scipy_stats.kstest(data, "uniform")
    return float(result.statistic), float(result.pvalue)


@dataclass(frozen=True)
class CalibrationReport:
    """Bundled calibration diagnostics for one metric run."""

    density_distance: float
    ks_statistic: float
    ks_p_value: float
    histogram: np.ndarray
    coverage: tuple[dict[str, float], ...]

    @property
    def is_calibrated(self) -> bool:
        """Convenience: KS does not reject at the 1% level."""
        return self.ks_p_value > 0.01

    def worst_coverage_gap(self) -> float:
        """Largest |empirical - nominal| coverage discrepancy."""
        return max(abs(row["empirical"] - row["nominal"]) for row in self.coverage)


def calibration_report(
    forecasts: DensitySeries,
    series: TimeSeries,
    *,
    n_bins: int = 10,
    kappas: tuple[float, ...] = (1.0, 2.0, 3.0),
) -> CalibrationReport:
    """Compute every diagnostic in one pass over the forecasts."""
    from repro.evaluation.density_distance import density_distance_from_pit

    z = forecasts.pit(series)
    statistic, p_value = ks_uniformity_test(z)
    return CalibrationReport(
        density_distance=density_distance_from_pit(z),
        ks_statistic=statistic,
        ks_p_value=p_value,
        histogram=pit_histogram(z, n_bins=n_bins),
        coverage=tuple(coverage_curve(forecasts, series, kappas)),
    )
