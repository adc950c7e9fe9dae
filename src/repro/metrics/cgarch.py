"""C-GARCH: the Clean-GARCH enhancement (paper Section V).

Plain ARMA-GARCH blows up on erroneous values: one spike in the training
window inflates the squared terms of eq. (5) and the inferred volatility
explodes for many subsequent steps (paper Fig. 5a).  C-GARCH wraps
ARMA-GARCH with an *online* cleaning protocol:

1. Run ARMA-GARCH with kappa = 3 bounds on the cleaned window.
2. If the incoming raw value falls outside ``[lb, ub]`` mark it erroneous
   and replace it with the inferred value ``r_hat_t``.
3. Track the run of consecutive replacements; once it reaches ``oc_max``
   the values were evidently a genuine *trend change*, not errors: restore
   the raw values, pass them through the Successive Variance Reduction
   filter (to drop any true outliers hiding in the span) and re-adjust.

``SVmax`` is learned from a clean sample as the maximum dispersion observed
over windows of size ``oc_max`` (Section V-B); ``oc_max`` itself should be
about twice the longest expected error burst (paper guideline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cleaning.svr_filter import learn_sv_max, successive_variance_reduction
from repro.exceptions import InvalidParameterError
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.base import DensitySeries, DynamicDensityMetric, gaussian_series
from repro.timeseries.series import TimeSeries

__all__ = ["CGARCHMetric", "CGARCHReport"]


@dataclass(frozen=True)
class CGARCHReport:
    """Diagnostics from one C-GARCH pass.

    Attributes
    ----------
    flagged:
        Indices the metric finally considers erroneous (replaced values that
        were not re-admitted by a trend change, plus values the SVR filter
        deleted during re-adjustment).
    trend_changes:
        Indices where an ``oc_max``-long run of out-of-bound values was
        re-classified as a genuine trend change.
    cleaned:
        The full cleaned value array (same length as the input series).
    sv_max:
        The dispersion threshold used (given or learned).
    """

    flagged: tuple[int, ...]
    trend_changes: tuple[int, ...]
    cleaned: np.ndarray
    sv_max: float

    @property
    def n_flagged(self) -> int:
        return len(self.flagged)

    def capture_rate(self, true_error_indices: np.ndarray) -> float:
        """Fraction of ``true_error_indices`` the metric flagged.

        This is the "% erroneous values successfully detected" measure of
        the paper's Fig. 13(a).
        """
        truth = set(int(i) for i in np.asarray(true_error_indices).ravel())
        if not truth:
            raise InvalidParameterError("true_error_indices must be non-empty")
        flagged = set(self.flagged)
        return len(truth & flagged) / len(truth)


class CGARCHMetric(DynamicDensityMetric):
    """Clean-GARCH dynamic density metric.

    Parameters
    ----------
    p, q, m, s, kappa:
        Passed through to the underlying :class:`ARMAGARCHMetric`; the paper
        fixes ``kappa = 3`` so that a value outside the bounds is erroneous
        with probability ~0.27%.
    oc_max:
        Length of an out-of-bound run that is re-interpreted as a trend
        change (paper uses 7-8).
    sv_max:
        Dispersion threshold for the SVR filter.  ``None`` (default) learns
        it from the warm-up window via :func:`learn_sv_max`, assuming the
        first ``H`` values are clean — the paper's "sample of clean data".

    Use :meth:`run_with_report` to obtain the cleaning diagnostics; the
    plain :meth:`run` keeps the :class:`DynamicDensityMetric` contract.
    """

    name = "cgarch"

    def __init__(
        self,
        p: int = 1,
        q: int = 0,
        m: int = 1,
        s: int = 1,
        kappa: float = 3.0,
        oc_max: int = 8,
        sv_max: float | None = None,
    ) -> None:
        if oc_max < 2:
            raise InvalidParameterError(f"oc_max must be >= 2, got {oc_max}")
        if sv_max is not None and sv_max < 0:
            raise InvalidParameterError(f"sv_max must be >= 0, got {sv_max}")
        self.base = ARMAGARCHMetric(p=p, q=q, m=m, s=s, kappa=kappa)
        self.oc_max = int(oc_max)
        self.sv_max = sv_max
        self.min_window = max(self.base.min_window, self.oc_max + 1)

    # ------------------------------------------------------------------
    # Window inference: identical to ARMA-GARCH (the cleaning logic lives
    # in the rolling pass, which controls what enters the window).
    # ------------------------------------------------------------------
    def infer_batch(self, windows: np.ndarray, ts: np.ndarray) -> DensitySeries:
        """ARMA-GARCH inference on (assumed clean) windows."""
        return self.base.infer_batch(windows, ts)

    # ------------------------------------------------------------------
    # Rolling pass with online cleaning.
    # ------------------------------------------------------------------
    def run(
        self,
        series: TimeSeries,
        H: int,
        *,
        start: int | None = None,
        stop: int | None = None,
        step: int = 1,
    ) -> DensitySeries:
        """Rolling C-GARCH; see :meth:`run_with_report` for diagnostics.

        The cleaning protocol is sequential, so ``step`` must be 1 and
        ``start`` cannot skip past the first full window.
        """
        if step != 1 or (start is not None and start > H):
            raise InvalidParameterError(
                "C-GARCH is an online sequential procedure: start/step "
                "subsampling would break its cleaning state"
            )
        forecasts, _report = self.run_with_report(series, H, stop=stop)
        return forecasts

    def run_with_report(
        self, series: TimeSeries, H: int, *, stop: int | None = None
    ) -> tuple[DensitySeries, CGARCHReport]:
        """Run the full Section V protocol; returns forecasts + diagnostics."""
        if H < self.min_window:
            raise InvalidParameterError(
                f"C-GARCH needs a window of at least {self.min_window} "
                f"values, got H={H}"
            )
        raw = series.values
        last = len(series) if stop is None else min(stop, len(series))
        if last <= H:
            raise InvalidParameterError(
                f"series of length {len(series)} yields no inference times "
                f"for H={H}"
            )
        cleaned = raw[:last].copy()
        sv_max = self.sv_max
        if sv_max is None:
            sv_max = learn_sv_max(cleaned[:H], self.oc_max)
        flagged: set[int] = set()
        trend_changes: list[int] = []
        consecutive = 0
        kappa = self.base.kappa
        means = np.empty(last - H)
        variances = np.empty(last - H)
        for t in range(H, last):
            mean, variance = self.base._infer_moments(cleaned[t - H : t])
            means[t - H], variances[t - H] = mean, variance
            reach = kappa * math.sqrt(variance)
            if mean - reach <= raw[t] <= mean + reach:
                consecutive = 0
                continue
            consecutive += 1
            if consecutive < self.oc_max:
                flagged.add(t)
                cleaned[t] = mean  # Replace with the inferred value.
                continue
            # oc_max consecutive out-of-bound values: genuine trend change.
            trend_changes.append(t)
            span_start = t - self.oc_max + 1
            cleaned[span_start : t + 1] = raw[span_start : t + 1]
            flagged.difference_update(range(span_start, t + 1))
            # Rule out true outliers hiding inside the restored span.
            result = successive_variance_reduction(
                cleaned[span_start : t + 1], sv_max
            )
            cleaned[span_start : t + 1] = result.cleaned
            flagged.update(span_start + k for k in result.removed_indices)
            consecutive = 0
        report = CGARCHReport(
            flagged=tuple(sorted(flagged)),
            trend_changes=tuple(trend_changes),
            cleaned=cleaned,
            sv_max=float(sv_max),
        )
        ts = np.arange(H, last)
        return gaussian_series(ts, means, variances, kappa), report

    @staticmethod
    def learn_sv_max(clean_values: np.ndarray, oc_max: int) -> float:
        """Expose :func:`repro.cleaning.learn_sv_max` on the metric class."""
        return learn_sv_max(clean_values, oc_max)

    def __repr__(self) -> str:
        return (
            f"CGARCHMetric(base={self.base!r}, oc_max={self.oc_max}, "
            f"sv_max={self.sv_max})"
        )
