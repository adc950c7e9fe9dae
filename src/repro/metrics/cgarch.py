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
        it from a pass's first window via :func:`learn_sv_max`, assuming it
        is clean — the paper's "sample of clean data".

    The protocol lives in :meth:`infer_batch`, which every route drives
    (:meth:`run`, ``CREATE VIEW``, the online pipeline behind
    ``Catalog.append``); :meth:`run_with_report` adds its diagnostics.
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
        # Cleaning state between rows: the cleaned last-H window, the last
        # oc_max raw values, the run of out-of-bound values, the resolved
        # sv_max and the pending forecast (t, mean, variance).
        self._cleaned = self._raw_tail = np.empty(0)
        self._run = 0
        self._sv_max = sv_max
        self._pending: tuple[int, float, float] | None = None
        # (cleaned, flagged, trend changes), collected only by run_with_report.
        self._report: tuple[np.ndarray, set[int], list[int]] | None = None

    def infer_batch(self, windows: np.ndarray, ts: np.ndarray) -> DensitySeries:
        """Section V's protocol over rows of consecutive times, in order.

        Row ``t`` first admits its window's last value, the raw value at
        ``t - 1``, against that time's pending forecast: kept, replaced by
        the forecast mean, or, closing an ``oc_max`` run, restored with the
        run and SVR-filtered.  It then fits ARMA-GARCH on the cleaned
        window.  A row that does not continue the previous one (a fresh
        metric, a reopened catalog, a one-off :meth:`infer`) starts a fresh
        pass from its raw window, learning ``sv_max`` there if not given.
        """
        if np.any(np.diff(ts) != 1):
            raise InvalidParameterError("C-GARCH rows must be consecutive times")
        means = np.empty(len(ts))
        variances = np.empty(len(ts))
        for row, (t, window) in enumerate(zip(ts.tolist(), windows)):
            if (
                self._pending is not None
                and self._pending[0] == t - 1
                and window.size == self._cleaned.size
                and np.array_equal(window[-self.oc_max - 1 : -1], self._raw_tail)
            ):
                self._admit(window)
            else:
                self._cleaned = np.array(window, dtype=float)
                self._run = 0
                self._sv_max = self.sv_max
                if self.sv_max is None:
                    self._sv_max = learn_sv_max(window, self.oc_max)
            self._raw_tail = window[-self.oc_max :].copy()
            mean, variance = self.base._infer_moments(self._cleaned)
            self._pending = (t, mean, variance)
            means[row], variances[row] = mean, variance
        return gaussian_series(ts, means, variances, self.base.kappa)

    def _admit(self, window: np.ndarray) -> None:
        """Admit ``window[-1]`` against the pending forecast for its time."""
        t, mean, variance = self._pending
        self._pending = None
        value = window[-1]
        self._cleaned = cleaned = np.append(self._cleaned[1:], value)
        reach = self.base.kappa * math.sqrt(variance)
        if mean - reach <= value <= mean + reach:
            self._run = 0
            return
        self._run += 1
        if self._run < self.oc_max:
            cleaned[-1] = mean  # Replace with the inferred value.
            if self._report:
                self._report[0][t] = mean
                self._report[1].add(t)
            return
        # oc_max consecutive out-of-bound values: a genuine trend change.
        # Restore the raw run and rule out true outliers hiding inside it.
        self._run = 0
        result = successive_variance_reduction(window[-self.oc_max :], self._sv_max)
        cleaned[-self.oc_max :] = result.cleaned
        if self._report:
            cleaned_all, flagged, trend_changes = self._report
            span = range(t - self.oc_max + 1, t + 1)
            cleaned_all[span.start : t + 1] = result.cleaned
            flagged.difference_update(span)
            flagged.update(span[k] for k in result.removed_indices)
            trend_changes.append(t)

    def run(
        self,
        series: TimeSeries,
        H: int,
        *,
        start: int | None = None,
        stop: int | None = None,
        step: int = 1,
    ) -> DensitySeries:
        """One fresh cleaning pass over ``series`` through :meth:`infer_batch`.

        The cleaning protocol is sequential, so ``step`` must be 1 and
        ``start`` cannot skip past the first full window.
        """
        if step != 1 or (start is not None and start > H):
            raise InvalidParameterError(
                "C-GARCH is an online sequential procedure: start/step "
                "subsampling would break its cleaning state"
            )
        self._pending = None  # Start a fresh pass.
        return super().run(series, H, stop=stop)

    def run_with_report(
        self, series: TimeSeries, H: int, *, stop: int | None = None
    ) -> tuple[DensitySeries, CGARCHReport]:
        """:meth:`run` plus the diagnostics collected during it.

        The pass ends by admitting the last raw value, which no later row
        admits, so the report covers every time.
        """
        raw = series.values
        self._report = report = (raw.copy(), set(), [])
        try:
            forecasts = self.run(series, H, stop=stop)
            last = int(forecasts.times[-1]) + 1
            self._admit(raw[last - H : last])
        finally:
            self._report = None
        cleaned, flagged, trend_changes = report
        return forecasts, CGARCHReport(
            flagged=tuple(sorted(flagged)),
            trend_changes=tuple(trend_changes),
            cleaned=cleaned[:last],
            sv_max=float(self._sv_max),
        )

    def __repr__(self) -> str:
        return (
            f"CGARCHMetric(base={self.base!r}, oc_max={self.oc_max}, "
            f"sv_max={self.sv_max})"
        )
