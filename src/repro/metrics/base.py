"""Dynamic density metric interface and rolling application.

Definition 1 of the paper: given a sliding window ``S^H_{t-1}``, a metric
estimates the density ``p_t(R_t)`` of the random variable associated with
the raw value at time ``t``.  :class:`DynamicDensityMetric` captures that
single-step contract; :meth:`DynamicDensityMetric.run` rolls it over a whole
series, producing the :class:`DensitySeries` that the Omega-view builder and
the density-distance evaluation consume.

Batch path
----------
:class:`DensitySeries` has one representation: ``t``, ``mean``,
``volatility``, the kappa bounds and the optional exact ``variance`` live in
numpy columns next to a per-row ``family_code`` (Gaussian or uniform);
item access yields one row as a :class:`DensityForecast` record.
:meth:`DynamicDensityMetric.infer_batch` is the one inference method a
metric implements, including one registered through ``register_metric``:
:meth:`DynamicDensityMetric.run` stacks all sliding windows into one
``(T, H)`` matrix and hands it over, the online pipeline hands over the
windows of each micro-batch, and :meth:`DynamicDensityMetric.infer` is a
one-row call.  ``ewma`` and the two thresholding metrics compute all rows
in vectorised passes; ``arma_garch``, ``kalman_garch`` and C-GARCH (which
cleans each row's window before its fit) still estimate one model per row,
in time order by design — a GARCH fit warm-starts from the previous
window's optimum, so the rows are a chain, not a batch — and write their
results straight into the columns.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.distributions import gaussian_cdf, uniform_cdf
from repro.exceptions import DataError, InvalidParameterError
from repro.timeseries.series import TimeSeries
from repro.util.arrays import readonly_view
from repro.util.validation import require_int64_column

__all__ = [
    "FAMILIES",
    "GAUSSIAN",
    "UNIFORM",
    "DensityForecast",
    "DensitySeries",
    "DynamicDensityMetric",
    "batch_variance_floor",
    "gaussian_series",
    "variance_floor",
]

#: ``family_code`` of an ``N(mean, variance)`` and of a ``U(lower, upper)`` row;
#: ``FAMILIES[code]`` is its ``family=`` name in ``DensitySeries.from_columns``.
GAUSSIAN, UNIFORM = 0, 1
FAMILIES = ("gaussian", "uniform")

#: Base variance floor for degenerate (constant) windows.
_VARIANCE_FLOOR = 1e-12


def variance_floor(window: np.ndarray) -> float:
    """Variance floor keeping degenerate (constant) windows usable.

    For a perfectly constant window the inferred variance is zero and the
    floor alone defines the density, so it must scale with the window
    magnitude: with ``sigma ~ 1e-6`` and values around ``1e3``, CDF
    evaluations at ``mean +/- kappa * sigma`` would lose most of their
    precision to float cancellation in ``x - mean``.  Non-constant windows
    carry real variance information, however small, so they keep the tiny
    absolute floor rather than having genuine values overridden.
    """
    window = np.asarray(window)
    if window.size and np.ptp(window) == 0.0:
        scale = float(abs(window.flat[0]))
        return _VARIANCE_FLOOR * max(1.0, scale * scale)
    return _VARIANCE_FLOOR


def batch_variance_floor(windows: np.ndarray) -> np.ndarray:
    """Per-row :func:`variance_floor` for a ``(T, H)`` window matrix."""
    constant = np.ptp(windows, axis=1) == 0.0
    scale = np.abs(windows[:, 0])
    return np.where(
        constant,
        _VARIANCE_FLOOR * np.maximum(1.0, scale * scale),
        _VARIANCE_FLOOR,
    )


@dataclass(frozen=True)
class DensityForecast:
    """One row of a :class:`DensitySeries`: the inferred density for one
    inference time, as a read-only record of that row's columns.

    Attributes
    ----------
    t:
        Inference index into the source series.
    mean:
        Expected true value ``r_hat_t`` (Definition 3).
    volatility:
        The inferred standard deviation ``sigma_hat_t`` (or the uniform
        equivalent); the sigma-cache keys on it.
    lower, upper:
        kappa-scaled bounds ``r_hat_t -/+ kappa * sigma_hat_t`` from
        Algorithm 1 (the support edges for the uniform metric).
    family_code:
        :data:`GAUSSIAN` (the density is ``N(mean, variance)``) or
        :data:`UNIFORM` (``U(lower, upper)``).
    variance:
        The exact inferred variance (``volatility ** 2`` when the series
        carries none).
    """

    t: int
    mean: float
    volatility: float
    lower: float
    upper: float
    family_code: int
    variance: float

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the kappa-scaled bounds."""
        return self.lower <= value <= self.upper


class DensitySeries:
    """An ordered collection of inferred densities, held as columns.

    ``t`` / ``mean`` / ``volatility`` / ``lower`` / ``upper`` (plus the
    optional exact ``variance``) are parallel numpy arrays, and an int8
    ``family_code`` column names each row's density: :data:`GAUSSIAN` is
    ``N(mean, variance)``, :data:`UNIFORM` is ``U(lower, upper)``.  The
    Omega-view builder and the probability integral transform are plain
    array operations over them.  :meth:`from_columns` builds a series;
    item access yields one row as a :class:`DensityForecast` record.
    """

    @classmethod
    def from_columns(
        cls,
        t: np.ndarray,
        mean: np.ndarray,
        volatility: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        *,
        family: str | np.ndarray = "gaussian",
        variance: np.ndarray | None = None,
    ) -> "DensitySeries":
        """Build a series from forecast columns.

        ``family`` names the distribution every row carries (``"gaussian"``
        or ``"uniform"``), or gives one family code per row
        (:data:`GAUSSIAN` / :data:`UNIFORM`) for a mixed series.
        ``variance`` optionally carries the exact inferred variances so
        Gaussian rows do not round-trip through ``sqrt``.  A Gaussian row
        needs a finite mean, a positive finite variance and finite bounds
        with ``lower <= upper`` (equal at ``kappa = 0``), a uniform row
        finite bounds with ``upper > lower``.
        """
        t = require_int64_column("t", t)
        if isinstance(family, str):
            if family not in FAMILIES:
                raise InvalidParameterError(
                    f"unknown forecast family {family!r}; use gaussian or uniform"
                )
            family = np.full(t.size, FAMILIES.index(family), dtype=np.int8)
        self = cls.__new__(cls)
        self._t = t
        self._mean = np.ascontiguousarray(mean, dtype=float)
        self._vol = np.ascontiguousarray(volatility, dtype=float)
        self._lower = np.ascontiguousarray(lower, dtype=float)
        self._upper = np.ascontiguousarray(upper, dtype=float)
        code = require_int64_column("family_code", family)
        if code.size and (int(code.min()) < GAUSSIAN or int(code.max()) > UNIFORM):
            raise DataError(f"family codes must be {GAUSSIAN} or {UNIFORM}")
        self._family = code.astype(np.int8)
        self._variance = (
            None if variance is None else np.ascontiguousarray(variance, dtype=float)
        )
        columns = (t, self._mean, self._vol, self._lower, self._upper, code)
        if len({c.size for c in columns + (self._variance,) if c is not None}) != 1:
            raise DataError("forecast columns must have equal length")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise DataError("forecasts must be in strictly increasing time order")
        sigma2 = self._vol**2 if variance is None else self._variance
        bounded = np.isfinite(self._lower) & np.isfinite(self._upper)
        valid = np.where(
            self._family == GAUSSIAN,
            np.isfinite(self._mean)
            & np.isfinite(sigma2)
            & (sigma2 > 0.0)
            & bounded
            & (self._lower <= self._upper),
            bounded & (self._upper > self._lower),
        )
        if not np.all(valid):
            i = int(np.argmin(valid))
            raise InvalidParameterError(
                f"forecast at t={t[i]} is no {FAMILIES[self._family[i]]} density: "
                f"mean {self._mean[i]!r}, variance {sigma2[i]!r}, "
                f"bounds [{self._lower[i]!r}, {self._upper[i]!r}]"
            )
        return self

    # ------------------------------------------------------------------
    # Row records.
    # ------------------------------------------------------------------
    def _row(self, index: int) -> DensityForecast:
        variance = (
            self._vol[index] ** 2 if self._variance is None else self._variance[index]
        )
        return DensityForecast(
            t=int(self._t[index]),
            mean=float(self._mean[index]),
            volatility=float(self._vol[index]),
            lower=float(self._lower[index]),
            upper=float(self._upper[index]),
            family_code=int(self._family[index]),
            variance=float(variance),
        )

    def __len__(self) -> int:
        return self._t.size

    def __iter__(self) -> Iterator[DensityForecast]:
        for index in range(len(self)):
            yield self._row(index)

    def __getitem__(
        self, index: int | slice
    ) -> DensityForecast | list[DensityForecast]:
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._row(index)

    # ------------------------------------------------------------------
    # Columnar views.
    # ------------------------------------------------------------------
    @property
    def family_codes(self) -> np.ndarray:
        """Per-row distribution family: :data:`GAUSSIAN` or :data:`UNIFORM`."""
        return readonly_view(self._family)

    @property
    def variances(self) -> np.ndarray | None:
        """Exact inferred variances, when carried.

        ``None`` for series that only know ``volatility`` (consumers then
        use ``volatilities ** 2``).  Persisting this column keeps a Gaussian
        row's variance free of the ``sqrt``/square round trip.
        """
        if self._variance is None:
            return None
        return readonly_view(self._variance)

    @property
    def times(self) -> np.ndarray:
        """Inference indices as an int array."""
        return readonly_view(self._t)

    @property
    def means(self) -> np.ndarray:
        """Expected true values ``r_hat_t``."""
        return readonly_view(self._mean)

    @property
    def volatilities(self) -> np.ndarray:
        """Inferred standard deviations ``sigma_hat_t``."""
        return readonly_view(self._vol)

    @property
    def lowers(self) -> np.ndarray:
        """kappa-scaled lower bounds."""
        return readonly_view(self._lower)

    @property
    def uppers(self) -> np.ndarray:
        """kappa-scaled upper bounds."""
        return readonly_view(self._upper)

    def gaussian_params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(mask, mu, sigma)``: which rows are Gaussian, and their mean and
        standard deviation (``sqrt(variance)`` when the exact variance is
        carried, else the volatility; meaningful where ``mask`` holds)."""
        sigma = self._vol if self._variance is None else np.sqrt(self._variance)
        return self._family == GAUSSIAN, self._mean, sigma

    # ------------------------------------------------------------------
    # Series-level consumers.
    # ------------------------------------------------------------------
    def realised(self, series: TimeSeries) -> np.ndarray:
        """The value of ``series`` at each forecast time.

        ``series`` must be the raw series the forecasts were computed on;
        a time outside ``0 <= t < len(series)`` raises :class:`DataError`.
        """
        n = len(series)
        outside = (self._t < 0) | (self._t >= n)
        if np.any(outside):
            bad = int(self._t[int(np.argmax(outside))])
            raise DataError(
                f"forecast for t={bad} has no realised value in a "
                f"series of length {n}"
            )
        return series.values[self._t]

    def pit(self, series: TimeSeries) -> np.ndarray:
        """Probability integral transforms ``z_t = P_t(r_t)`` (Section II-B):
        each :meth:`realised` value pushed through its row's :meth:`cdf`."""
        return self.cdf(self.realised(series))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Row ``i``'s CDF at ``x[i]``: one vectorised call per family."""
        x = np.asarray(x, dtype=float)
        mask, mu, sigma = self.gaussian_params()
        out = np.empty(len(self))
        if np.any(mask):
            out[mask] = gaussian_cdf(x[mask], mu[mask], sigma[mask])
        uniform = ~mask
        if np.any(uniform):
            out[uniform] = uniform_cdf(
                x[uniform], self._lower[uniform], self._upper[uniform]
            )
        return out

    def coverage(self, series: TimeSeries) -> float:
        """Fraction of realised values inside the kappa-scaled bounds."""
        if not len(self):
            raise DataError("coverage of an empty DensitySeries")
        realised = self.realised(series)
        hits = np.count_nonzero(
            (self._lower <= realised) & (realised <= self._upper)
        )
        return hits / len(self)


def gaussian_series(
    ts: np.ndarray, mean: np.ndarray, variance: np.ndarray, kappa: float
) -> DensitySeries:
    """``N(mean, variance)`` per entry of ``ts``, bounds ``mean -/+ kappa * sigma``."""
    sigma = np.sqrt(variance)
    return DensitySeries.from_columns(
        np.asarray(ts, dtype=np.int64),
        mean,
        sigma,
        mean - kappa * sigma,
        mean + kappa * sigma,
        family="gaussian",
        variance=variance,
    )


class DynamicDensityMetric(ABC):
    """Base class for every dynamic density metric.

    Subclasses implement :meth:`infer_batch` — one density per window of a
    stacked window matrix.  The base class provides the one-window
    :meth:`infer` and the rolling :meth:`run` shared by experiments, the
    view builder and the pipeline; both delegate to :meth:`infer_batch`.
    """

    #: Short machine name used by the registry and the SQL METRIC clause.
    name: str = "abstract"

    #: Smallest window the metric can be fit on; subclasses override.
    min_window = 3

    @abstractmethod
    def infer_batch(self, windows: np.ndarray, ts: np.ndarray) -> DensitySeries:
        """Infer one density per row of the ``(T, H)`` window matrix.

        ``ts[i]`` is the inference index of row ``i``; rows are visited in
        time order (see *Batch path* in the module docstring).
        """

    def infer(self, window: np.ndarray, t: int) -> DensityForecast:
        """Infer ``p_t(R_t)`` from the sliding window ``S^H_{t-1}``.

        :meth:`infer_batch` on a one-row window matrix.
        """
        window = np.asarray(window, dtype=float)
        if window.ndim != 1 or window.size < self.min_window:
            raise InvalidParameterError(
                f"{type(self).__name__} needs a 1-d window of at least "
                f"{self.min_window} values, got shape {window.shape}"
            )
        return self.infer_batch(window[None, :], np.array([t], dtype=np.int64))[0]

    def run(
        self,
        series: TimeSeries,
        H: int,
        *,
        start: int | None = None,
        stop: int | None = None,
        step: int = 1,
    ) -> DensitySeries:
        """Apply the metric over every window of ``series``.

        ``start``/``stop``/``step`` bound and subsample the inference times,
        mirroring :meth:`TimeSeries.iter_windows`.  All windows are stacked
        into one matrix and dispatched through :meth:`infer_batch`.
        Returns the collected :class:`DensitySeries`.
        """
        if H < self.min_window:
            raise InvalidParameterError(
                f"{type(self).__name__} needs a window of at least "
                f"{self.min_window} values, got H={H}"
            )
        ts = series.window_indices(H, start=start, stop=stop, step=step)
        if ts.size == 0:
            raise DataError(
                f"series of length {len(series)} yields no windows of size {H}"
            )
        # ts is an arithmetic progression, so the window matrix is a plain
        # strided slice of the sliding-window view — zero-copy.
        all_windows = np.lib.stride_tricks.sliding_window_view(series.values, H)
        windows = all_windows[int(ts[0]) - H : int(ts[-1]) - H + 1 : step]
        return self.infer_batch(windows, ts)
