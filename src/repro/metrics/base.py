"""Dynamic density metric interface and rolling application.

Definition 1 of the paper: given a sliding window ``S^H_{t-1}``, a metric
estimates the density ``p_t(R_t)`` of the random variable associated with
the raw value at time ``t``.  :class:`DynamicDensityMetric` captures that
single-step contract; :meth:`DynamicDensityMetric.run` rolls it over a whole
series, producing the :class:`DensitySeries` that the Omega-view builder and
the density-distance evaluation consume.

Batch path
----------
:class:`DensitySeries` is column-backed: ``t``, ``mean``, ``volatility`` and
the kappa bounds live in preallocated numpy arrays, and the per-forecast
:class:`DensityForecast` objects are materialised lazily on item access.
:meth:`DynamicDensityMetric.infer_batch` is the one inference method a
metric implements, including one registered through ``register_metric``:
:meth:`DynamicDensityMetric.run` stacks all sliding windows into one
``(T, H)`` matrix and hands it over, the online pipeline hands over the
windows of each micro-batch, and :meth:`DynamicDensityMetric.infer` is a
one-row call.  ``ewma`` and the two thresholding metrics compute all rows
in vectorised passes; ``arma_garch``, ``kalman_garch`` and C-GARCH (which
cleans each row's window before its fit) still estimate one model per row,
in time order by design — a GARCH fit warm-starts from the previous
window's optimum, so the rows are a chain, not a batch — and only skip the
per-row :class:`DensityForecast` objects.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.gaussian import Gaussian, gaussian_cdf
from repro.distributions.uniform import Uniform
from repro.exceptions import DataError, InvalidParameterError
from repro.timeseries.series import TimeSeries
from repro.util.arrays import readonly_view

__all__ = [
    "DensityForecast",
    "DensitySeries",
    "DynamicDensityMetric",
    "batch_variance_floor",
    "gaussian_series",
    "variance_floor",
]

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
    """The inferred density for one inference time.

    Attributes
    ----------
    t:
        Inference index into the source series.
    mean:
        Expected true value ``r_hat_t`` (Definition 3).
    distribution:
        The full inferred density ``p_t(R_t)``.
    lower, upper:
        kappa-scaled bounds ``r_hat_t -/+ kappa * sigma_hat_t`` from
        Algorithm 1 (equal to the distribution support edges for the
        uniform metric).
    volatility:
        The inferred standard deviation ``sigma_hat_t`` (or the uniform
        equivalent); exposed separately because the sigma-cache keys on it.
    """

    t: int
    mean: float
    distribution: Distribution
    lower: float
    upper: float
    volatility: float

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the kappa-scaled bounds."""
        return self.lower <= value <= self.upper


class DensitySeries:
    """An ordered collection of :class:`DensityForecast`.

    Internally columnar: ``t`` / ``mean`` / ``volatility`` / ``lower`` /
    ``upper`` are stored as parallel numpy arrays, so the vectorised views
    and the probability-integral-transform are plain array operations.
    Item access still yields :class:`DensityForecast` objects; for series
    built via :meth:`from_columns` they are materialised lazily.
    """

    def __init__(self, forecasts: Sequence[DensityForecast]) -> None:
        forecasts = list(forecasts)
        n = len(forecasts)
        self._t = np.empty(n, dtype=np.int64)
        self._mean = np.empty(n)
        self._vol = np.empty(n)
        self._lower = np.empty(n)
        self._upper = np.empty(n)
        for index, forecast in enumerate(forecasts):
            self._t[index] = forecast.t
            self._mean[index] = forecast.mean
            self._vol[index] = forecast.volatility
            self._lower[index] = forecast.lower
            self._upper[index] = forecast.upper
        self._check_ordering()
        self._forecasts: list[DensityForecast | None] = forecasts
        self._family: str | None = None
        self._variance: np.ndarray | None = None
        self._gaussian: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_columns(
        cls,
        t: np.ndarray,
        mean: np.ndarray,
        volatility: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        *,
        family: str = "gaussian",
        variance: np.ndarray | None = None,
    ) -> "DensitySeries":
        """Build a series directly from forecast columns (the batch path).

        ``family`` names the distribution every row carries (``"gaussian"``
        or ``"uniform"``); the :class:`DensityForecast` objects — and their
        distributions — are only materialised when individually accessed.
        ``variance`` optionally carries the exact inferred variances so
        Gaussian materialisation does not round-trip through ``sqrt``.
        """
        if family not in ("gaussian", "uniform"):
            raise InvalidParameterError(
                f"unknown forecast family {family!r}; use gaussian or uniform"
            )
        self = cls.__new__(cls)
        self._t = np.ascontiguousarray(t, dtype=np.int64)
        self._mean = np.ascontiguousarray(mean, dtype=float)
        self._vol = np.ascontiguousarray(volatility, dtype=float)
        self._lower = np.ascontiguousarray(lower, dtype=float)
        self._upper = np.ascontiguousarray(upper, dtype=float)
        sizes = {
            arr.size
            for arr in (self._t, self._mean, self._vol, self._lower, self._upper)
        }
        if len(sizes) != 1:
            raise DataError("forecast columns must have equal length")
        self._check_ordering()
        self._forecasts = [None] * self._t.size
        self._family = family
        self._variance = (
            None if variance is None else np.ascontiguousarray(variance, dtype=float)
        )
        self._gaussian = None
        return self

    def _check_ordering(self) -> None:
        if self._t.size > 1 and np.any(np.diff(self._t) <= 0):
            raise DataError("forecasts must be in strictly increasing time order")

    # ------------------------------------------------------------------
    # Lazy materialisation.
    # ------------------------------------------------------------------
    def _materialise(self, index: int) -> DensityForecast:
        forecast = self._forecasts[index]
        if forecast is None:
            if self._family == "uniform":
                distribution: Distribution = Uniform(
                    float(self._lower[index]), float(self._upper[index])
                )
            else:
                variance = (
                    float(self._variance[index])
                    if self._variance is not None
                    else float(self._vol[index]) ** 2
                )
                distribution = Gaussian(float(self._mean[index]), variance)
            forecast = DensityForecast(
                t=int(self._t[index]),
                mean=float(self._mean[index]),
                distribution=distribution,
                lower=float(self._lower[index]),
                upper=float(self._upper[index]),
                volatility=float(self._vol[index]),
            )
            self._forecasts[index] = forecast
        return forecast

    def __len__(self) -> int:
        return self._t.size

    def __iter__(self) -> Iterator[DensityForecast]:
        for index in range(len(self)):
            yield self._materialise(index)

    def __getitem__(
        self, index: int | slice
    ) -> DensityForecast | list[DensityForecast]:
        if isinstance(index, slice):
            return [self._materialise(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._materialise(index)

    # ------------------------------------------------------------------
    # Columnar views.
    # ------------------------------------------------------------------
    @property
    def family(self) -> str | None:
        """Homogeneous distribution family tag, if known.

        ``"gaussian"`` / ``"uniform"`` for series built through
        :meth:`from_columns`; ``None`` for object-built series (which may
        mix families).  Lets columnar consumers (e.g. the binary store)
        skip per-forecast materialisation.
        """
        return self._family

    @property
    def variances(self) -> np.ndarray | None:
        """Exact inferred variances, when carried.

        ``None`` for series that only know ``volatility`` (consumers then
        use ``volatilities ** 2``).  Persisting this column keeps Gaussian
        materialisation free of the ``sqrt``/square round trip.
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
        """``(mask, mu, sigma)`` columns of the Gaussian rows.

        ``mask[i]`` is true when forecast ``i`` carries a Gaussian density;
        ``mu``/``sigma`` hold its parameters there (undefined elsewhere).
        The Omega-view builder keys its broadcasted CDF path on this.
        Column-backed Gaussian series answer without materialising anything.
        """
        if self._gaussian is None:
            if self._family == "gaussian":
                self._gaussian = (
                    np.ones(len(self), dtype=bool),
                    self._mean,
                    self._vol,
                )
            elif self._family == "uniform":
                self._gaussian = (
                    np.zeros(len(self), dtype=bool),
                    self._mean,
                    self._vol,
                )
            else:
                mask = np.zeros(len(self), dtype=bool)
                mu = np.zeros(len(self))
                sigma = np.ones(len(self))
                for index in range(len(self)):
                    distribution = self._materialise(index).distribution
                    if isinstance(distribution, Gaussian):
                        mask[index] = True
                        mu[index] = distribution.mu
                        sigma[index] = math.sqrt(distribution.sigma2)
                self._gaussian = (mask, mu, sigma)
        return self._gaussian

    # ------------------------------------------------------------------
    # Series-level consumers.
    # ------------------------------------------------------------------
    def pit(self, series: TimeSeries) -> np.ndarray:
        """Probability integral transforms ``z_t = P_t(r_t)`` (Section II-B).

        ``series`` must be the raw series the forecasts were computed on;
        each realised value is pushed through its forecast CDF.  All
        Gaussian forecasts are evaluated in a single vectorised normal-CDF
        call over the column arrays; only non-Gaussian rows fall back to
        per-object CDF evaluation.
        """
        n = len(series)
        out_of_range = self._t >= n
        if np.any(out_of_range):
            bad = int(self._t[int(np.argmax(out_of_range))])
            raise DataError(
                f"forecast for t={bad} has no realised value in a "
                f"series of length {n}"
            )
        realised = series.values[self._t]
        mask, mu, sigma = self.gaussian_params()
        out = np.empty(len(self))
        if np.any(mask):
            out[mask] = gaussian_cdf(realised[mask], mu[mask], sigma[mask])
        for index in np.flatnonzero(~mask):
            forecast = self._materialise(int(index))
            out[index] = forecast.distribution.cdf(realised[index])
        return out

    def coverage(self, series: TimeSeries) -> float:
        """Fraction of realised values inside the kappa-scaled bounds."""
        if not len(self):
            raise DataError("coverage of an empty DensitySeries")
        realised = series.values[self._t]
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
