"""Time-series substrate: containers and the dynamical models the paper uses.

The dynamic density metrics (Sections III-V of the paper) are thin
compositions of the models in this subpackage:

* :class:`~repro.timeseries.series.TimeSeries` — timestamped values with the
  sliding-window view ``S^H_{t-1}`` of Table I.
* :class:`~repro.timeseries.arma.ARMAModel` — ARMA(p, q) estimation and the
  one-step expected-true-value forecast of eq. (2).
* :class:`~repro.timeseries.garch.GARCHModel` — GARCH(m, s) volatility
  estimation and the one-step variance forecast of eq. (6).
* :class:`~repro.timeseries.kalman.KalmanFilter` — the local-level state
  space model of eqs. (7)-(8) with EM parameter estimation.
"""

from repro.timeseries.arma import ARMAModel, ARMAParams
from repro.timeseries.garch import GARCHModel, GARCHParams
from repro.timeseries.kalman import KalmanFilter, KalmanParams
from repro.timeseries.series import TimeSeries
from repro.timeseries.stats import rolling_variance, sample_variance

__all__ = [
    "ARMAModel",
    "ARMAParams",
    "GARCHModel",
    "GARCHParams",
    "KalmanFilter",
    "KalmanParams",
    "TimeSeries",
    "rolling_variance",
    "sample_variance",
]
