"""Dynamic density metrics (paper Sections III-V).

A *dynamic density metric* infers a time-dependent probability density
``p_t(R_t)`` for each raw value from the sliding window preceding it
(Definition 1).  The four metrics the paper evaluates, plus the C-GARCH
enhancement, live here:

========================  =============================================
Metric                    Density for time ``t``
========================  =============================================
UniformThresholdingMetric ``U(r_hat_t - u, r_hat_t + u)``
VariableThresholdingMetric``N(r_hat_t, s_t^2)`` (window sample variance)
ARMAGARCHMetric           ``N(r_hat_t, sigma_hat_t^2)``, ARMA mean
KalmanGARCHMetric         ``N(r_hat_t, sigma_hat_t^2)``, Kalman mean
CGARCHMetric              ARMA-GARCH on *cleaned* values (Section V)
========================  =============================================
"""

from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.base import DensityForecast, DensitySeries, DynamicDensityMetric
from repro.metrics.cgarch import CGARCHMetric, CGARCHReport
from repro.metrics.kalman_garch import KalmanGARCHMetric
from repro.metrics.registry import available_metrics, create_metric
from repro.metrics.uniform_threshold import UniformThresholdingMetric
from repro.metrics.variable_threshold import VariableThresholdingMetric

__all__ = [
    "ARMAGARCHMetric",
    "CGARCHMetric",
    "CGARCHReport",
    "DensityForecast",
    "DensitySeries",
    "DynamicDensityMetric",
    "KalmanGARCHMetric",
    "UniformThresholdingMetric",
    "VariableThresholdingMetric",
    "available_metrics",
    "create_metric",
]
