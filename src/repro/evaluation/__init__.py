"""Quality evaluation of dynamic density metrics (paper Section II-B, VII-D).

Because the true densities are unobservable, quality is measured indirectly:
the probability integral transform maps realised values through their
forecast CDFs; if the forecasts equal the truth, the transforms are i.i.d.
uniform, and the *density distance* (eq. 1) measures the departure from
uniformity.  The Engle ARCH test of Section VII-D verifies that a series
exhibits the time-varying volatility that justifies the GARCH machinery.
"""

from repro.evaluation.density_distance import density_distance, density_distance_from_pit
from repro.evaluation.volatility_test import ArchTestResult, engle_arch_test, rolling_arch_test

__all__ = [
    "ArchTestResult",
    "density_distance",
    "density_distance_from_pit",
    "engle_arch_test",
    "rolling_arch_test",
]
