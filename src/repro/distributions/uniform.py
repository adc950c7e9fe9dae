"""Uniform distribution on ``[low, high]``.

The uniform-thresholding metric (paper Section III) centres a uniform
density of half-width ``u`` (the user threshold) on the ARMA expected true
value; this class is its output type.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import Distribution
from repro.exceptions import InvalidParameterError

__all__ = ["Uniform", "uniform_cdf"]


def uniform_cdf(
    x: float | np.ndarray,
    low: float | np.ndarray,
    high: float | np.ndarray,
) -> np.ndarray:
    """Vectorised ``P(U(low, high) <= x)``, broadcasting freely: the one
    definition :meth:`Uniform.cdf` and the batch paths share (cf.
    :func:`~repro.distributions.gaussian.gaussian_cdf`)."""
    return np.clip((np.asarray(x, dtype=float) - low) / (high - low), 0.0, 1.0)


class Uniform(Distribution):
    """Continuous uniform distribution.

    >>> u = Uniform(2.0, 6.0)
    >>> u.mean(), u.prob(3.0, 5.0)
    (4.0, 0.5)
    """

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float) -> None:
        low = float(low)
        high = float(high)
        if not (math.isfinite(low) and math.isfinite(high)):
            raise InvalidParameterError(f"bounds must be finite, got [{low}, {high}]")
        if high <= low:
            raise InvalidParameterError(
                f"high must exceed low, got [{low}, {high}]"
            )
        self.low = low
        self.high = high

    @classmethod
    def centered(cls, center: float, half_width: float) -> "Uniform":
        """The paper's construction: ``[r_hat - u, r_hat + u]``."""
        if half_width <= 0:
            raise InvalidParameterError(
                f"half_width must be > 0, got {half_width}"
            )
        return cls(center - half_width, center + half_width)

    @property
    def width(self) -> float:
        return self.high - self.low

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        x_array = np.asarray(x, dtype=float)
        result = np.where(
            (x_array >= self.low) & (x_array <= self.high), 1.0 / self.width, 0.0
        )
        return float(result) if np.ndim(x) == 0 else result

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        result = uniform_cdf(x, self.low, self.high)
        return float(result) if np.ndim(x) == 0 else result

    def ppf(self, u: float | np.ndarray) -> float | np.ndarray:
        u_array = np.asarray(u, dtype=float)
        if np.any((u_array < 0.0) | (u_array > 1.0)):
            raise InvalidParameterError("quantile argument must be in [0, 1]")
        result = self.low + u_array * self.width
        return float(result) if np.ndim(u) == 0 else result

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def variance(self) -> float:
        return self.width**2 / 12.0

    def __repr__(self) -> str:
        return f"Uniform(low={self.low:.6g}, high={self.high:.6g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Uniform):
            return NotImplemented
        return self.low == other.low and self.high == other.high

    def __hash__(self) -> int:
        return hash((self.low, self.high))
