"""Successive Variance Reduction filter (paper Section V-B, Algorithm 2).

Given a short value window ``V = [v_1 .. v_K]`` possibly containing
erroneous spikes and a dispersion threshold ``SVmax``, the filter repeatedly
finds the point whose removal reduces the sample variance the most, deletes
it, and reconstructs it by interpolating its neighbours — stopping once the
sample variance drops to ``SVmax`` or below.

The published pseudocode contains three transcription slips (inverted stop
condition, a dropped sum-of-squares term in the leave-one-out variance, and
a ``cVar`` initialisation that can never update); DESIGN.md documents them.
This implementation follows the surrounding text and Fig. 6: *continue
while* ``SV(V) > SVmax`` and delete the point giving the *maximum variance
reduction*, i.e. the minimum leave-one-out variance, computed in O(1) per
candidate from the running sums so each iteration stays linear and the whole
filter quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.timeseries.stats import rolling_variance
from repro.util.validation import require_finite_array

__all__ = ["SVRResult", "successive_variance_reduction", "learn_sv_max"]


@dataclass(frozen=True)
class SVRResult:
    """Outcome of one filter run.

    Attributes
    ----------
    cleaned:
        The window with every removed point replaced by interpolation; same
        length as the input.
    removed_indices:
        Positions (into the original window) that were deleted, in removal
        order.
    iterations:
        Number of delete-and-interpolate passes performed.
    final_variance:
        Sample variance of ``cleaned``.
    """

    cleaned: np.ndarray
    removed_indices: tuple[int, ...]
    iterations: int
    final_variance: float

    @property
    def n_removed(self) -> int:
        return len(self.removed_indices)


def successive_variance_reduction(
    values: np.ndarray,
    sv_max: float,
    *,
    max_removals: int | None = None,
) -> SVRResult:
    """Run Algorithm 2 on ``values`` with threshold ``sv_max``.

    Parameters
    ----------
    values:
        The window ``V`` (length >= 3) to clean.
    sv_max:
        Dispersion threshold ``SVmax``; the loop stops once the sample
        variance is at or below it.
    max_removals:
        Safety cap on deletions (default ``K - 3``, leaving at least three
        genuine points); prevents livelock when ``sv_max`` is unachievably
        small, e.g. zero on noisy data.

    >>> window = np.array([1.0, 1.1, 0.9, 50.0, 1.0, 1.05])
    >>> result = successive_variance_reduction(window, sv_max=0.5)
    >>> result.removed_indices
    (3,)
    >>> bool(abs(result.cleaned[3] - 0.95) < 1e-9)  # midpoint of neighbours
    True
    """
    window = require_finite_array("values", values, min_len=3).copy()
    if sv_max < 0:
        raise InvalidParameterError(f"sv_max must be >= 0, got {sv_max}")
    size = window.size
    cap = size - 3 if max_removals is None else min(max_removals, size - 1)
    removed: list[int] = []
    iterations = 0
    while iterations < max(cap, 0):
        variance = _sample_variance(window)
        if variance <= sv_max:
            break
        k_best = _max_reduction_index(window)
        if k_best < 0:
            break  # No single removal reduces the variance (flat window).
        removed.append(k_best)
        window[k_best] = _reconstruct(window, k_best)
        iterations += 1
    return SVRResult(
        cleaned=window,
        removed_indices=tuple(removed),
        iterations=iterations,
        final_variance=_sample_variance(window),
    )


def learn_sv_max(clean_values: np.ndarray, window: int) -> float:
    """Learn ``SVmax`` from a clean sample (paper Section V-B).

    Returns the maximum sample variance observed over all sliding windows of
    size ``window`` (the paper uses ``window = oc_max``), i.e. the largest
    dispersion a genuine trend change produces; anything above it is treated
    as erroneous.
    """
    data = require_finite_array("clean_values", clean_values, min_len=window)
    return float(np.max(rolling_variance(data, window)))


def _sample_variance(window: np.ndarray) -> float:
    if window.size < 2:
        return 0.0
    return float(np.var(window, ddof=1))


def _max_reduction_index(window: np.ndarray) -> int:
    """Index whose deletion minimises the leave-one-out sample variance.

    Uses the running sums ``S = sum(v)`` and ``S2 = sum(v^2)`` so each
    candidate is O(1):

        SV(V \\ v_k) = (S2 - v_k^2 - (S - v_k)^2 / (K-1)) / (K - 2)

    Returns -1 when no removal strictly reduces the variance.
    """
    size = window.size
    if size < 3:
        return -1
    total = float(np.sum(window))
    total2 = float(np.sum(window * window))
    current = (total2 - total * total / size) / (size - 1)
    best_variance = np.inf
    best_index = -1
    for k in range(size):
        vk = float(window[k])
        reduced = (total2 - vk * vk - (total - vk) ** 2 / (size - 1)) / (size - 2)
        if reduced < best_variance:
            best_variance = reduced
            best_index = k
    if best_variance >= current:
        return -1
    return best_index


def _reconstruct(window: np.ndarray, k: int) -> float:
    """Replace the deleted point: interpolate interiors, extrapolate edges.

    Edge extrapolations are clamped to the range of the surviving points so
    a steep local slope can never synthesise a replacement more extreme
    than the data it came from (which would re-raise the variance the
    deletion just removed).
    """
    size = window.size
    if 0 < k < size - 1:
        return 0.5 * (float(window[k - 1]) + float(window[k + 1]))
    if k == 0:
        if size >= 3:
            # Linear extrapolation from the two nearest points.
            value = 2.0 * float(window[1]) - float(window[2])
        else:
            value = float(window[1])
        remaining = window[1:]
    else:
        if size >= 3:
            value = 2.0 * float(window[size - 2]) - float(window[size - 3])
        else:
            value = float(window[size - 2])
        remaining = window[:-1]
    return float(np.clip(value, np.min(remaining), np.max(remaining)))
