"""Argument validation helpers.

These raise :class:`repro.exceptions.InvalidParameterError` or
:class:`repro.exceptions.DataError` with messages that name the offending
parameter, so call sites stay one line long.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError, InvalidParameterError


def require_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when not strict).

    Returns the value unchanged so it can be used inline::

        self.delta = require_positive("delta", delta)
    """
    value = float(value)
    if not np.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    value = float(value)
    if not np.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise InvalidParameterError(f"{name} must be in {bounds}, got {value!r}")
    return value


def require_finite_array(name: str, values: np.ndarray, *, min_len: int = 1) -> np.ndarray:
    """Coerce ``values`` to a 1-D float array and validate it.

    Rejects empty input (below ``min_len``), non-finite entries and arrays
    with more than one dimension.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise DataError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size < min_len:
        raise DataError(f"{name} needs at least {min_len} values, got {array.size}")
    if not np.all(np.isfinite(array)):
        bad = int(np.count_nonzero(~np.isfinite(array)))
        raise DataError(f"{name} contains {bad} non-finite value(s)")
    return array


def require_int64_column(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` as a contiguous int64 column, refusing to truncate: a
    non-integer input must hold finite whole numbers inside int64, or
    :class:`DataError` names the column (``3.5`` is not time ``3``)."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        exact = np.asarray(values, dtype=float)
        bad = ~(
            np.isfinite(exact)
            & (exact == np.floor(exact))
            & (exact >= -(2.0**63))
            & (exact < 2.0**63)
        )
        if np.any(bad):
            raise DataError(
                f"column {name!r} must hold whole numbers inside int64, "
                f"got {float(exact.ravel()[int(np.argmax(bad))])}"
            )
    return np.ascontiguousarray(values, dtype=np.int64)
