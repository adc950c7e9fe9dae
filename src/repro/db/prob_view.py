"""Tuple-independent probabilistic views (the paper's ``prob_view``).

A probabilistic view holds tuples ``(time, range, probability)`` — see the
paper's Fig. 1 and Fig. 2.  Tuples at the same time are mutually exclusive
alternatives (the ranges partition the value domain around ``r_hat_t``);
tuples at different times are independent, the standard tuple-independent
model the paper's Definition 2 targets.

Columnar backing
----------------
The view stores its tuples as parallel numpy columns (``t``, ``low``,
``high``, ``probability`` plus integer label codes) with a sorted per-time
index for O(log T) time slicing, and is built only from columns
(:meth:`ProbabilisticView.from_columns`, which validates every tuple in
one vectorised pass).  Bulk consumers — the queries in
:mod:`repro.db.queries` and :mod:`repro.db.stream_queries` — operate on
the arrays directly via :attr:`ProbabilisticView.columns`.  Rows exist
only as output: :func:`tuple_rows` renders gathered columns as
``[t, low, high, probability, label]`` lists, and item access wraps those
rows in :class:`ProbTuple` records, built afresh on every access.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.exceptions import DataError, InvalidParameterError, QueryError
from repro.view.builder import ProbabilityMatrix
from repro.util.arrays import readonly_view
from repro.util.validation import require_int64_column
from repro.view.omega import OmegaGrid

__all__ = ["ProbTuple", "ProbabilisticView", "ViewColumns", "tuple_rows"]

#: Tolerance when validating that per-time probabilities do not exceed one.
_MASS_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ProbTuple:
    """One row of a probabilistic view, as a read-only record of that
    row's columns (item access builds it; views are built from columns).

    Attributes
    ----------
    t:
        Inference time index.
    low, high:
        The range ``omega = [low, high)`` this tuple asserts (the uppermost
        range of a time additionally owns its closing edge).
    probability:
        ``rho_omega`` — probability that the true value lies in the range.
    label:
        Human-readable range label (e.g. ``"room 2"`` or ``"lambda=-1"``).
    """

    t: int
    low: float
    high: float
    probability: float
    label: str = ""


def tuple_rows(
    t: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    probability: np.ndarray,
    label_code: np.ndarray,
    labels: Sequence[str],
) -> list[list]:
    """Parallel tuple columns as ``[t, low, high, probability, label]``
    rows of Python scalars, ``labels[code]`` decoding each label.

    The one per-row rendering of view tuples: the ``CREATE VIEW`` payload,
    a ``threshold`` answer's JSON rows and :class:`ProbTuple` records are
    all these rows.
    """
    return [
        [time, lo, hi, p, labels[code]]
        for time, lo, hi, p, code in zip(
            t.tolist(),
            low.tolist(),
            high.tolist(),
            probability.tolist(),
            label_code.tolist(),
        )
    ]


class ViewColumns(NamedTuple):
    """Read-only columnar exposure of a view's tuples (the batch API).

    ``t`` / ``low`` / ``high`` / ``probability`` / ``label_code`` are
    parallel arrays in the view's tuple order; ``labels`` decodes the label
    codes.  ``order`` is the stable by-time sort (sorted position →
    tuple index), ``times`` the distinct times ascending, and ``starts`` /
    ``counts`` delimit each time's group inside ``order`` — together they
    give vectorised consumers O(1) per-time slicing.  ``width`` is the
    common group size ``k`` when the tuples already sit in time order and
    every time holds ``k`` of them (every pipeline-written segment), else 0.
    """

    t: np.ndarray
    low: np.ndarray
    high: np.ndarray
    probability: np.ndarray
    label_code: np.ndarray
    labels: tuple[str, ...]
    order: np.ndarray
    times: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    width: int

    def by_time(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Per-tuple ``values`` as a ``(T, k)`` matrix, row ``i`` time ``i``'s
        group in ``order``: a zero-copy reshape given a ``width``, else a
        gather, ``k`` the largest group, cells past ``counts[i]`` ``fill``."""
        if self.width:
            return values.reshape(-1, self.width)
        column = np.arange(int(self.counts.max(initial=0)))
        real = column < self.counts[:, None]
        rows = self.order[np.where(real, self.starts[:, None] + column, 0)]
        return np.where(real, values[rows], fill)


class ProbabilisticView:
    """An ordered collection of :class:`ProbTuple` grouped by time.

    Built from raw arrays by :meth:`from_columns`, the one constructor,
    or from builder output by :meth:`from_matrix`, which expands the grid
    into columns for it.  Provides the per-time access patterns the
    probabilistic queries in :mod:`repro.db.queries` build on.
    """

    # ------------------------------------------------------------------
    # Columnar constructors.
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        name: str,
        t: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        probability: np.ndarray,
        labels: Sequence[str] | None = None,
        *,
        label_code: np.ndarray | None = None,
        label_pool: Sequence[str] | None = None,
    ) -> "ProbabilisticView":
        """Build a view from parallel per-tuple arrays.

        ``labels`` optionally carries one label string per tuple.
        Alternatively ``label_code`` / ``label_pool`` carry the already
        dictionary-encoded form (one code per tuple indexing into the pool)
        — the zero-decode path the binary store backend loads through.
        Every tuple is checked in one vectorised pass: a finite range
        with ``high > low`` and a probability in ``[0, 1]`` (NaN refused
        by both); then no time's probabilities may sum above one.
        """
        t = require_int64_column("t", t)
        low = np.ascontiguousarray(low, dtype=float)
        high = np.ascontiguousarray(high, dtype=float)
        probability = np.ascontiguousarray(probability, dtype=float)
        if not (t.size == low.size == high.size == probability.size):
            raise DataError("view columns must have equal length")
        bad_range = ~(np.isfinite(low) & np.isfinite(high) & (high > low))
        if np.any(bad_range):
            index = int(np.argmax(bad_range))
            raise InvalidParameterError(
                f"tuple range must be finite with its upper bound above "
                f"its lower, got [{low[index]}, {high[index]}]"
            )
        bad_probability = ~(
            (probability >= -_MASS_TOLERANCE)
            & (probability <= 1.0 + _MASS_TOLERANCE)
        )
        if np.any(bad_probability):
            index = int(np.argmax(bad_probability))
            raise InvalidParameterError(
                f"tuple probability must be in [0, 1], got {probability[index]}"
            )
        if label_code is not None or label_pool is not None:
            if labels is not None:
                raise InvalidParameterError(
                    "pass either labels or label_code/label_pool, not both"
                )
            if label_code is None or label_pool is None:
                raise InvalidParameterError(
                    "label_code and label_pool must be given together"
                )
            label_code = require_int64_column("label_code", label_code)
            if label_code.size != t.size:
                raise DataError("label_code must have one entry per tuple")
            pool = tuple(str(label) for label in label_pool)
            if not pool:
                pool = ("",)
            if label_code.size and (
                int(label_code.min()) < 0 or int(label_code.max()) >= len(pool)
            ):
                raise DataError(
                    f"label codes must index the {len(pool)}-entry label pool"
                )
        elif labels is None:
            label_code = np.zeros(t.size, dtype=np.int64)
            pool = ("",)
        else:
            if len(labels) != t.size:
                raise DataError("labels must have one entry per tuple")
            mapping: dict[str, int] = {}
            label_code = np.fromiter(
                (mapping.setdefault(str(label), len(mapping)) for label in labels),
                dtype=np.int64,
                count=t.size,
            )
            pool = tuple(mapping) if mapping else ("",)
        self = cls.__new__(cls)
        self._init_columns(name, t, low, high, probability, label_code, pool)
        return self

    @classmethod
    def from_matrix(
        cls, name: str, matrix: ProbabilityMatrix, grid: OmegaGrid
    ) -> "ProbabilisticView":
        """Materialise :meth:`ViewBuilder.build_matrix` output into a view.

        The ``(T, n)`` probability matrix, clipped to ``[0, 1]``, and the
        grid's edges around each mean expand into per-tuple columns, which
        :meth:`from_columns` checks like any other: non-integral times, a
        ``mean`` or ``t`` of another length, and NaN probabilities raise.
        """
        count = len(matrix)
        n = grid.n
        if matrix.probabilities.shape != (count, n):
            raise DataError(
                f"probability matrix of shape {matrix.probabilities.shape} "
                f"does not match {count} times x {n} ranges"
            )
        edges = grid.edges_matrix(matrix.mean)
        return cls.from_columns(
            name,
            np.repeat(matrix.t, n),
            edges[:, :-1].ravel(),
            edges[:, 1:].ravel(),
            np.clip(matrix.probabilities, 0.0, 1.0).ravel(),
            label_code=np.tile(np.arange(n, dtype=np.int64), count),
            label_pool=[f"lambda={int(lam)}" for lam in grid.lambdas],
        )

    # ------------------------------------------------------------------
    # Initialisation (from_columns' second half).
    # ------------------------------------------------------------------
    def _init_columns(
        self,
        name: str,
        t: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        probability: np.ndarray,
        label_code: np.ndarray,
        label_pool: tuple[str, ...],
    ) -> None:
        """Adopt the columns and build the per-time index in O(n).

        Builder and store output arrive sorted by time: the identity is
        the order, the probability column is its own sorted copy (an
        alias, not a gather), and the groups are the runs of equal times,
        found in one comparison pass; when they are all ``k`` long the
        view records ``width = k``, so :meth:`ViewColumns.by_time` can
        reshape.  Unsorted ``t`` (revision shadows, hand-built views)
        takes a stable argsort first.  Either way
        ``times`` / ``starts`` / ``counts`` equal ``np.unique``'s, with its
        int64 dtypes.
        """
        if not name:
            raise InvalidParameterError("view name must be non-empty")
        self.name = str(name)
        self._t = t
        self._low = low
        self._high = high
        self._prob = probability
        self._label_code = label_code
        self._label_pool = label_pool if label_pool else ("",)
        if t.size > 1 and np.any(t[1:] < t[:-1]):
            self._order = np.argsort(t, kind="stable")
            t_sorted = t[self._order]
            self._prob_sorted = probability[self._order]
        else:
            self._order = np.arange(t.size, dtype=np.int64)
            t_sorted = t
            self._prob_sorted = probability
        self._width = 0
        if t.size:
            run_start = np.empty(t.size, dtype=bool)
            run_start[0] = True
            np.not_equal(t_sorted[1:], t_sorted[:-1], out=run_start[1:])
            self._starts = np.flatnonzero(run_start)
            self._times = t_sorted[self._starts]
            self._counts = np.diff(self._starts, append=t.size)
            if t_sorted is t and np.all(self._counts == self._counts[0]):
                self._width = int(self._counts[0])
        else:
            self._times = np.empty(0, dtype=np.int64)
            self._starts = np.empty(0, dtype=np.int64)
            self._counts = np.empty(0, dtype=np.int64)
        self._validate_mass()
        self._columns: ViewColumns | None = None

    def _validate_mass(self) -> None:
        """Vectorised replacement of the per-group mass summation."""
        if not self._times.size:
            return
        masses = np.add.reduceat(self._prob_sorted, self._starts)
        limits = 1.0 + _MASS_TOLERANCE * np.maximum(self._counts, 1)
        bad = masses > limits
        if np.any(bad):
            index = int(np.argmax(bad))
            raise DataError(
                f"probabilities at time {int(self._times[index])} sum to "
                f"{masses[index]:.6f} > 1"
            )

    # ------------------------------------------------------------------
    # Columnar access.
    # ------------------------------------------------------------------
    @property
    def columns(self) -> ViewColumns:
        """The view's tuples as read-only parallel arrays (batch API)."""
        if self._columns is None:
            self._columns = ViewColumns(
                t=readonly_view(self._t),
                low=readonly_view(self._low),
                high=readonly_view(self._high),
                probability=readonly_view(self._prob),
                label_code=readonly_view(self._label_code),
                labels=self._label_pool,
                order=readonly_view(self._order),
                times=readonly_view(self._times),
                starts=readonly_view(self._starts),
                counts=readonly_view(self._counts),
                width=self._width,
            )
        return self._columns

    def take(self, indices: np.ndarray) -> list[ProbTuple]:
        """The tuples at the given indices, as fresh :class:`ProbTuple`
        records built from one gather of the columns.

        Vectorised queries use this to build only the tuples they return;
        item access, slices and iteration take the same route.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return [
            ProbTuple(*row)
            for row in tuple_rows(
                self._t[indices],
                self._low[indices],
                self._high[indices],
                self._prob[indices],
                self._label_code[indices],
                self._label_pool,
            )
        ]

    def _group_position(self, t: int) -> int:
        position = int(np.searchsorted(self._times, t))
        if position >= self._times.size or self._times[position] != t:
            lo = int(self._times[0]) if self._times.size else "-"
            hi = int(self._times[-1]) if self._times.size else "-"
            raise QueryError(
                f"view {self.name!r} has no tuples at time {t}; "
                f"times span [{lo}, {hi}]"
            )
        return position

    def _group_indices(self, position: int) -> np.ndarray:
        start = int(self._starts[position])
        return self._order[start : start + int(self._counts[position])]

    # ------------------------------------------------------------------
    # Container protocol.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._t.size

    def __iter__(self) -> Iterator[ProbTuple]:
        return iter(self[:])

    def __getitem__(self, index: int | slice) -> ProbTuple | list[ProbTuple]:
        if isinstance(index, slice):
            return self.take(np.arange(*index.indices(len(self))))
        position = index + len(self) if index < 0 else index
        if not 0 <= position < len(self):
            raise IndexError(index)
        return self.take([position])[0]

    @property
    def times(self) -> list[int]:
        """Distinct inference times, ascending."""
        return self._times.tolist()

    def tuples_at(self, t: int) -> list[ProbTuple]:
        """All tuples asserted at time ``t`` (the alternatives)."""
        position = self._group_position(t)
        return self.take(self._group_indices(position))

    def probability_at(self, t: int, value: float) -> float:
        """Probability that the true value at ``t`` lies in the range covering ``value``.

        Ranges are treated as half-open ``[low, high)`` — adjacent grid
        ranges share an edge, so closed intervals would double-count a
        value landing exactly on it — except that the uppermost edge of the
        time's range set is closed (the last range owns its upper bound).
        Zero when the value falls outside every range.
        """
        position = self._group_position(t)
        indices = self._group_indices(position)
        low = self._low[indices]
        high = self._high[indices]
        inside = (low <= value) & (value < high)
        top = np.max(high)
        if value == top:
            inside |= (high == top) & (low <= value)
        return float(np.sum(self._prob[indices], where=inside))

    def total_mass_at(self, t: int) -> float:
        """Probability mass the view captures at ``t`` (tail loss = 1 - mass)."""
        position = self._group_position(t)
        start = int(self._starts[position])
        stop = start + int(self._counts[position])
        return float(np.sum(self._prob_sorted[start:stop]))

    def __repr__(self) -> str:
        return (
            f"ProbabilisticView(name={self.name!r}, tuples={len(self)}, "
            f"times={len(self._times)})"
        )
