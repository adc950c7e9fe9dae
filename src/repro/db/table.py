"""Columnar in-memory tables for raw sensor values.

The paper's framework ingests relations like ``raw_values(t, r)`` (Fig. 2)
or ``raw_values(time, x, y)`` (Fig. 1).  :class:`Table` is a minimal
columnar store: named float columns of equal length with append and
conversion to :class:`~repro.timeseries.series.TimeSeries`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import DataError, InvalidParameterError, QueryError
from repro.timeseries.series import TimeSeries

__all__ = ["Table"]


class Table:
    """A named relation with float columns of equal length.

    >>> table = Table("raw_values", ["t", "r"])
    >>> table.insert({"t": 1.0, "r": 4.2})
    >>> table.insert_many([(2.0, 5.9), (3.0, 7.1)])
    >>> len(table)
    3
    >>> table.column("r").tolist()
    [4.2, 5.9, 7.1]
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        data: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        if not name:
            raise InvalidParameterError("table name must be non-empty")
        if not columns:
            raise InvalidParameterError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise InvalidParameterError(f"duplicate column names in {list(columns)}")
        self.name = str(name)
        self.columns = tuple(str(c) for c in columns)
        self._data: dict[str, list[float]] = {c: [] for c in self.columns}
        if data is not None:
            lengths = set()
            for column in self.columns:
                if column not in data:
                    raise DataError(f"initial data is missing column {column!r}")
                values = np.asarray(data[column], dtype=float)
                self._data[column] = values.tolist()
                lengths.add(values.size)
            if len(lengths) > 1:
                raise DataError(f"initial columns have unequal lengths: {lengths}")

    # ------------------------------------------------------------------
    # Mutation.
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, float] | Sequence[float]) -> None:
        """Append one row, given as a mapping or a positional sequence."""
        if isinstance(row, Mapping):
            missing = [c for c in self.columns if c not in row]
            if missing:
                raise DataError(f"row is missing columns {missing}")
            values = [float(row[c]) for c in self.columns]
        else:
            if len(row) != len(self.columns):
                raise DataError(
                    f"row has {len(row)} values for {len(self.columns)} columns"
                )
            values = [float(v) for v in row]
        if not all(np.isfinite(values)):
            raise DataError(f"row contains non-finite values: {values}")
        for column, value in zip(self.columns, values):
            self._data[column].append(value)

    def insert_many(self, rows: Iterable[Mapping[str, float] | Sequence[float]]) -> None:
        """Append many rows; atomic per row, not per batch."""
        for row in rows:
            self.insert(row)

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data[self.columns[0]])

    def column(self, name: str) -> np.ndarray:
        """Return a copy of one column as a float array."""
        if name not in self._data:
            raise QueryError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns are {list(self.columns)}"
            )
        return np.asarray(self._data[name], dtype=float)

    # ------------------------------------------------------------------
    # Conversion.
    # ------------------------------------------------------------------
    def to_series(self, value_column: str, time_column: str) -> TimeSeries:
        """View ``(time_column, value_column)`` as a :class:`TimeSeries`.

        Rows are sorted by time first; duplicate timestamps are rejected by
        the series constructor.
        """
        times = self.column(time_column)
        values = self.column(value_column)
        if times.size == 0:
            raise DataError(f"table {self.name!r} is empty")
        order = np.argsort(times, kind="stable")
        return TimeSeries(values[order], times[order],
                          name=f"{self.name}.{value_column}")

    def __repr__(self) -> str:
        return f"Table(name={self.name!r}, columns={list(self.columns)}, rows={len(self)})"
