"""Tests for tables, probabilistic views, queries and the engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.aggregates import AGGREGATES
from repro.db.engine import Database
from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.db.queries import (
    expected_value_query,
    most_probable_range_query,
    range_probability_query,
    threshold_query,
)
from repro.db.table import Table
from repro.exceptions import DataError, InvalidParameterError, QueryError
from repro.view.builder import ProbabilityMatrix
from repro.view.omega import OmegaGrid
from view_helpers import view_from_rows


def _sample_view() -> ProbabilisticView:
    """Two times x three ranges, like a tiny prob_view from Fig. 1."""
    tuples = [
        ProbTuple(t=1, low=0.0, high=1.0, probability=0.5, label="room 1"),
        ProbTuple(t=1, low=1.0, high=2.0, probability=0.3, label="room 2"),
        ProbTuple(t=1, low=2.0, high=3.0, probability=0.2, label="room 3"),
        ProbTuple(t=2, low=0.0, high=1.0, probability=0.1, label="room 1"),
        ProbTuple(t=2, low=1.0, high=2.0, probability=0.6, label="room 2"),
        ProbTuple(t=2, low=2.0, high=3.0, probability=0.3, label="room 3"),
    ]
    return view_from_rows("prob_view", tuples)


class TestTable:
    def test_insert_mapping_and_sequence(self):
        table = Table("raw_values", ["t", "r"])
        table.insert({"t": 1.0, "r": 4.2})
        table.insert((2.0, 5.9))
        assert len(table) == 2
        np.testing.assert_array_equal(table.column("r"), [4.2, 5.9])

    def test_insert_missing_column_rejected(self):
        table = Table("x", ["a", "b"])
        with pytest.raises(DataError, match="missing"):
            table.insert({"a": 1.0})

    def test_insert_wrong_arity_rejected(self):
        table = Table("x", ["a", "b"])
        with pytest.raises(DataError):
            table.insert((1.0,))

    def test_insert_nan_rejected(self):
        table = Table("x", ["a"])
        with pytest.raises(DataError):
            table.insert({"a": float("nan")})

    def test_unknown_column_rejected(self):
        table = Table("x", ["a"])
        with pytest.raises(QueryError, match="no column"):
            table.column("b")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(InvalidParameterError):
            Table("x", ["a", "a"])

    def test_to_series_sorts_by_time(self):
        table = Table("x", ["t", "r"], data={
            "t": np.array([3.0, 1.0, 2.0]),
            "r": np.array([30.0, 10.0, 20.0]),
        })
        series = table.to_series("r", "t")
        np.testing.assert_array_equal(series.values, [10.0, 20.0, 30.0])

    def test_initial_data_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Table("x", ["a", "b"], data={"a": np.zeros(2), "b": np.zeros(3)})


class TestProbabilisticView:
    def test_times_and_tuples_at(self):
        view = _sample_view()
        assert view.times == [1, 2]
        assert len(view.tuples_at(1)) == 3

    def test_missing_time_rejected(self):
        with pytest.raises(QueryError):
            _sample_view().tuples_at(99)

    def test_probability_at_value(self):
        view = _sample_view()
        assert view.probability_at(1, 0.5) == pytest.approx(0.5)
        assert view.probability_at(2, 1.5) == pytest.approx(0.6)
        assert view.probability_at(1, 10.0) == 0.0

    def test_total_mass(self):
        assert _sample_view().total_mass_at(1) == pytest.approx(1.0)

    def test_mass_above_one_rejected(self):
        tuples = [
            ProbTuple(t=1, low=0.0, high=1.0, probability=0.8),
            ProbTuple(t=1, low=1.0, high=2.0, probability=0.8),
        ]
        with pytest.raises(DataError, match="sum"):
            view_from_rows("bad", tuples)

    def test_tuple_validation(self):
        with pytest.raises(InvalidParameterError, match="range"):
            view_from_rows("bad", [(0, 1.0, 0.0, 0.5)])
        with pytest.raises(InvalidParameterError, match="probability"):
            view_from_rows("bad", [(0, 0.0, 1.0, 1.5)])

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["low", "high"])
    def test_non_finite_range_bounds_refused(self, bound, side):
        # NaN passes a bare ``high <= low`` test, and +-inf ranges make
        # every midpoint-based answer non-finite.
        low = np.array([0.0, 0.0, 1.0, 1.0])
        high = np.array([1.0, 2.0, 2.0, 3.0])
        {"low": low, "high": high}[side][1] = bound
        with pytest.raises(InvalidParameterError, match="finite"):
            ProbabilisticView.from_columns(
                "s", [0, 0, 1, 1], low, high, [0.5] * 4
            )


class TestFromMatrix:
    """``from_matrix`` expands the grid, then checks as ``from_columns`` does."""

    @staticmethod
    def _matrix(t, mean):
        t = np.asarray(t)
        return ProbabilityMatrix(
            t=t, mean=np.asarray(mean, dtype=float),
            volatility=np.ones(t.size), probabilities=np.full((t.size, 2), 0.4),
        )

    def test_expands_the_grid(self):
        view = ProbabilisticView.from_matrix(
            "m", self._matrix([3, 4], [10.0, 20.0]), OmegaGrid(1.0, 2)
        )
        assert view[:2] == [
            ProbTuple(3, 9.0, 10.0, 0.4, "lambda=-1"),
            ProbTuple(3, 10.0, 11.0, 0.4, "lambda=0"),
        ]
        assert view.times == [3, 4]

    def test_non_integral_times_are_refused(self):
        matrix = self._matrix(np.array([0.5, 1.7]), [10.0, 20.0])
        with pytest.raises(DataError, match="'t'"):
            ProbabilisticView.from_matrix("m", matrix, OmegaGrid(1.0, 2))

    def test_mean_of_another_length_is_refused(self):
        matrix = self._matrix([0, 1], [10.0, 20.0, 30.0])
        with pytest.raises(DataError, match="equal length"):
            ProbabilisticView.from_matrix("m", matrix, OmegaGrid(1.0, 2))


class TestFromColumnsCast:
    """``from_columns`` never truncates a non-integer ``t`` or ``label_code``."""

    @staticmethod
    def _build(t, label_code=None):
        rows = len(t)
        return ProbabilisticView.from_columns(
            "cast",
            t,
            np.zeros(rows),
            np.ones(rows),
            np.full(rows, 0.5),
            label_code=label_code,
            label_pool=None if label_code is None else ("a", "b"),
        )

    @pytest.mark.parametrize(
        "t",
        [
            np.array([3.5, 4.9]),
            np.array([2.0**63 + 5.0]),
            np.array([-(2.0**63) * 2]),
            np.array([1.0, np.nan]),
            np.array([np.inf]),
            np.array([2.0, 3.0], dtype=np.float32) + 0.25,
        ],
    )
    def test_non_integral_times_are_refused(self, t):
        with pytest.raises(DataError, match="'t'"):
            self._build(t)

    def test_non_integral_label_codes_are_refused(self):
        with pytest.raises(DataError, match="'label_code'"):
            self._build(np.array([1, 2]), label_code=np.array([0.9, 0.2]))

    def test_whole_floats_cast_exactly(self):
        view = self._build(
            np.array([3.0, -(2.0**63)]), label_code=np.array([1.0, 0.0])
        )
        assert view.columns.t.dtype == np.int64
        assert view.columns.t.tolist() == [3, -(2**63)]
        assert [item.label for item in view] == ["b", "a"]

    def test_integer_columns_pass_through(self):
        t = np.array([5, 6], dtype=np.int64)
        view = self._build(t, label_code=np.array([0, 1], dtype=np.int32))
        assert view.columns.t.tolist() == [5, 6]
        assert view.columns.label_code.dtype == np.int64


class TestQueries:
    def test_threshold_query(self):
        hits = threshold_query(_sample_view(), 0.5)
        assert {(tup.t, tup.label) for tup in hits} == {
            (1, "room 1"), (2, "room 2"),
        }

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            threshold_query(_sample_view(), 1.5)

    def test_most_probable_range(self):
        modal = most_probable_range_query(_sample_view())
        assert modal[1].label == "room 1"
        assert modal[2].label == "room 2"

    def test_range_probability_full_overlap(self):
        out = range_probability_query(_sample_view(), 0.0, 3.0)
        assert out[1] == pytest.approx(1.0)

    def test_range_probability_partial_overlap(self):
        out = range_probability_query(_sample_view(), 0.5, 1.0)
        # Half of room 1's range at t=1: 0.5 * 0.5.
        assert out[1] == pytest.approx(0.25)

    def test_range_probability_validation(self):
        with pytest.raises(InvalidParameterError):
            range_probability_query(_sample_view(), 2.0, 1.0)

    @pytest.mark.parametrize(
        "low, high", [(np.nan, 2.0), (0.5, np.nan), (-np.inf, 2.0), (0.5, np.inf)]
    )
    def test_range_probability_non_finite_bound_rejected(self, low, high):
        # Bound through the probability_of spec, as SELECT binds it.
        with pytest.raises(InvalidParameterError, match="must be finite"):
            range_probability_query(_sample_view(), low, high)

    def test_range_probability_empty_range_is_zero(self):
        # [a, a) selects nothing, as PROBABILITY OF ... BETWEEN a AND a.
        assert range_probability_query(_sample_view(), 1.0, 1.0) == {1: 0.0, 2: 0.0}

    def test_expected_value(self):
        out = expected_value_query(_sample_view())
        expected_t1 = 0.5 * 0.5 + 0.3 * 1.5 + 0.2 * 2.5
        assert out[1] == pytest.approx(expected_t1)


class TestEngine:
    @pytest.fixture
    def db(self, campus_series):
        database = Database()
        table = Table("raw_values", ["t", "r"])
        table.insert_many(
            zip(campus_series.timestamps.tolist(), campus_series.values.tolist())
        )
        database.register_table(table)
        return database

    def test_end_to_end_view_creation(self, db):
        view = db.execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 "
            "METRIC variable_threshold WINDOW 40 FROM raw_values"
        ).view
        assert view.name == "pv"
        assert len(view) > 0
        assert db.view("pv") is view
        assert all(0.0 <= tup.probability <= 1.0 for tup in view)

    def test_where_clause_limits_rows(self, db, campus_series):
        hi = float(campus_series.timestamps[200])
        view = db.execute(
            f"CREATE VIEW pv2 AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
            f"METRIC variable_threshold WINDOW 50 FROM raw_values "
            f"WHERE t >= 0 AND t <= {hi}"
        ).view
        # 201 rows matched, window 50 -> 151 inference times x 4 ranges.
        assert len(view) == 151 * 4

    def test_cache_clause_used(self, db):
        view = db.execute(
            "CREATE VIEW pv3 AS DENSITY r OVER t OMEGA delta=0.5, n=6 "
            "METRIC variable_threshold WINDOW 40 CACHE (distance=0.01) "
            "FROM raw_values"
        ).view
        assert len(view) > 0

    def test_unknown_table_rejected(self, db):
        with pytest.raises(QueryError, match="unknown table"):
            db.execute(
                "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
                "FROM no_such_table"
            )

    def test_unknown_view_rejected(self, db):
        with pytest.raises(QueryError, match="unknown view"):
            db.view("nope")

    def test_too_narrow_where_rejected(self, db):
        with pytest.raises(QueryError, match="not enough"):
            db.execute(
                "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
                "WINDOW 100 FROM raw_values WHERE t >= 0 AND t <= 10"
            )

    def test_list_catalog(self, db):
        assert db.list_tables() == ["raw_values"]
        db.execute(
            "CREATE VIEW zz AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "METRIC variable_threshold WINDOW 30 FROM raw_values"
        )
        assert "zz" in db.list_views()


def test_expected_value_score_sums_left_to_right():
    """The ``TOP k`` mean is a plain left-to-right sum on every Python.

    ``[0.1] * 10`` sums to ``0.9999999999999999`` left to right; the
    compensated builtin ``sum`` of Python >= 3.12 gives ``1.0``, which
    would move the score's last bit and the canonical reply bytes.
    """
    score = AGGREGATES["expected_value"].score
    assert score(np.full(10, 0.1)) == 0.9999999999999999 / 10
    assert score(np.empty(0)) == 0.0
