"""Tests for the SQL-like view query language."""

from __future__ import annotations

import re

import pytest

from repro.exceptions import ParseError
from repro.view.sql import (
    MAX_WORLD_CELLS,
    CatalogQuery,
    SelectItem,
    ViewQuery,
    parse_statement,
    render_statement,
)

PAPER_QUERY = (
    "CREATE VIEW prob_view AS DENSITY r OVER t "
    "OMEGA delta=2, n=2 FROM raw_values WHERE t >= 1 AND t <= 3"
)


class TestPaperExample:
    def test_fig7_query_parses(self):
        query = parse_statement(PAPER_QUERY)
        assert query.view_name == "prob_view"
        assert query.value_column == "r"
        assert query.time_column == "t"
        assert query.delta == 2.0
        assert query.n == 2
        assert query.table_name == "raw_values"
        assert (query.time_lo, query.time_hi) == (1.0, 3.0)

    def test_defaults(self):
        query = parse_statement(PAPER_QUERY)
        assert query.metric_name == "arma_garch"
        assert query.metric_params == {}
        assert query.window is None
        assert not query.uses_cache


class TestClauses:
    def test_metric_with_parameters(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.5, n=10 "
            "METRIC cgarch (p=2, kappa=2.5, oc_max=7) FROM raw"
        )
        assert query.metric_name == "cgarch"
        assert query.metric_params == {"p": 2, "kappa": 2.5, "oc_max": 7}

    def test_metric_without_parameters(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "METRIC variable_threshold FROM raw"
        )
        assert query.metric_name == "variable_threshold"

    def test_window_clause(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "WINDOW 120 FROM raw"
        )
        assert query.window == 120

    def test_cache_distance(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "CACHE (distance=0.01) FROM raw"
        )
        assert query.cache_distance == 0.01
        assert query.uses_cache

    def test_cache_memory(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "CACHE (memory=64) FROM raw"
        )
        assert query.cache_memory == 64

    def test_cache_both(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "CACHE (distance=0.05, memory=32) FROM raw"
        )
        assert query.cache_distance == 0.05
        assert query.cache_memory == 32

    def test_omega_order_free(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA n=4, delta=0.25 FROM raw"
        )
        assert (query.delta, query.n) == (0.25, 4)

    def test_between_where(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "FROM raw WHERE t BETWEEN 5 AND 10"
        )
        assert (query.time_lo, query.time_hi) == (5.0, 10.0)

    def test_reversed_where_order(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "FROM raw WHERE t <= 10 AND t >= 5"
        )
        assert (query.time_lo, query.time_hi) == (5.0, 10.0)

    def test_single_bound_where(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "FROM raw WHERE t >= 100"
        )
        assert query.time_lo == 100.0
        assert query.time_hi is None

    def test_keywords_case_insensitive(self):
        query = parse_statement(
            "create view V as density R over T omega delta=1, n=2 from RAW"
        )
        assert query.view_name == "V"
        assert query.table_name == "RAW"

    def test_boolean_metric_parameter(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "METRIC arma_garch (warm_start=false) FROM raw"
        )
        assert query.metric_params == {"warm_start": False}

    def test_persist_into_clause(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM raw "
            "WHERE t >= 1 AND t <= 9 PERSIST INTO '/data/catalogs/main'"
        )
        assert query.persist_path == "/data/catalogs/main"
        assert (query.time_lo, query.time_hi) == (1.0, 9.0)

    def test_persist_defaults_to_none(self):
        query = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM raw"
        )
        assert query.persist_path is None


class TestErrors:
    @pytest.mark.parametrize(
        "bad_query, pattern",
        [
            ("", "empty"),
            ("DROP VIEW v", "CREATE"),
            ("CREATE TABLE v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM x",
             "VIEW"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1 FROM x",
             "delta and n"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2.5 FROM x",
             "integer"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM x "
             "WHERE other >= 1", "time column"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM x "
             "WHERE t >= 1 AND t >= 2", "duplicate"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
             "CACHE (budget=1) FROM x", "CACHE"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM x "
             "trailing garbage", "trailing"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA size=1, n=2 FROM x",
             "OMEGA"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM x "
             "PERSIST INTO catalog", "quoted string"),
            ("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM x "
             "PERSIST '/tmp/c'", "INTO"),
        ],
    )
    def test_malformed_queries_raise_parse_error(self, bad_query, pattern):
        with pytest.raises(ParseError, match=pattern):
            parse_statement(bad_query)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            parse_statement("CREATE VIEW v @ DENSITY")
        assert info.value.position >= 0

    def test_missing_from(self):
        with pytest.raises(ParseError, match="FROM"):
            parse_statement(
                "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2"
            )


class TestSelectStatement:
    def test_full_statement(self):
        query = parse_statement(
            "SELECT time_above(21.0, 5) FROM CATALOG '/data/cat' "
            "SERIES 'sensor-*' WHERE t BETWEEN 100 AND 500 TOP 5"
        )
        assert query.items[0].name == "time_above"
        assert query.items[0].arguments == (21.0, 5.0)
        assert query.catalog_path == "/data/cat"
        assert query.series_pattern == "sensor-*"
        assert (query.time_lo, query.time_hi) == (100.0, 500.0)
        assert query.top_k == 5

    def test_minimal_statement_defaults(self):
        query = parse_statement(
            "SELECT expected_value FROM CATALOG '/data/cat'"
        )
        assert query.items[0].name == "expected_value"
        assert query.items[0].arguments == ()
        assert query.series_pattern == "*"
        assert query.time_lo is None and query.time_hi is None
        assert query.top_k is None

    def test_comparison_where(self):
        query = parse_statement(
            "SELECT exceedance(2.5) FROM CATALOG '/c' "
            "WHERE t >= 10 AND t <= 90"
        )
        assert (query.time_lo, query.time_hi) == (10.0, 90.0)

    def test_strict_comparison_rejected(self):
        # Bounds apply inclusively downstream; a silently accepted '<'
        # would include the boundary row.
        with pytest.raises(ParseError, match="inclusive"):
            parse_statement(
                "SELECT exceedance(2.5) FROM CATALOG '/c' WHERE t < 90"
            )
        with pytest.raises(ParseError, match="inclusive"):
            parse_statement(
                "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
                "FROM x WHERE t > 1"
            )

    def test_keywords_case_insensitive(self):
        query = parse_statement(
            "select Threshold(0.5) from catalog '/c' series 'a?' top 1"
        )
        assert query.items[0].name == "threshold"
        assert query.series_pattern == "a?"
        assert query.top_k == 1

    def test_parse_statement_dispatches_both_kinds(self):
        select = parse_statement("SELECT expected_value FROM CATALOG '/c'")
        assert isinstance(select, CatalogQuery)
        create = parse_statement(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM x"
        )
        assert isinstance(create, ViewQuery)

    @pytest.mark.parametrize(
        "bad_query, pattern",
        [
            ("SELECT FROM CATALOG '/c'", "aggregate name"),
            ("SELECT exceedance(21.0) FROM '/c'", "CATALOG"),
            ("SELECT exceedance(21.0) FROM CATALOG", "quoted string"),
            ("SELECT exceedance(21.0) FROM CATALOG '/c' SERIES sensor",
             "quoted string"),
            ("SELECT exceedance(21.0,) FROM CATALOG '/c'", "argument"),
            ("SELECT exceedance(tau=1) FROM CATALOG '/c'", "argument"),
            ("SELECT exceedance(1) CATALOG '/c'", "FROM"),
            ("SELECT exceedance(1) FROM CATALOG '/c' TOP 0", ">= 1"),
            ("SELECT exceedance(1) FROM CATALOG '/c' TOP 2 extra",
             "trailing"),
            ("SELECT exceedance(1) FROM CATALOG '/c' WHERE x >= 1",
             "time column"),
            # SIMULATE has one spelling: not also a select-list call.
            ("SELECT simulate(4, 7) FROM CATALOG '/c'", "SIMULATE n"),
        ],
    )
    def test_malformed_select_raises_parse_error(self, bad_query, pattern):
        with pytest.raises(ParseError, match=pattern):
            parse_statement(bad_query)

    def test_select_keywords_stay_valid_create_identifiers(self):
        # select/catalog/series/top are positional keywords of the SELECT
        # grammar only — CREATE VIEW statements may keep using them as
        # table or column names.
        query = parse_statement(
            "CREATE VIEW top AS DENSITY catalog OVER t "
            "OMEGA delta=1, n=2 FROM series"
        )
        assert query.view_name == "top"
        assert query.value_column == "catalog"
        assert query.table_name == "series"


class TestMultiAggregateSelect:
    def test_select_list_parses_in_order(self):
        query = parse_statement(
            "SELECT threshold(0.4), expected_value, exceedance(21) "
            "FROM CATALOG '/c'"
        )
        assert [item.name for item in query.items] == [
            "threshold", "expected_value", "exceedance",
        ]
        assert query.items[0].arguments == (0.4,)
        assert query.items[1].arguments == ()

    def test_probability_of_item(self):
        query = parse_statement(
            "SELECT PROBABILITY OF v BETWEEN 20 AND 22 FROM CATALOG '/c'"
        )
        item = query.items[0]
        assert item == SelectItem(
            name="probability_of", arguments=(20.0, 22.0), column="v"
        )

    def test_probability_of_inverted_range_rejected(self):
        with pytest.raises(ParseError, match="inverted"):
            parse_statement(
                "SELECT PROBABILITY OF v BETWEEN 22 AND 20 "
                "FROM CATALOG '/c'"
            )

    def test_approx_rejects_select_lists(self):
        with pytest.raises(ParseError, match="APPROX"):
            parse_statement(
                "SELECT APPROX exceedance(21), expected_value "
                "FROM CATALOG '/c'"
            )

    def test_inverted_where_bounds_rejected(self):
        with pytest.raises(ParseError, match="empty time range"):
            parse_statement(
                "SELECT expected_value FROM CATALOG '/c' "
                "WHERE t BETWEEN 90 AND 10"
            )
        with pytest.raises(ParseError, match="empty time range"):
            parse_statement(
                "SELECT expected_value FROM CATALOG '/c' "
                "WHERE t >= 90 AND t <= 10"
            )

    def test_inverted_bounds_are_reported_at_full_precision(self):
        # Six-digit rounding would report both bounds as the same number.
        with pytest.raises(ParseError, match=r"\[1234568\.0, 1234567\.0\]"):
            parse_statement(
                "SELECT expected_value FROM CATALOG '/c' "
                "WHERE t BETWEEN 1234568 AND 1234567"
            )
        with pytest.raises(ParseError, match=r"\[20\.1234571, 20\.1234569\]"):
            parse_statement(
                "SELECT PROBABILITY OF v BETWEEN 20.1234571 AND 20.1234569 "
                "FROM CATALOG '/c'"
            )


class TestSimulateStatement:
    def test_full_statement(self):
        query = parse_statement(
            "SIMULATE 16 SEED 7 FROM CATALOG '/c' SERIES 'room*' "
            "WHERE t BETWEEN 10 AND 90"
        )
        assert query == CatalogQuery(
            items=(SelectItem(name="simulate", arguments=(16.0, 7.0)),),
            catalog_path="/c",
            series_pattern="room*",
            time_lo=10.0,
            time_hi=90.0,
        )

    def test_seed_optional(self):
        query = parse_statement("SIMULATE 4 FROM CATALOG '/c'")
        assert query.items == (
            SelectItem(name="simulate", arguments=(4.0,)),
        )

    @pytest.mark.parametrize(
        "bad, pattern",
        [
            ("SIMULATE 0 FROM CATALOG '/c'", ">= 1"),
            ("SIMULATE FROM CATALOG '/c'", "number"),
            ("SIMULATE 2 SEED -1 FROM CATALOG '/c'", ">= 0"),
            ("SIMULATE 2 FROM '/c'", "CATALOG"),
            ("SIMULATE 2 FROM CATALOG '/c' junk", "trailing"),
        ],
    )
    def test_malformed_simulate_raises(self, bad, pattern):
        with pytest.raises(ParseError, match=pattern):
            parse_statement(bad)

    def test_seed_two_to_the_53_is_exact(self):
        query = parse_statement("SIMULATE 2 SEED 9007199254740992 FROM CATALOG '/c'")
        assert query.items[0].arguments == (2.0, float(2**53))
        assert render_statement(query) == (
            "SIMULATE 2 SEED 9007199254740992 FROM CATALOG '/c'"
        )

    @pytest.mark.parametrize(
        "seed", ["9007199254740993", "9007199254740992.5", "1e300"]
    )
    def test_seed_above_two_to_the_53_raises(self, seed):
        # 2**53 + 1 reads as the float 2**53: accepting it would run a
        # different statement's worlds.
        with pytest.raises(ParseError, match=r"<= 2\*\*53 = 9007199254740992"):
            parse_statement(f"SIMULATE 2 SEED {seed} FROM CATALOG '/c'")

    def test_world_count_at_the_cell_budget_parses(self):
        query = parse_statement(f"SIMULATE {MAX_WORLD_CELLS} FROM CATALOG '/c'")
        assert MAX_WORLD_CELLS == 2**20
        assert query.items[0].arguments == (float(MAX_WORLD_CELLS),)

    @pytest.mark.parametrize(
        "count", [str(MAX_WORLD_CELLS + 1), "99999999999999999999999"]
    )
    def test_world_count_above_the_cell_budget_raises(self, count):
        # Refused by name before anything allocates: 10**23 once failed
        # with numpy's bare "Maximum allowed dimension exceeded".
        with pytest.raises(
            ParseError, match=rf"<= MAX_WORLD_CELLS = 1048576 .*got {count}"
        ):
            parse_statement(f"SIMULATE {count} FROM CATALOG '/c'")


class TestStatementRoundTrips:
    """parse → render → parse is the identity on query objects."""

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT exceedance(21) FROM CATALOG '/c'",
            "SELECT APPROX threshold(0.4) FROM CATALOG '/c' TOP 3",
            "SELECT threshold(0.4), expected_value, time_above(21, 5) "
            "FROM CATALOG '/c' SERIES 'room*' "
            "WHERE t BETWEEN 10 AND 90 TOP 2",
            "SELECT PROBABILITY OF v BETWEEN 20 AND 22, expected_value "
            "FROM CATALOG '/c'",
            "SIMULATE 8 FROM CATALOG '/c'",
            "SIMULATE 16 SEED 42 FROM CATALOG '/c' SERIES 's*' "
            "WHERE t >= 10",
            "SELECT expected_value FROM CATALOG '/c' WHERE t <= 90",
        ],
    )
    def test_round_trip(self, statement):
        parsed = parse_statement(statement)
        rendered = render_statement(parsed)
        assert parse_statement(rendered) == parsed


class TestNonFiniteNumbers:
    """A literal that overflows to ``inf`` is a parse error, not a crash."""

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT time_above(20.3, 1e999) FROM CATALOG '/c'",
            "SELECT windowed_expected_value(1e999) FROM CATALOG '/c'",
            "SELECT exceedance(-1e999) FROM CATALOG '/c'",
            "SELECT PROBABILITY OF v BETWEEN 20 AND 1e999 FROM CATALOG '/c'",
            "SELECT expected_value FROM CATALOG '/c' TOP 1e999",
            "SELECT expected_value FROM CATALOG '/c' WHERE t <= 1e999",
            "SELECT expected_value FROM CATALOG '/c' AS OF 1e999",
            "SIMULATE 1e999 FROM CATALOG '/c'",
            "SIMULATE 4 SEED 1e999 FROM CATALOG '/c'",
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1e999, n=2 "
            "FROM raw",
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "WINDOW 1e999 FROM raw",
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "METRIC cgarch (kappa=1e999) FROM raw",
        ],
    )
    def test_overflowing_literal_raises_parse_error(self, statement):
        with pytest.raises(ParseError, match="finite") as excinfo:
            parse_statement(statement)
        # The position is the number token's, sign included.
        assert excinfo.value.position == re.search(r"-?1e999", statement).start()

    def test_connect_route_raises_parse_error(self, catalog_root):
        import repro

        with repro.connect(catalog_root) as conn:
            with pytest.raises(ParseError, match="finite"):
                conn.execute(
                    f"SELECT time_above(20.3, 1e999) "
                    f"FROM CATALOG '{catalog_root}'"
                )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name, arguments",
        [
            ("threshold", (None,)),
            ("exceedance", (None,)),
            ("time_above", (20.0, None)),
            ("time_above", (None, 3)),
            ("probability_of", (None, 1.0)),
            ("windowed_expected_value", (None,)),
            ("simulate", (None, 0)),
            ("simulate", (4, None)),
        ],
    )
    def test_kernel_bind_rejects_non_finite(self, name, arguments, value):
        from repro.db.aggregates import KERNELS
        from repro.exceptions import InvalidParameterError

        bound = tuple(value if a is None else a for a in arguments)
        with pytest.raises(InvalidParameterError, match="finite"):
            KERNELS[name].bind(bound)
