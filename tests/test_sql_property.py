"""Property-based tests for the SQL layer: render -> parse round trips.

Rather than fuzzing raw strings (almost all of which are trivially
rejected), we generate random *valid* queries as structured values, render
them to SQL text, parse that text, and require the parsed query to match
the source structure exactly.  This exercises every clause combination the
grammar supports.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParseError
from repro.view.sql import (
    CatalogQuery,
    SelectItem,
    parse_statement,
    render_statement,
)

_IDENT = st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.lower() not in {
        "create", "view", "as", "density", "over", "omega", "metric",
        "window", "cache", "from", "where", "and", "between", "true", "false",
    }
)

_METRIC_PARAM_VALUE = st.one_of(
    st.integers(min_value=0, max_value=99),
    st.floats(min_value=0.01, max_value=99.0, allow_nan=False,
              allow_infinity=False).map(lambda f: round(f, 4)),
    st.booleans(),
)


@st.composite
def _query_structures(draw):
    view_name = draw(_IDENT)
    value_column = draw(_IDENT)
    time_column = draw(_IDENT.filter(lambda s: s != value_column))
    table_name = draw(_IDENT)
    delta = round(draw(st.floats(min_value=0.01, max_value=100.0)), 4)
    n = draw(st.integers(min_value=1, max_value=200)) * 2
    metric = draw(st.sampled_from([None, "arma_garch", "vt", "cgarch", "ewma"]))
    params = {}
    if metric is not None and draw(st.booleans()):
        keys = draw(st.lists(_IDENT, min_size=1, max_size=3, unique=True))
        for key in keys:
            params[key] = draw(_METRIC_PARAM_VALUE)
    window = draw(st.one_of(st.none(), st.integers(min_value=4, max_value=500)))
    cache = draw(st.sampled_from(["none", "distance", "memory", "both"]))
    where = draw(st.sampled_from(["none", "range", "between", "lower", "upper"]))
    lo = round(draw(st.floats(min_value=0.0, max_value=1e5)), 3)
    hi = round(lo + draw(st.floats(min_value=0.001, max_value=1e5)), 3)
    return {
        "view_name": view_name, "value_column": value_column,
        "time_column": time_column, "table_name": table_name,
        "delta": delta, "n": n, "metric": metric, "params": params,
        "window": window, "cache": cache, "where": where, "lo": lo, "hi": hi,
    }


def _render(q: dict) -> str:
    parts = [
        f"CREATE VIEW {q['view_name']} AS DENSITY {q['value_column']} "
        f"OVER {q['time_column']} OMEGA delta={q['delta']}, n={q['n']}"
    ]
    if q["metric"] is not None:
        clause = f"METRIC {q['metric']}"
        if q["params"]:
            rendered = ", ".join(
                f"{k}={str(v).lower() if isinstance(v, bool) else v}"
                for k, v in q["params"].items()
            )
            clause += f" ({rendered})"
        parts.append(clause)
    if q["window"] is not None:
        parts.append(f"WINDOW {q['window']}")
    if q["cache"] == "distance":
        parts.append("CACHE (distance=0.01)")
    elif q["cache"] == "memory":
        parts.append("CACHE (memory=32)")
    elif q["cache"] == "both":
        parts.append("CACHE (distance=0.05, memory=64)")
    parts.append(f"FROM {q['table_name']}")
    t = q["time_column"]
    if q["where"] == "range":
        parts.append(f"WHERE {t} >= {q['lo']} AND {t} <= {q['hi']}")
    elif q["where"] == "between":
        parts.append(f"WHERE {t} BETWEEN {q['lo']} AND {q['hi']}")
    elif q["where"] == "lower":
        parts.append(f"WHERE {t} >= {q['lo']}")
    elif q["where"] == "upper":
        parts.append(f"WHERE {t} <= {q['hi']}")
    return " ".join(parts)


@settings(max_examples=120, deadline=None)
@given(_query_structures())
def test_render_parse_roundtrip(q):
    """Any structurally valid query survives render -> parse unchanged."""
    parsed = parse_statement(_render(q))
    assert parsed.view_name == q["view_name"]
    assert parsed.value_column == q["value_column"]
    assert parsed.time_column == q["time_column"]
    assert parsed.table_name == q["table_name"]
    assert parsed.delta == pytest.approx(q["delta"])
    assert parsed.n == q["n"]
    if q["metric"] is not None:
        assert parsed.metric_name == q["metric"]
        for key, value in q["params"].items():
            if isinstance(value, bool):
                assert parsed.metric_params[key] is value
            else:
                assert parsed.metric_params[key] == pytest.approx(value)
    assert parsed.window == q["window"]
    if q["cache"] == "none":
        assert not parsed.uses_cache
    elif q["cache"] == "distance":
        assert parsed.cache_distance == 0.01 and parsed.cache_memory is None
    elif q["cache"] == "memory":
        assert parsed.cache_memory == 32 and parsed.cache_distance is None
    else:
        assert parsed.cache_distance == 0.05 and parsed.cache_memory == 64
    if q["where"] in ("range", "between"):
        assert parsed.time_lo == pytest.approx(q["lo"])
        assert parsed.time_hi == pytest.approx(q["hi"])
    elif q["where"] == "lower":
        assert parsed.time_lo == pytest.approx(q["lo"])
        assert parsed.time_hi is None
    elif q["where"] == "upper":
        assert parsed.time_hi == pytest.approx(q["hi"])
        assert parsed.time_lo is None


# Numbers render with ``:g`` (six significant digits): draw values that
# survive it, so the round trip is exact rather than approximate.
_NUMBER = st.integers(min_value=-9999, max_value=9999).map(
    lambda i: i / 10.0
)
_QUOTED = st.from_regex(r"[a-zA-Z0-9_/.*?\-]{1,12}", fullmatch=True)

_SELECT_ITEM = st.one_of(
    st.just(SelectItem("expected_value")),
    st.builds(
        lambda tau: SelectItem("threshold", (tau,)),
        st.integers(min_value=0, max_value=100).map(lambda i: i / 100.0),
    ),
    st.builds(lambda v: SelectItem("exceedance", (v,)), _NUMBER),
    st.builds(
        lambda v, w: SelectItem("time_above", (v, float(w))),
        _NUMBER,
        st.integers(min_value=1, max_value=99),
    ),
    st.builds(
        lambda v, w: SelectItem("sustained_exceedance", (v, float(w))),
        _NUMBER,
        st.integers(min_value=1, max_value=99),
    ),
    st.builds(
        lambda w: SelectItem("windowed_expected_value", (float(w),)),
        st.integers(min_value=1, max_value=99),
    ),
    st.builds(
        lambda low, width, column: SelectItem(
            "probability_of", (low, low + width), column
        ),
        st.integers(min_value=-99, max_value=99).map(float),
        st.integers(min_value=0, max_value=99).map(float),
        _IDENT.filter(lambda s: s.lower() not in {"persist", "into"}),
    ),
)
_SIMULATE_ITEM = st.builds(
    lambda n, seed: SelectItem(
        "simulate", (float(n),) if seed is None else (float(n), float(seed))
    ),
    st.integers(min_value=1, max_value=999),
    st.one_of(st.none(), st.integers(min_value=0, max_value=99999)),
)


@st.composite
def _catalog_queries(draw):
    """SELECT and SIMULATE statements, as the one query class holds them."""
    simulate = draw(st.booleans())
    if simulate:
        items = (draw(_SIMULATE_ITEM),)
    else:
        items = tuple(draw(st.lists(_SELECT_ITEM, min_size=1, max_size=4)))
    lo = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=9999)))
    hi = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=9999)))
    if lo is not None and hi is not None and hi < lo:
        lo, hi = hi, lo
    return CatalogQuery(
        items=items,
        catalog_path=draw(_QUOTED),
        series_pattern=draw(st.one_of(st.just("*"), _QUOTED)),
        time_lo=None if lo is None else float(lo),
        time_hi=None if hi is None else float(hi),
        as_of=draw(st.one_of(st.none(), st.integers(0, 99))),
        # SIMULATE's grammar has neither TOP nor APPROX; APPROX takes
        # one item (and PROBABILITY OF has no estimator, but that is
        # the planner's business, not the grammar's).
        top_k=None if simulate else draw(
            st.one_of(st.none(), st.integers(1, 99))
        ),
        approx=not simulate and len(items) == 1 and draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(_catalog_queries())
def test_catalog_statement_roundtrip(query):
    """render -> parse is the identity on SELECT and SIMULATE alike."""
    assert parse_statement(render_statement(query)) == query


# Arguments with 17 significant digits and time bounds past 1e6: exactly
# the literals a six-digit ``:g`` rendering would round into another query.
_PRECISE = st.integers(10**16, 10**17 - 1).map(lambda m: m / 10**12)
_FAR_TIME = st.floats(min_value=1e6, max_value=1e15)


@st.composite
def _precise_queries(draw):
    low = draw(_PRECISE)
    item = draw(
        st.sampled_from(
            [
                SelectItem("exceedance", (draw(_PRECISE),)),
                SelectItem("time_above", (draw(_PRECISE), 5.0)),
                SelectItem("threshold", (draw(_PRECISE) / 10**5,)),
                SelectItem("probability_of", (low, low + draw(_PRECISE)), "v"),
            ]
        )
    )
    lo = draw(_FAR_TIME)
    hi = lo + draw(_FAR_TIME)
    where = draw(st.sampled_from(["between", "lower", "upper"]))
    return CatalogQuery(
        items=(item,),
        catalog_path="/c",
        time_lo=None if where == "upper" else lo,
        time_hi=None if where == "lower" else hi,
        as_of=draw(st.one_of(st.none(), st.integers(0, 99))),
    )


@settings(max_examples=200, deadline=None)
@given(_precise_queries())
def test_full_precision_literals_roundtrip(query):
    """Rendering keeps every digit: re-rendering never changes the query."""
    assert parse_statement(render_statement(query)) == query


@settings(max_examples=80, deadline=None)
@given(st.text(min_size=1, max_size=60))
def test_arbitrary_text_never_crashes_the_parser(text):
    """Garbage input raises ParseError (or parses), never anything else."""
    try:
        parse_statement(text)
    except ParseError:
        pass
