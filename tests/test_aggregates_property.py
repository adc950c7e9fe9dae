"""Every aggregate answers the same on every route: the registry's property.

For each :data:`~repro.db.aggregates.AGGREGATES` entry and a random
partition of a ``campus_temperature`` series into appends, three routes
must agree with ``==`` (never ``approx``):

* the standing handle, registered before the first append and fed only
  the appended suffixes;
* the aggregate's one-shot function over ``catalog.view()``;
* the series' entry of ``SELECT <item> FROM CATALOG ... SERIES 's'``
  through ``repro.connect(root)``.

``probability_of`` has no windowed one-shot form; its one-shot reference
is :func:`~repro.db.queries.range_probability_query`.

The same routes must also agree on every *argument*: valid, non-finite,
out of domain, inverted or empty — equal answers, or the same exception
type with the same message, because all of them bind through the spec.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connection import connect
from repro.data.synthetic import campus_temperature
from repro.db.aggregates import AGGREGATES
from repro.db.queries import (
    expected_value_query,
    range_probability_query,
    threshold_query,
)
from repro.db.stream_queries import (
    exceedance_probability,
    expected_time_above,
    sustained_exceedance_probability,
    windowed_expected_value,
)
from repro.exceptions import ReproError
from repro.service import CatalogQueryService
from repro.service.synopsis import _ESTIMATORS
from repro.store import Catalog, StandingQuery
from repro.view.omega import OmegaGrid
from repro.view.sql import SelectItem, parse_statement

H = 20
GRID = OmegaGrid(delta=0.4, n=6)
LENGTH = 110
VALUES = campus_temperature(LENGTH, rng=5).values

#: Per aggregate: the item's arguments and its one-shot reference.
ONE_SHOT = {
    "threshold": ((0.25,), threshold_query),
    "expected_value": ((), expected_value_query),
    "exceedance": ((9.0,), exceedance_probability),
    "time_above": ((9.0, 4), expected_time_above),
    "probability_of": ((8.0, 9.5), range_probability_query),
    "sustained_exceedance": ((8.5, 3), sustained_exceedance_probability),
    "windowed_expected_value": ((5,), windowed_expected_value),
}


def test_the_references_cover_the_registry():
    assert set(ONE_SHOT) == set(AGGREGATES)


@st.composite
def _schedules(draw):
    """Append sizes summing to ``LENGTH``, single values and warm-up included."""
    cuts = draw(st.lists(st.integers(1, LENGTH - 1), max_size=6, unique=True))
    bounds = [0, *sorted(cuts), LENGTH]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


@settings(max_examples=40, deadline=None)
@given(_schedules())
def test_standing_one_shot_and_select_agree(schedule):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "cat"
        catalog = Catalog(root)
        catalog.create_series("s", metric="variable_threshold", H=H, grid=GRID)
        handles = {
            name: catalog.register_query("s", StandingQuery(name, arguments))
            for name, (arguments, _) in ONE_SHOT.items()
        }
        cursor = 0
        for size in schedule:
            catalog.append("s", VALUES[cursor : cursor + size])
            cursor += size
        view = catalog.view("s")
        with connect(root) as conn:
            for name, (arguments, one_shot) in ONE_SHOT.items():
                handle = handles[name]
                sql = f"SELECT {handle.query.label()} FROM CATALOG '{root}' SERIES 's'"
                (entry,) = conn.execute(sql).results
                expected = one_shot(view, *arguments)
                assert handle.result() == expected, name
                assert entry.result == expected, name


def test_the_approx_aggregates_are_the_estimated_ones():
    approx = {name for name, spec in AGGREGATES.items() if spec.approx}
    assert approx == set(_ESTIMATORS)


#: Out-of-domain values per parameter name, on top of NaN and +-inf.
DOMAIN_CASES = {"tau": (1.5, -0.1), "window": (0, 2.5)}


def _argument_cases():
    """Per aggregate: its valid arguments, then each invalid substitution."""
    for name, (valid, _) in ONE_SHOT.items():
        yield name, valid
        for position, parameter in enumerate(AGGREGATES[name].parameters):
            bad = (math.nan, math.inf, -math.inf, *DOMAIN_CASES.get(parameter, ()))
            for value in bad:
                yield name, (*valid[:position], value, *valid[position + 1 :])
    yield "probability_of", (9.5, 8.0)  # Inverted.
    yield "probability_of", (8.0, 8.0)  # Empty.


@pytest.fixture(scope="module")
def small_catalog(tmp_path_factory):
    catalog = Catalog(tmp_path_factory.mktemp("routes") / "cat")
    catalog.create_series("s", metric="variable_threshold", H=H, grid=GRID)
    catalog.append("s", VALUES[:60])
    with CatalogQueryService(catalog.root) as service:
        yield catalog, service


def _outcome(call):
    """``("ok", answer)``, or the raised error's type and message."""
    try:
        return "ok", call()
    except ReproError as exc:
        return type(exc), str(exc)


def _select(service, root, name, arguments):
    """The item through SELECT: statement text where the grammar spells it."""
    item = SelectItem(name, arguments, "v" if name == "probability_of" else None)
    statement = f"SELECT {item.label()} FROM CATALOG '{root}'"
    spellable = all(map(math.isfinite, arguments)) and not (
        name == "probability_of" and arguments[1] < arguments[0]
    )
    if spellable:
        assert parse_statement(statement).items[0].arguments == arguments
    else:
        # NaN, +-inf and an inverted PROBABILITY OF are parse errors.
        query = parse_statement(f"SELECT expected_value FROM CATALOG '{root}'")
        statement = dataclasses.replace(query, items=(item,))
    (entry,) = service.execute(statement).results
    return entry.result


@pytest.mark.parametrize(
    "name, arguments",
    list(_argument_cases()),
    ids=lambda value: str(value).replace(" ", ""),
)
def test_every_route_agrees_on_every_argument(small_catalog, name, arguments):
    catalog, service = small_catalog
    one_shot = ONE_SHOT[name][1]
    view = catalog.view("s")
    selected = _outcome(lambda: _select(service, catalog.root, name, arguments))
    direct = _outcome(lambda: one_shot(view, *arguments))
    standing = _outcome(lambda: StandingQuery(name, arguments))
    assert selected == direct
    if direct[0] == "ok":
        assert standing[0] == "ok"
    else:
        assert standing == direct
