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
"""

from __future__ import annotations

import tempfile
from pathlib import Path

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
from repro.store import Catalog, StandingQuery
from repro.view.omega import OmegaGrid

H = 20
GRID = OmegaGrid(delta=0.4, n=6)
LENGTH = 110
VALUES = campus_temperature(LENGTH, rng=5).values

#: Per aggregate: the item's arguments and its one-shot reference.
ONE_SHOT = {
    "threshold": ((0.25,), lambda view: threshold_query(view, 0.25)),
    "expected_value": ((), expected_value_query),
    "exceedance": ((9.0,), lambda view: exceedance_probability(view, 9.0)),
    "time_above": ((9.0, 4), lambda view: expected_time_above(view, 9.0, 4)),
    "probability_of": (
        (8.0, 9.5),
        lambda view: range_probability_query(view, 8.0, 9.5),
    ),
    "sustained_exceedance": (
        (8.5, 3),
        lambda view: sustained_exceedance_probability(view, 8.5, 3),
    ),
    "windowed_expected_value": (
        (5,),
        lambda view: windowed_expected_value(view, 5),
    ),
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
            for name, (_, one_shot) in ONE_SHOT.items():
                handle = handles[name]
                sql = f"SELECT {handle.query.label()} FROM CATALOG '{root}' SERIES 's'"
                (entry,) = conn.execute(sql).results
                expected = one_shot(view)
                assert handle.result() == expected, name
                assert entry.result == expected, name
