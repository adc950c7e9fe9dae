"""The answers a refactor must not move, and the script that records them.

``aggregates.json`` maps statement text (``{root}`` standing for the
catalog path) to the sha256 of its canonical reply
(:meth:`~repro.service.executor.StatementResult.json`), and each python
one-shot call on each series to the sha256 of its canonical answer.
``tests/test_golden.py`` rebuilds the corpus catalog and checks every
digest on the sequential and process backends.  Regenerate with::

    PYTHONPATH=src python tests/golden/regenerate.py

only when an answer is meant to change, and say which in the commit.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.data.synthetic import campus_temperature
from repro.db.prob_view import ProbabilisticView
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
from repro.db.worlds import conjunctive_range_query
from repro.service import CatalogQueryService
from repro.store import Catalog
from repro.util.jsonio import canonical_dumps
from repro.view.omega import OmegaGrid

GOLDEN = Path(__file__).with_name("aggregates.json")
SERIES = ("s0", "s1", "s2", "s3")
#: Append sizes per series: several segments each, the first past warm-up.
APPENDS = ((40, 30, 30), (35, 25, 20, 20), (50, 25, 25), (30, 30, 30, 10))

#: One select-list item per registered aggregate.
ITEMS = {
    "threshold": "threshold(0.3)",
    "expected_value": "expected_value",
    "exceedance": "exceedance(8.5)",
    "time_above": "time_above(8.5, 4)",
    "probability_of": "PROBABILITY OF v BETWEEN 8 AND 9",
    "sustained_exceedance": "sustained_exceedance(8, 3)",
    "windowed_expected_value": "windowed_expected_value(5)",
}
APPROX_ITEMS = ("threshold", "expected_value", "exceedance", "time_above")

#: The python one-shot functions and their arguments, as in ``ITEMS``.
ONE_SHOT = {
    "threshold_query": (threshold_query, (0.3,)),
    "expected_value_query": (expected_value_query, ()),
    "exceedance_probability": (exceedance_probability, (8.5,)),
    "expected_time_above": (expected_time_above, (8.5, 4)),
    "range_probability_query": (range_probability_query, (8.0, 9.0)),
    "sustained_exceedance_probability": (sustained_exceedance_probability, (8.0, 3)),
    "windowed_expected_value": (windowed_expected_value, (5,)),
    "conjunctive_range_query": (
        conjunctive_range_query,
        ({60: (8.0, 9.0), 61: (8.0, 9.5), 62: (7.5, 9.0)},),
    ),
}


def build_catalog(root: Path) -> Catalog:
    """Four appended series, one revision on ``s1``, every segment synopsized."""
    catalog = Catalog(root)
    for index, (series_id, sizes) in enumerate(zip(SERIES, APPENDS)):
        catalog.create_series(
            series_id,
            metric="variable_threshold",
            H=20,
            grid=OmegaGrid(delta=0.4, n=6),
        )
        values = campus_temperature(sum(sizes), rng=index + 1).values + 0.4 * index
        for start, stop in zip(np.cumsum((0, *sizes[:-1])), np.cumsum(sizes)):
            catalog.append(series_id, values[start:stop])
    cols = catalog.view("s1").columns
    rows = np.flatnonzero((cols.t >= 55) & (cols.t <= 64))
    catalog.revise(
        "s1",
        ProbabilisticView.from_columns(
            "s1",
            cols.t[rows],
            cols.low[rows] + 0.3,
            cols.high[rows] + 0.3,
            cols.probability[rows],
        ),
        knowledge_time=1,
    )
    catalog.synopsize()
    return catalog


def statements() -> list[str]:
    """The corpus statements, ``{root}`` standing for the catalog path."""
    source = "FROM CATALOG '{root}'"
    texts = []
    for item in ITEMS.values():
        texts += [
            f"SELECT {item} {source}",
            f"SELECT {item} {source} WHERE t BETWEEN 50 AND 90",
            f"SELECT {item} {source} TOP 2",
        ]
    texts += [f"SELECT APPROX {ITEMS[name]} {source}" for name in APPROX_ITEMS]
    texts += [
        f"SIMULATE 4 SEED 7 {source}",
        f"SELECT threshold(0.3), expected_value, "
        f"PROBABILITY OF v BETWEEN 8 AND 9 {source}",
        f"SELECT exceedance(8.5) {source} AS OF 0",
    ]
    return texts


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_answer(answer) -> str:
    """A one-shot answer as canonical JSON: ``[t, value]`` pairs or tuples."""
    if isinstance(answer, dict):
        answer = sorted(answer.items())
    elif isinstance(answer, list):
        answer = [[r.t, r.low, r.high, r.probability, r.label] for r in answer]
    return canonical_dumps(answer)


def statement_digests(service: CatalogQueryService, root: Path) -> dict[str, str]:
    return {
        text: digest(service.execute(text.format(root=root)).json())
        for text in statements()
    }


def one_shot_digests(catalog: Catalog) -> dict[str, str]:
    out = {}
    for series_id in SERIES:
        view = catalog.view(series_id)
        for name, (query, arguments) in ONE_SHOT.items():
            answer = canonical_answer(query(view, *arguments))
            out[f"{series_id}: {name}{arguments}"] = digest(answer)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "golden"
        catalog = build_catalog(root)
        with CatalogQueryService(root) as service:
            golden = {
                "statements": statement_digests(service, root),
                "one_shot": one_shot_digests(catalog),
            }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['statements'])} + {len(golden['one_shot'])} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
