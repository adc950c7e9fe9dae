"""A catalog written by an older build, and the answers it must keep giving.

``catalog-npz/`` beside this file holds real old bytes: a catalog that
:func:`build` wrote once, on the last build whose segment writer was
``.npz``, and that is never rewritten.  It has

* ``.npz`` segments (series ``a`` and ``b``), with every synopsis in
  ``series.json``;
* one revision (``b`` at knowledge time 1), so ``AS OF 0`` differs from
  the latest answer;
* one series (``c``) whose first segment is a legacy ``.v2`` directory,
  written by the conftest helper, followed by an ``.npz`` append.

``tests/golden/catalog_npz.json`` maps each of :data:`STATEMENTS`
(``{root}`` standing for the catalog path) to the sha256 of its canonical
reply over that directory.  ``tests/test_committed_catalog.py`` checks
those digests on every backend, so a reader change is held to old bytes
rather than to a test-only re-implementation of an old writer.  Should an
answer be meant to change, rewrite the digests (never the fixture) with::

    PYTHONPATH=src python tests/fixtures/catalog_npz.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.data.synthetic import campus_temperature
from repro.db.prob_view import ProbabilisticView
from repro.service import CatalogQueryService
from repro.store import Catalog
from repro.view.omega import OmegaGrid

FIXTURE = Path(__file__).with_name("catalog-npz")
GOLDEN = Path(__file__).parent.parent / "golden" / "catalog_npz.json"

#: One select-list item per registered aggregate.
ITEMS = {
    "threshold": "threshold(0.3)",
    "expected_value": "expected_value",
    "exceedance": "exceedance(7.5)",
    "time_above": "time_above(7.5, 3)",
    "probability_of": "PROBABILITY OF v BETWEEN 7 AND 8",
    "sustained_exceedance": "sustained_exceedance(7.3, 3)",
    "windowed_expected_value": "windowed_expected_value(4)",
}

_SOURCE = "FROM CATALOG '{root}'"

#: Every aggregate plain, plus ``TOP``, ``WHERE t BETWEEN``, ``AS OF 0``,
#: ``SIMULATE … SEED`` and one select list.
STATEMENTS = tuple(
    [f"SELECT {item} {_SOURCE}" for item in ITEMS.values()]
    + [
        f"SELECT expected_value {_SOURCE} TOP 2",
        f"SELECT threshold(0.3) {_SOURCE} TOP 1",
        f"SELECT exceedance(7.5) {_SOURCE} WHERE t BETWEEN 20 AND 40",
        f"SELECT windowed_expected_value(4) {_SOURCE} WHERE t BETWEEN 15 AND 35",
        f"SELECT expected_value {_SOURCE} AS OF 0",
        f"SELECT exceedance(7.5) {_SOURCE} AS OF 0",
        f"SIMULATE 3 SEED 11 {_SOURCE}",
        f"SIMULATE 2 SEED 5 {_SOURCE} AS OF 0",
        f"SELECT threshold(0.3), expected_value, "
        f"PROBABILITY OF v BETWEEN 7 AND 8 {_SOURCE}",
    ]
)

#: Append sizes per series; each first append passes the H = 12 warm-up.
APPENDS = {"a": (20, 12, 12), "b": (22, 14), "c": (18, 12)}


def build(root: Path, rewrite_as_v2: Callable[[Path], None]) -> Catalog:
    """The recipe that wrote ``catalog-npz/``.

    ``rewrite_as_v2`` is the conftest ``legacy_v2`` helper: it turns
    series ``c``'s first segment into a ``.v2`` directory before its
    second append.
    """
    catalog = Catalog(root)
    for index, (series_id, sizes) in enumerate(APPENDS.items()):
        catalog.create_series(
            series_id,
            metric="variable_threshold",
            H=12,
            grid=OmegaGrid(delta=0.5, n=4),
        )
        values = campus_temperature(sum(sizes), rng=20 + index).values
        bounds = np.cumsum((0, *sizes))
        for number, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            if series_id == "c" and number == 1:
                rewrite_as_v2(root / series_id)
                catalog = Catalog(root)  # No handle on the old metadata.
            catalog.append(series_id, values[start:stop])
    cols = catalog.view("b").columns
    rows = np.flatnonzero((cols.t >= 25) & (cols.t <= 30))
    catalog.revise(
        "b",
        ProbabilisticView.from_columns(
            "b",
            cols.t[rows],
            cols.low[rows] + 0.25,
            cols.high[rows] + 0.25,
            cols.probability[rows],
        ),
        knowledge_time=1,
    )
    return catalog


def copy_fixture(destination: Path) -> Path:
    """Copy ``catalog-npz/`` to ``destination``; queries never touch the original."""
    shutil.copytree(FIXTURE, destination)
    return destination


def digests(service: CatalogQueryService, root: Path) -> dict[str, str]:
    """sha256 of each statement's canonical reply over the catalog at ``root``."""
    out = {}
    for text in STATEMENTS:
        reply = service.execute(text.format(root=root)).json()
        out[text] = hashlib.sha256(reply.encode()).hexdigest()
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = copy_fixture(Path(tmp) / "catalog")
        with CatalogQueryService(root) as service:
            golden = digests(service, root)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
