"""Result-transport bit-identity suite.

Process workers hand their results back through the pool's own pipe
(the ``pickle`` transport); there is no shared-memory side channel.
The contract pinned here: canonical result bytes match across the
sequential and process backends — cold and warm — including
``SIMULATE`` (seeded), the windowed aggregates and multi-aggregate
selects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.server.protocol import canonical_dumps
from repro.service import CatalogQueryService, ProcessBackend
from repro.store import Catalog
from repro.view.omega import OmegaGrid

H = 16
GRID = OmegaGrid(delta=0.5, n=4)
SERIES = 6


@pytest.fixture(scope="module")
def catalog_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("transport") / "cat"
    catalog = Catalog(root, segment_layout="v2")
    rng = np.random.default_rng(7)
    for index in range(SERIES):
        series_id = f"s-{index}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + 0.05 * index + np.cumsum(
            rng.normal(0.0, 0.05, size=48)
        )
        catalog.append(series_id, values[:30])
        catalog.append(series_id, values[30:])
    return root


def _statements(root) -> list[str]:
    return [
        f"SELECT expected_value FROM CATALOG '{root}'",
        f"SELECT exceedance(20.3) FROM CATALOG '{root}'",
        f"SELECT threshold(0.2) FROM CATALOG '{root}' TOP 3",
        f"SELECT time_above(20.3, 5) FROM CATALOG '{root}' "
        f"WHERE t BETWEEN 18 AND 60",
        f"SELECT sustained_exceedance(20.3, 5) FROM CATALOG '{root}'",
        f"SELECT windowed_expected_value(5) FROM CATALOG '{root}' TOP 2",
        f"SIMULATE 3 SEED 42 FROM CATALOG '{root}'",
        f"SELECT expected_value, exceedance(20.3) FROM CATALOG '{root}'",
    ]


def _canonical(result) -> str:
    return canonical_dumps(result.to_dict())


def test_bit_identity_across_backends_and_transports(catalog_root):
    with CatalogQueryService(catalog_root, backend="sequential") as service:
        reference = [_canonical(service.execute(s)) for s in _statements(
            catalog_root
        )]

    backend = ProcessBackend(2)
    with CatalogQueryService(catalog_root, backend=backend) as service:
        cold = [_canonical(service.execute(s)) for s in _statements(
            catalog_root
        )]
        warm = [_canonical(service.execute(s)) for s in _statements(
            catalog_root
        )]
        stats = backend.transport_stats()
    assert cold == reference
    assert warm == reference
    assert stats == {"mode": "pickle"}
