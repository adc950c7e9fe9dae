"""SIMULATE + multi-aggregate integration: the PR's acceptance criteria.

Pins the two bit-identity guarantees end to end:

* ``SIMULATE n SEED s`` serialises to byte-identical canonical JSON on
  the sequential and process backends (deterministic per-series
  seeding via :func:`repro.db.worlds.derive_series_seed`);
* a multi-aggregate select list returns results — and wire payloads —
  bit-identical to running each aggregate as its own statement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.aggregates import SIMULATE_KERNEL
from repro.db.engine import Database
from repro.db.prob_view import ProbabilisticView
from repro.db.worlds import (
    WorldSampler,
    conjunctive_range_query,
    derive_series_seed,
)
from repro.exceptions import InvalidParameterError, QueryError
from repro.server.protocol import canonical_dumps
from repro.service import (
    CatalogQueryService,
    StatementResult,
    plan_statement,
)
from repro.store import Catalog
from repro.view.omega import OmegaGrid
from repro.view.sql import MAX_WORLD_CELLS, SelectItem, parse_statement

H = 20
GRID = OmegaGrid(delta=0.5, n=4)


def _fill_catalog(root, series_count=4, length=90, seed=0) -> Catalog:
    catalog = Catalog(root)
    rng = np.random.default_rng(seed)
    for index in range(series_count):
        series_id = f"sensor-{index:02d}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + index * 0.5 + np.cumsum(
            rng.normal(0.0, 0.15, size=length)
        )
        catalog.append(series_id, values)
    return catalog


@pytest.fixture
def catalog(tmp_path) -> Catalog:
    return _fill_catalog(tmp_path / "catalog")


class TestSimulate:
    def test_bit_identical_across_backends(self, catalog):
        statement = f"SIMULATE 4 SEED 7 FROM CATALOG '{catalog.root}'"
        wires = {}
        for backend in ("sequential", "process"):
            with CatalogQueryService(catalog, backend=backend) as service:
                result = service.execute(statement)
                wires[backend] = canonical_dumps(result.to_dict())
        assert wires["sequential"] == wires["process"]

    def test_matches_directly_seeded_sampler(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            result = service.execute(
                f"SIMULATE 2 SEED 11 FROM CATALOG '{catalog.root}'"
            )
        assert isinstance(result, StatementResult)
        assert result.kind == "simulate"
        for entry in result.results:
            view = catalog.view(entry.series_id)
            rng = np.random.default_rng(
                derive_series_seed(11, entry.series_id)
            )
            sampler = WorldSampler(view)
            times = [int(t) for t in view.times]
            for world_rows in entry.result:
                world = sampler.sample(rng)
                assert world_rows == [
                    [t, world.values[t]] for t in times
                ]

    def test_default_seed_is_resolved_and_reproducible(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            bare = service.execute(
                f"SIMULATE 3 FROM CATALOG '{catalog.root}'"
            )
            pinned = service.execute(
                f"SIMULATE 3 SEED {int(bare.arguments[1])} "
                f"FROM CATALOG '{catalog.root}'"
            )
        assert bare.results == pinned.results

    def test_time_window_restricts_sampled_times(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            result = service.execute(
                f"SIMULATE 2 SEED 3 FROM CATALOG '{catalog.root}' "
                f"WHERE t BETWEEN 20 AND 25"
            )
        for entry in result.results:
            for world in entry.result:
                assert [t for t, _v in world] == [20, 21, 22, 23, 24, 25]

    def test_engine_dispatches_simulate(self, catalog):
        result = Database().execute(
            f"SIMULATE 2 SEED 5 FROM CATALOG '{catalog.root}'"
        )
        assert isinstance(result, StatementResult)
        assert result.kind == "simulate"
        assert result.arguments == (2.0, 5.0)

    def test_wire_payload_shape(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            result = service.execute(
                f"SIMULATE 2 SEED 9 FROM CATALOG '{catalog.root}'"
            )
        payload = result.to_dict()
        assert payload["kind"] == "simulate"
        assert payload["n_worlds"] == 2 and payload["seed"] == 9
        assert payload["matched"] == list(result.matched)
        entry = payload["results"][0]
        assert len(entry["worlds"]) == 2
        t, value = entry["worlds"][0][0]
        assert isinstance(t, int)
        assert value is None or isinstance(value, float)

    def test_invalid_parameters_rejected(self, catalog):
        query = parse_statement(
            f"SIMULATE 2 FROM CATALOG '{catalog.root}'"
        )
        bad = type(query)(
            items=(SelectItem(name="simulate", arguments=(0.0,)),),
            catalog_path=query.catalog_path,
        )
        with pytest.raises(InvalidParameterError, match="n_worlds"):
            plan_statement(catalog, bad)

    def test_world_cell_budget_is_checked_before_drawing(self):
        # 1024 times x 1024 worlds is exactly the budget and draws; one
        # world more is refused by name before the sampler allocates.
        times = 1024
        view = ProbabilisticView.from_columns(
            "room",
            np.arange(times),
            np.full(times, 20.0),
            np.full(times, 21.0),
            np.ones(times),
        )
        assert times * times == MAX_WORLD_CELLS
        answer, _ = SIMULATE_KERNEL.evaluate(view, (1024.0, 5.0), whole=True)
        assert answer.arrays["values"].shape == (1024, times)
        with pytest.raises(
            QueryError, match=r"1025 .* 1024 times of series 'room' .* 1048576"
        ):
            SIMULATE_KERNEL.evaluate(view, (1025.0, 5.0), whole=True)

    def test_world_count_over_the_budget_is_refused(self, catalog):
        with pytest.raises(InvalidParameterError, match="MAX_WORLD_CELLS"):
            SIMULATE_KERNEL.bind((MAX_WORLD_CELLS + 1.0, 0.0))
        # At the budget the count binds; the catalog's 70-time series
        # then refuse it in their kernel, naming the series.
        with CatalogQueryService(catalog, backend="sequential") as service:
            with pytest.raises(QueryError, match=r"series 'sensor-0\d'"):
                service.execute(
                    f"SIMULATE {MAX_WORLD_CELLS} FROM CATALOG '{catalog.root}'"
                )

    def test_simulate_is_not_a_select_list_aggregate(self, catalog):
        # Built directly (the grammar cannot write it): simulate beside
        # another item is as unknown as it was when SIMULATE had a query
        # class of its own.
        query = parse_statement(
            f"SIMULATE 2 FROM CATALOG '{catalog.root}'"
        )
        mixed = type(query)(
            items=query.items + (SelectItem(name="expected_value"),),
            catalog_path=query.catalog_path,
        )
        with pytest.raises(QueryError, match="unknown aggregate 'simulate'"):
            plan_statement(catalog, mixed)


class TestMultiAggregate:
    STATEMENTS = (
        "threshold(0.4)",
        "expected_value",
        "PROBABILITY OF v BETWEEN 20 AND 22",
    )

    def test_bit_identical_to_single_statements(self, catalog):
        with CatalogQueryService(catalog) as service:
            multi = service.execute(
                f"SELECT {', '.join(self.STATEMENTS)} "
                f"FROM CATALOG '{catalog.root}'"
            )
            # The select list shares one scan: on a cold cache each
            # matched series is loaded once, not once per item.
            matched = multi.items[0].matched
            assert service.cache.stats.misses == len(matched) == 4
            singles = [
                service.execute(
                    f"SELECT {body} FROM CATALOG '{catalog.root}'"
                )
                for body in self.STATEMENTS
            ]
        assert isinstance(multi, StatementResult)
        payload = multi.to_dict()
        assert payload["kind"] == "multi_select"
        for item, wire, single in zip(
            multi.items, payload["statements"], singles
        ):
            assert item == single
            assert canonical_dumps(wire) == canonical_dumps(
                single.to_dict()
            )

    def test_top_k_ranks_each_item_independently(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            multi = service.execute(
                f"SELECT threshold(0.4), exceedance(21) "
                f"FROM CATALOG '{catalog.root}' TOP 2"
            )
        for item in multi.items:
            assert len(item.results) == 2
            scores = [entry.score for entry in item.results]
            assert scores == sorted(scores, reverse=True)

    def test_approx_select_list_rejected_when_built_directly(self, catalog):
        import dataclasses

        query = parse_statement(
            f"SELECT threshold(0.4), expected_value "
            f"FROM CATALOG '{catalog.root}'"
        )
        approx = dataclasses.replace(query, approx=True)
        with pytest.raises(QueryError):
            plan_statement(catalog, approx)


class TestProbabilityOfKernel:
    def test_matches_conjunctive_range_query(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            result = service.execute(
                f"SELECT PROBABILITY OF v BETWEEN 20 AND 22 "
                f"FROM CATALOG '{catalog.root}'"
            )
        for entry in result.results:
            view = catalog.view(entry.series_id)
            for t, probability in entry.result.items():
                assert probability == pytest.approx(
                    conjunctive_range_query(view, {t: (20.0, 22.0)})
                )
            assert entry.score == pytest.approx(
                max(entry.result.values())
            )


class TestPlanTree:
    def test_plan_explains_itself_as_a_tree(self, catalog):
        plan = plan_statement(
            catalog,
            parse_statement(
                f"SELECT threshold(0.4), expected_value "
                f"FROM CATALOG '{catalog.root}' TOP 2"
            ),
        )
        assert plan.explain().splitlines() == [
            "Finalize(top 2)",
            "  Combine[exact] x2",
            "    Kernel: threshold(0.4)",
            "    Kernel: expected_value",
            "    Prune(t in [-inf, +inf])",
            f"      Scan({str(catalog.root)!r}, series='*')",
        ]

    def test_per_item_plans_match_standalone(self, catalog):
        multi = plan_statement(
            catalog,
            parse_statement(
                f"SELECT threshold(0.4), expected_value "
                f"FROM CATALOG '{catalog.root}'"
            ),
        )
        for body, item in zip(
            ("threshold(0.4)", "expected_value"), multi.items
        ):
            single = plan_statement(
                catalog,
                parse_statement(
                    f"SELECT {body} FROM CATALOG '{catalog.root}'"
                ),
            )
            (alone,) = single.items
            assert item.stats == alone.stats
            assert [t.cache_key for t in item.tasks] == [
                t.cache_key for t in alone.tasks
            ]

    def test_simulate_plan_label_names_seed(self, catalog):
        plan = plan_statement(
            catalog,
            parse_statement(
                f"SIMULATE 8 SEED 3 FROM CATALOG '{catalog.root}'"
            ),
        )
        assert "simulate(8 worlds, seed 3)" in plan.describe()
