"""Property-based guarantees for zone-map pruning and APPROX estimates.

Over randomly built catalogs (series count, ingest lengths, micro-batch
splits, and randomly drawn statements):

* pruned exact execution is **bit-identical** to unpruned execution,
  compared on the canonical wire serialization (modulo the ``pruning``
  stats block, which legitimately differs);
* every ``SELECT APPROX`` interval contains the exact score, and the
  point estimate honours its own error bound;
* synopses survive a simulated crash between a segment write and its
  sidecar/metadata flush — the affected segment simply runs unpruned,
  and ``synopsize`` repairs it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError, QueryError

# A time_above window longer than the WHERE-restricted view raises
# InvalidParameterError inside the worker; the executor wraps every
# per-series failure as QueryError naming the series.  Either may
# surface depending on the layer — parity only requires both modes to
# fail identically.
_UNDEFINED = (InvalidParameterError, QueryError)
from repro.server.protocol import canonical_dumps
from repro.service import CatalogQueryService
from repro.store import Catalog
from repro.view.omega import OmegaGrid

H = 12
GRID = OmegaGrid(delta=0.5, n=4)

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_counter = iter(range(10**9))


@st.composite
def catalog_spec(draw):
    """Ingredients of a small random catalog."""
    return {
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "series": draw(st.integers(min_value=1, max_value=3)),
        "length": draw(st.integers(min_value=36, max_value=72)),
        "chunks": draw(st.integers(min_value=2, max_value=4)),
    }


@st.composite
def statement_spec(draw):
    """One random SELECT body plus an optional WHERE range."""
    aggregate = draw(
        st.sampled_from(
            ["threshold", "expected_value", "exceedance", "time_above"]
        )
    )
    if aggregate == "threshold":
        body = f"threshold({draw(st.floats(0.05, 0.95)):.3f})"
    elif aggregate == "expected_value":
        body = "expected_value"
    elif aggregate == "exceedance":
        body = f"exceedance({draw(st.floats(18.0, 23.0)):.3f})"
    else:
        theta = draw(st.floats(18.0, 23.0))
        window = draw(st.integers(min_value=1, max_value=4))
        body = f"time_above({theta:.3f}, {window})"
    where = ""
    if draw(st.booleans()):
        lo = draw(st.integers(min_value=0, max_value=70))
        hi = lo + draw(st.integers(min_value=0, max_value=40))
        where = f" WHERE t BETWEEN {lo} AND {hi}"
    top = ""
    if draw(st.booleans()):
        top = f" TOP {draw(st.integers(min_value=1, max_value=3))}"
    return body, where, top


def _build(tmp_path, spec) -> Catalog:
    root = tmp_path / f"cat-{next(_counter)}"
    catalog = Catalog(root)
    rng = np.random.default_rng(spec["seed"])
    for index in range(spec["series"]):
        series_id = f"s-{index}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + 0.1 * index + np.cumsum(
            rng.normal(0.0, 0.1, size=spec["length"])
        )
        for chunk in np.array_split(values, spec["chunks"]):
            catalog.append(series_id, chunk)
    return Catalog(root)


def _statement(catalog, parts) -> str:
    body, where, top = parts
    return (
        f"SELECT {body} FROM CATALOG '{catalog.root}'" + where + top
    )


def _canonical_sans_stats(result) -> str:
    payload = result.to_dict()
    payload.pop("pruning", None)
    return canonical_dumps(payload)


class TestPrunedParity:
    @settings(max_examples=12, **_SETTINGS)
    @given(spec=catalog_spec(), parts=statement_spec())
    def test_pruned_bit_identical_to_unpruned(self, tmp_path, spec, parts):
        catalog = _build(tmp_path, spec)
        statement = _statement(catalog, parts)
        with CatalogQueryService(
            catalog, backend="sequential", pruning=True
        ) as pruned, CatalogQueryService(
            catalog, backend="sequential", pruning=False
        ) as full:
            try:
                b = full.execute(statement)
            except _UNDEFINED as exc:
                # time_above over a WHERE-restricted view shorter than
                # its window raises; pruning must not change that either
                # (dropped segments hold no times inside the window, so
                # the restricted view both modes aggregate is the same).
                with pytest.raises(type(exc)) as excinfo:
                    pruned.execute(statement)
                assert str(excinfo.value) == str(exc)
                return
            a = pruned.execute(statement)
        assert _canonical_sans_stats(a) == _canonical_sans_stats(b)
        assert a.stats is not None and b.stats is not None
        assert b.stats.segments_pruned == 0
        assert (
            a.stats.segments_scanned + a.stats.segments_pruned
            == a.stats.segments_total
            == b.stats.segments_total
        )


class TestApproxBounds:
    @settings(max_examples=12, **_SETTINGS)
    @given(spec=catalog_spec(), parts=statement_spec())
    def test_interval_contains_exact_score(self, tmp_path, spec, parts):
        catalog = _build(tmp_path, spec)
        body, where, _ = parts
        exact_statement = (
            f"SELECT {body} FROM CATALOG '{catalog.root}'" + where
        )
        approx_statement = (
            f"SELECT APPROX {body} FROM CATALOG '{catalog.root}'" + where
        )
        with CatalogQueryService(catalog, backend="sequential") as service:
            approx = service.execute(approx_statement)
            assert approx.approx
            try:
                exact = service.execute(exact_statement)
            except _UNDEFINED:
                # The exact query is undefined (time_above window longer
                # than the restricted view); APPROX still answers with a
                # well-formed interval — nothing to contain.
                for entry in approx.results:
                    payload = entry.result
                    assert (
                        payload["lower"]
                        <= payload["estimate"]
                        <= payload["upper"]
                    )
                return
        scores = {e.series_id: e.score for e in exact.results}
        assert set(scores) == {e.series_id for e in approx.results}
        for entry in approx.results:
            payload = entry.result
            score = scores[entry.series_id]
            assert (
                payload["lower"] <= payload["estimate"] <= payload["upper"]
            )
            assert payload["lower"] - 1e-9 <= score <= payload["upper"] + 1e-9
            assert abs(score - payload["estimate"]) <= (
                payload["error_bound"] + 1e-9
            )


class TestCrashRecovery:
    @settings(max_examples=8, **_SETTINGS)
    @given(spec=catalog_spec(), parts=statement_spec())
    def test_lost_synopsis_degrades_then_repairs(self, tmp_path, spec, parts):
        catalog = _build(tmp_path, spec)
        statement = _statement(catalog, parts)
        with CatalogQueryService(
            catalog, backend="sequential", pruning=False
        ) as full:
            try:
                reference = _canonical_sans_stats(full.execute(statement))
            except _UNDEFINED:
                reference = None  # Undefined exact query; repair still runs.
        # Simulate the last segment's synopsis missing from series.json
        # (its only home): the segment is valid, its synopsis is gone.
        victim_dir = catalog.root / "s-0"
        meta_path = victim_dir / "series.json"
        meta = json.loads(meta_path.read_text())
        last = meta["segments"][-1]
        meta.get("synopses", {}).pop(last, None)
        meta_path.write_text(json.dumps(meta))
        damaged = Catalog(catalog.root)
        synopses = damaged.snapshot("s-0").segment_synopses()
        assert synopses[-1] is None
        if reference is not None:
            with CatalogQueryService(
                damaged, backend="sequential", pruning=True
            ) as pruned:
                assert _canonical_sans_stats(
                    pruned.execute(statement)
                ) == reference
        # synopsize() recomputes exactly what the writer would have
        # stored, so pruning is fully re-armed afterwards.
        written = damaged.synopsize()
        assert written["s-0"] == 1
        repaired = Catalog(catalog.root).snapshot("s-0").segment_synopses()
        assert all(s is not None for s in repaired)
