"""A catalog an older build wrote, read by this one: answers held to digests.

``tests/fixtures/catalog-npz/`` is committed old bytes (see
``tests/fixtures/catalog_npz.py``): ``.npz`` segments, a legacy ``.v2``
directory, synopses in ``series.json`` and one revision.  Every statement
over it must keep its committed sha256 on every backend, a catalog built
today by the same recipe must answer the same, and so must the old
catalog after this build appends to it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.data.synthetic import campus_temperature
from repro.db.aggregates import AGGREGATES
from repro.service import CatalogQueryService
from repro.store import Catalog

_SPEC = importlib.util.spec_from_file_location(
    "catalog_npz", Path(__file__).parent / "fixtures" / "catalog_npz.py"
)
fixture = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fixture)

GOLDEN = json.loads(fixture.GOLDEN.read_text())


@pytest.fixture(scope="module")
def old_root(tmp_path_factory):
    return fixture.copy_fixture(tmp_path_factory.mktemp("old") / "catalog")


def _meta(root: Path, series_id: str) -> dict:
    return json.loads((root / series_id / "series.json").read_text())


def _segments(root: Path) -> dict[str, list[str]]:
    return {name: _meta(root, name)["segments"] for name in fixture.APPENDS}


def test_the_fixture_is_old_bytes():
    assert _segments(fixture.FIXTURE) == {
        "a": ["seg-00000001.npz", "seg-00000002.npz", "seg-00000003.npz"],
        "b": ["seg-00000001.npz", "seg-00000002.npz", "seg-00000003.npz"],
        "c": ["seg-00000001.v2", "seg-00000002.npz"],
    }
    assert (fixture.FIXTURE / "c" / "seg-00000001.v2").is_dir()
    meta = _meta(fixture.FIXTURE, "b")
    assert [r["knowledge_time"] for r in meta["revisions"]] == [1]
    assert set(meta["synopses"]) == set(meta["segments"])


def test_the_statements_cover_the_registry():
    assert sorted(GOLDEN) == sorted(fixture.STATEMENTS)
    assert set(fixture.ITEMS) == set(AGGREGATES)


@pytest.mark.parametrize("backend", ["sequential", "process"])
def test_old_catalog_matches_the_committed_digests(old_root, backend):
    with CatalogQueryService(old_root, backend=backend, max_workers=2) as service:
        assert fixture.digests(service, old_root) == GOLDEN


def test_a_catalog_written_today_answers_the_same(tmp_path, legacy_v2):
    root = tmp_path / "fresh"
    fixture.build(root, legacy_v2)
    with CatalogQueryService(root) as service:
        assert fixture.digests(service, root) == GOLDEN


def test_appends_to_the_old_catalog_answer_like_a_fresh_one(tmp_path, legacy_v2):
    # Each series gains a segment in today's format behind its old ones.
    old = fixture.copy_fixture(tmp_path / "old")
    fresh = tmp_path / "fresh"
    fixture.build(fresh, legacy_v2)
    for root in (old, fresh):
        catalog = Catalog(root)
        for index, series_id in enumerate(fixture.APPENDS):
            catalog.append(series_id, campus_temperature(10, rng=40 + index).values)
    answers = {}
    for root in (old, fresh):
        with CatalogQueryService(root) as service:
            answers[root] = fixture.digests(service, root)
    assert answers[old] == answers[fresh]
    assert answers[old] != GOLDEN
    before, after = _segments(fixture.FIXTURE), _segments(old)
    assert all(after[name][:-1] == before[name] for name in before)
