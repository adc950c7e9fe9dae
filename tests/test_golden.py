"""Committed answers: every aggregate's reply, byte for byte, on every backend.

The corpus and its digests live in ``tests/golden`` (see
``regenerate.py`` there).  A digest that no longer matches means a
statement's canonical reply — or a one-shot function's answer — moved.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.db.aggregates import AGGREGATES
from repro.service import CatalogQueryService

_SPEC = importlib.util.spec_from_file_location(
    "golden_corpus", Path(__file__).parent / "golden" / "regenerate.py"
)
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

GOLDEN = json.loads(corpus.GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_catalog(tmp_path_factory):
    return corpus.build_catalog(tmp_path_factory.mktemp("golden") / "catalog")


def test_the_corpus_covers_the_registry():
    assert set(corpus.ITEMS) == set(AGGREGATES)
    assert set(corpus.APPROX_ITEMS) == {
        name for name, spec in AGGREGATES.items() if spec.approx
    }
    assert sorted(GOLDEN["statements"]) == sorted(corpus.statements())


@pytest.mark.parametrize("backend", ["sequential", "process"])
def test_statement_replies_match_the_golden_digests(golden_catalog, backend):
    root = golden_catalog.root
    with CatalogQueryService(root, backend=backend, max_workers=2) as service:
        assert corpus.statement_digests(service, root) == GOLDEN["statements"]


def test_one_shot_answers_match_the_golden_digests(golden_catalog):
    assert corpus.one_shot_digests(golden_catalog) == GOLDEN["one_shot"]
