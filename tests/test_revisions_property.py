"""Property-based guarantees for time-of-knowledge revisions.

Over randomly built revision chains (row layouts, overlap patterns,
knowledge-time gaps) the bitemporal contract must hold:

* ``AS OF`` the latest knowledge time is **bit-identical** to the
  default (no clause) execution;
* replaying the chain — ``AS OF k`` against the fully revised catalog —
  equals feeding the same revisions into a fresh catalog in knowledge
  order and querying it directly, at every recorded knowledge time;
* shadowed-segment visibility never changes exact answers across the
  sequential / process backends, with and without pruning.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.service import CatalogQueryService, ProcessBackend
from repro.store import Catalog
from repro.util.jsonio import canonical_dumps
from view_helpers import view_from_rows

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_counter = iter(range(10**9))


@pytest.fixture(scope="module")
def process_backend():
    """One spawn-started pool for the whole sweep, not one per example.

    Envelopes carry their catalog's path, so services over different
    catalogs can share the backend.
    """
    backend = ProcessBackend(2)
    yield backend
    backend.close()


@st.composite
def chain_spec(draw):
    """A base series plus a random chain of overlapping revisions."""
    length = draw(st.integers(min_value=6, max_value=14))
    revisions = []
    knowledge = 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=length - 2))
        span = draw(st.integers(min_value=1, max_value=length - start))
        knowledge += draw(st.integers(min_value=1, max_value=3))
        revisions.append({
            "start": start,
            "span": span,
            "knowledge": knowledge,
            "shift": draw(st.integers(min_value=-5, max_value=15)),
        })
    return {
        "length": length,
        "base_low": draw(
            st.floats(min_value=15.0, max_value=25.0, allow_nan=False)
        ),
        "revisions": revisions,
    }


def _base_view(spec) -> ProbabilisticView:
    return view_from_rows("s", [
        ProbTuple(
            t,
            spec["base_low"] + 0.1 * t,
            spec["base_low"] + 0.1 * t + 1.0,
            0.9,
            "base",
        )
        for t in range(spec["length"])
    ])


def _revision_view(spec, rev, index) -> ProbabilisticView:
    return view_from_rows("s", [
        ProbTuple(
            t,
            spec["base_low"] + rev["shift"],
            spec["base_low"] + rev["shift"] + 1.0,
            0.85,
            f"rev{index}",
        )
        for t in range(rev["start"], rev["start"] + rev["span"])
    ])


def _build(root, spec, upto=None) -> Catalog:
    """The catalog after applying revisions with knowledge <= ``upto``."""
    catalog = Catalog(root)
    catalog.save_view("s", _base_view(spec))
    for index, rev in enumerate(spec["revisions"]):
        if upto is not None and rev["knowledge"] > upto:
            break
        catalog.revise(
            "s", _revision_view(spec, rev, index),
            knowledge_time=rev["knowledge"],
        )
    return catalog


def _answer(service, statement) -> str:
    payload = service.execute(statement).to_dict()
    payload.pop("pruning", None)
    return canonical_dumps(payload)


_STATEMENTS = st.sampled_from([
    "SELECT exceedance(21.0) FROM CATALOG '{root}'{suffix}",
    "SELECT expected_value FROM CATALOG '{root}'{suffix}",
    "SELECT threshold(0.5) FROM CATALOG '{root}'{suffix}",
    "SIMULATE 2 SEED 5 FROM CATALOG '{root}'{suffix}",
])


class TestAsOfProperties:
    @given(spec=chain_spec(), template=_STATEMENTS)
    @settings(max_examples=25, **_SETTINGS)
    def test_as_of_latest_bit_identical_to_default(
        self, tmp_path_factory, spec, template
    ):
        root = tmp_path_factory.mktemp("prop") / f"c{next(_counter)}"
        catalog = _build(root, spec)
        latest = spec["revisions"][-1]["knowledge"]
        service = CatalogQueryService(catalog, backend="sequential")
        default = service.execute(
            template.format(root=catalog.root, suffix="")
        ).json()
        pinned = service.execute(
            template.format(root=catalog.root, suffix=f" AS OF {latest}")
        ).json()
        assert default == pinned

    @given(spec=chain_spec())
    @settings(max_examples=15, **_SETTINGS)
    def test_replay_equals_feeding_revisions_in_order(
        self, tmp_path_factory, spec
    ):
        base = tmp_path_factory.mktemp("prop") / f"c{next(_counter)}"
        catalog = _build(base / "full", spec)
        service = CatalogQueryService(catalog, backend="sequential")
        knowledge_times = [0] + [
            r["knowledge"] for r in spec["revisions"]
        ]
        for k in knowledge_times:
            fresh_root = base / f"upto{k}"
            fresh = _build(fresh_root, spec, upto=k)
            fresh_service = CatalogQueryService(
                fresh, backend="sequential"
            )
            statement = "SELECT expected_value FROM CATALOG '{root}'"
            got = _answer(
                service,
                statement.format(root=catalog.root) + f" AS OF {k}",
            ).replace(str(catalog.root), "ROOT")
            want = _answer(
                fresh_service, statement.format(root=fresh.root)
            ).replace(str(fresh.root), "ROOT")
            assert got == want, k

    @given(spec=chain_spec())
    @settings(max_examples=15, **_SETTINGS)
    def test_replay_api_matches_as_of_views(self, tmp_path_factory, spec):
        root = tmp_path_factory.mktemp("prop") / f"c{next(_counter)}"
        catalog = _build(root, spec)
        snapshot = catalog.snapshot("s")
        for k, view in catalog.replay("s"):
            direct = snapshot.load_view(as_of=k)
            assert view.columns.t.tolist() == direct.columns.t.tolist()
            assert view.columns.low.tolist() \
                == direct.columns.low.tolist()

    @given(
        spec=chain_spec(),
        as_of_offset=st.integers(min_value=0, max_value=3),
        pruning=st.booleans(),
    )
    @settings(max_examples=10, **_SETTINGS)
    def test_backends_agree_on_shadowed_answers(
        self, tmp_path_factory, process_backend, spec, as_of_offset, pruning
    ):
        root = tmp_path_factory.mktemp("prop") / f"c{next(_counter)}"
        catalog = _build(root, spec)
        ks = [0] + [r["knowledge"] for r in spec["revisions"]]
        k = ks[as_of_offset % len(ks)]
        statement = (
            f"SELECT exceedance(21.0) FROM CATALOG '{catalog.root}'"
            f" AS OF {k}"
        )
        payloads = [
            CatalogQueryService(
                catalog, backend=backend, pruning=pruning
            ).execute(statement).json()
            for backend in ("sequential", process_backend)
        ]
        assert payloads[0] == payloads[1]


class TestProcessBackendParity:
    """The process backend is spawn-started: one example, not a sweep."""

    def test_process_backend_bit_identical(self, tmp_path):
        spec = {
            "length": 10,
            "base_low": 20.0,
            "revisions": [
                {"start": 2, "span": 4, "knowledge": 1, "shift": 8},
                {"start": 4, "span": 3, "knowledge": 3, "shift": -2},
            ],
        }
        catalog = _build(tmp_path / "cat", spec)
        for suffix in ("", " AS OF 0", " AS OF 1", " AS OF 3"):
            statement = (
                f"SELECT exceedance(21.0) FROM CATALOG "
                f"'{catalog.root}'{suffix}"
            )
            sequential = CatalogQueryService(
                catalog, backend="sequential"
            ).execute(statement).json()
            process = CatalogQueryService(
                catalog, backend="process", max_workers=2
            ).execute(statement).json()
            assert sequential == process, suffix
