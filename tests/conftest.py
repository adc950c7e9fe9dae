"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.data.synthetic import campus_temperature, car_gps
from repro.metrics.base import DensitySeries
from repro.store import Catalog
from repro.store.binary import SCHEMA_VERSION, load_view_columns
from repro.timeseries.series import TimeSeries
from repro.view.omega import OmegaGrid

_SPEC = importlib.util.spec_from_file_location(
    "catalog_npz", Path(__file__).parent / "fixtures" / "catalog_npz.py"
)
_CATALOG_NPZ = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_CATALOG_NPZ)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator; tests that need randomness share this seed."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def campus_series() -> TimeSeries:
    """A small campus-data slice shared (read-only) across the session."""
    return campus_temperature(600, rng=0)


@pytest.fixture(scope="session")
def car_series() -> TimeSeries:
    """A small car-data slice shared (read-only) across the session."""
    return car_gps(600, rng=0)


@pytest.fixture
def simple_series() -> TimeSeries:
    """A short deterministic trend + wiggle series for metric tests."""
    t = np.arange(120, dtype=float)
    values = 10.0 + 0.05 * t + np.sin(t / 5.0)
    return TimeSeries(values, name="simple")


@pytest.fixture
def gaussian_forecasts() -> DensitySeries:
    """Five hand-built Gaussian forecasts with varied volatility."""
    mean = np.array([10.0, 10.5, 11.0, 10.8, 10.2])
    sigma = np.array([0.5, 0.8, 1.2, 0.6, 2.0])
    return DensitySeries.from_columns(
        np.arange(60, 65),
        mean,
        sigma,
        mean - 3 * sigma,
        mean + 3 * sigma,
        variance=sigma**2,
    )


@pytest.fixture(scope="module")
def catalog_root(tmp_path_factory):
    """A six-series catalog shared by one module's read-only tests."""
    root = tmp_path_factory.mktemp("catalog-root") / "cat"
    catalog = Catalog(root)
    rng = np.random.default_rng(11)
    for index in range(6):
        series_id = f"sensor-{index}"
        catalog.create_series(
            series_id,
            metric="variable_threshold",
            H=16,
            grid=OmegaGrid(delta=0.5, n=4),
        )
        values = 20.0 + 0.1 * index + np.cumsum(
            rng.normal(0.0, 0.05, size=40)
        )
        catalog.append(series_id, values)
    return root


def _write_legacy_v2_segment(path, columns) -> None:
    """Write ``columns`` as a ``.v2`` segment directory.

    Byte for byte what the ``.v2`` writer of older builds left: one raw
    ``.npy`` per column plus a ``meta.json``.  Nothing in ``repro``
    writes this format any more; the store only reads it.
    """
    path.mkdir()
    for column in ("t", "low", "high", "probability", "label_code"):
        np.save(path / f"{column}.npy", columns[column])
    meta = {
        "schema_version": SCHEMA_VERSION,
        "kind": "view_columns",
        "layout": 2,
        "labels": [str(label) for label in columns["labels"]] or [""],
    }
    (path / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


def _write_legacy_npz_segment(path, columns) -> None:
    """Write ``columns`` as an ``.npz`` segment.

    Byte for byte what the ``.npz`` segment writer of older builds left
    (up to the zip members' timestamps): one ``np.savez`` through an open
    handle of the schema and kind scalars, the five columns and the label
    pool.  Nothing in ``repro`` writes segments this way any more; the
    store only reads them.
    """
    labels = [str(label) for label in columns["labels"]]
    with open(path, "wb") as handle:
        np.savez(
            handle,
            schema=np.int64(SCHEMA_VERSION),
            kind=np.str_("view_columns"),
            t=np.ascontiguousarray(columns["t"], dtype=np.int64),
            low=np.ascontiguousarray(columns["low"], dtype=float),
            high=np.ascontiguousarray(columns["high"], dtype=float),
            probability=np.ascontiguousarray(
                columns["probability"], dtype=float
            ),
            label_code=np.ascontiguousarray(
                columns["label_code"], dtype=np.int64
            ),
            labels=np.array(labels or [""], dtype=np.str_),
        )


#: A segment in the format this build writes; legacy rewrites key on it.
_CURRENT_SEGMENT = re.compile(r"^(seg-\d{8})\.seg$")


def _rewrite_segments(series_dir, suffix, write, layout=None) -> None:
    """Rewrite a series' current-format segments in a legacy format, in place.

    Segments already in a legacy format stay as they are, so rewriting
    after further appends builds series that mix formats.  ``series.json``
    follows the renames; with ``layout`` it and ``catalog.json`` are also
    tagged the way the builds that wrote ``.v2`` recorded it.
    """
    meta_path = series_dir / "series.json"
    meta = json.loads(meta_path.read_text())
    renamed = {}
    for name in meta["segments"]:
        match = _CURRENT_SEGMENT.match(name)
        if match is None:
            continue
        legacy = renamed[name] = match.group(1) + suffix
        write(series_dir / legacy, load_view_columns(series_dir / name))
        (series_dir / name).unlink()
    meta["segments"] = [renamed.get(name, name) for name in meta["segments"]]
    meta["synopses"] = {
        renamed.get(name, name): synopsis
        for name, synopsis in meta.get("synopses", {}).items()
    }
    for record in meta.get("revisions", []):
        record["segment"] = renamed.get(record["segment"], record["segment"])
    if layout is not None:
        meta["layout"] = layout
        manifest_path = series_dir.parent / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["segment_layout"] = layout
        manifest_path.write_text(json.dumps(manifest))
    meta_path.write_text(json.dumps(meta))


def _rewrite_as_legacy_v2(series_dir) -> None:
    """Turn a series' ``.seg`` segments into ``.v2`` directories, in place.

    The series then reads as if a build that wrote ``.v2`` wrote it;
    appends after this write ``.seg`` again.
    """
    _rewrite_segments(series_dir, ".v2", _write_legacy_v2_segment, "v2")


def _rewrite_as_legacy_npz(series_dir) -> None:
    """Turn a series' ``.seg`` segments into ``.npz`` files, in place."""
    _rewrite_segments(series_dir, ".npz", _write_legacy_npz_segment)


@pytest.fixture(scope="session")
def legacy_v2_segment():
    """``legacy_v2_segment(path, columns)``: hand-write one ``.v2`` segment."""
    return _write_legacy_v2_segment


@pytest.fixture(scope="session")
def legacy_v2():
    """``legacy_v2(series_dir)``: rewrite a series as ``.v2`` segments."""
    return _rewrite_as_legacy_v2


@pytest.fixture(scope="session")
def legacy_npz_segment():
    """``legacy_npz_segment(path, columns)``: hand-write one ``.npz`` segment."""
    return _write_legacy_npz_segment


@pytest.fixture(scope="session")
def legacy_npz():
    """``legacy_npz(series_dir)``: rewrite a series as ``.npz`` segments."""
    return _rewrite_as_legacy_npz


@pytest.fixture(scope="session")
def old_npz_catalog():
    """``old_npz_catalog(destination)``: copy the committed old catalog there.

    ``tests/fixtures/catalog-npz`` is a catalog an ``.npz``-writing build
    wrote (see ``tests/fixtures/catalog_npz.py``); tests damage or append
    to the copy, never the original.
    """
    return _CATALOG_NPZ.copy_fixture


@pytest.fixture
def concurrent_callers():
    """Run ``fn(index)`` on N caller threads at once; outcomes by index.

    How a query server drives one shared service: concurrency comes from
    the callers, never from inside a statement.  The threads leave a
    barrier together, so they race on whatever state ``fn`` shares; an
    exception is returned as that caller's outcome instead of being lost
    with its thread.  Tests that shorten the switch interval must load
    only ``.seg`` segments: a shortened interval makes concurrent
    ``np.load`` header parsing (``ast.literal_eval``) trip CPython 3.11's
    interpreter-wide AST recursion counter (``SystemError: AST
    constructor recursion depth mismatch``).  That race is the
    interpreter's, not one of this repo's locks, and it remains for
    legacy ``.npz`` / ``.v2`` reads; a ``.seg`` read parses no header.
    """

    timeout = 60.0  # Bounds every wait: a hang fails, never blocks.

    def run(fn, callers: int) -> list:
        barrier = threading.Barrier(callers)
        outcomes: list = [None] * callers

        def call(index: int) -> None:
            try:
                barrier.wait(timeout)
                outcomes[index] = fn(index)
            except BaseException as exc:  # noqa: BLE001 - reported below.
                outcomes[index] = exc

        threads = [
            threading.Thread(target=call, args=(index,))
            for index in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
        assert not any(thread.is_alive() for thread in threads)
        return outcomes

    return run
