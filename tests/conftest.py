"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.data.synthetic import campus_temperature, car_gps
from repro.distributions.gaussian import Gaussian
from repro.metrics.base import DensityForecast, DensitySeries
from repro.store import Catalog
from repro.store.binary import SCHEMA_VERSION, load_view_columns
from repro.timeseries.series import TimeSeries
from repro.view.omega import OmegaGrid


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
    forecasts = []
    for index, (mean, sigma) in enumerate(
        [(10.0, 0.5), (10.5, 0.8), (11.0, 1.2), (10.8, 0.6), (10.2, 2.0)]
    ):
        forecasts.append(
            DensityForecast(
                t=60 + index,
                mean=mean,
                distribution=Gaussian(mean, sigma**2),
                lower=mean - 3 * sigma,
                upper=mean + 3 * sigma,
                volatility=sigma,
            )
        )
    return DensitySeries(forecasts)


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


def _rewrite_as_legacy_v2(series_dir) -> None:
    """Turn a series' segments into ``.v2`` directories, in place.

    ``series.json`` and ``catalog.json`` are renamed and tagged the way
    older builds recorded the layout, so the series reads as if such a
    build wrote it; appends after this write ``.npz`` again.
    """
    meta_path = series_dir / "series.json"
    meta = json.loads(meta_path.read_text())
    renamed = {}
    for name in meta["segments"]:
        legacy = renamed[name] = name.replace(".npz", ".v2")
        _write_legacy_v2_segment(
            series_dir / legacy, load_view_columns(series_dir / name)
        )
        (series_dir / name).unlink()
    meta["segments"] = [renamed[name] for name in meta["segments"]]
    meta["synopses"] = {
        renamed.get(name, name): synopsis
        for name, synopsis in meta.get("synopses", {}).items()
    }
    for record in meta.get("revisions", []):
        record["segment"] = renamed[record["segment"]]
    meta["layout"] = "v2"
    meta_path.write_text(json.dumps(meta))
    manifest_path = series_dir.parent / "catalog.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["segment_layout"] = "v2"
    manifest_path.write_text(json.dumps(manifest))


@pytest.fixture(scope="session")
def legacy_v2_segment():
    """``legacy_v2_segment(path, columns)``: hand-write one ``.v2`` segment."""
    return _write_legacy_v2_segment


@pytest.fixture(scope="session")
def legacy_v2():
    """``legacy_v2(series_dir)``: rewrite a series as ``.v2`` segments."""
    return _rewrite_as_legacy_v2


@pytest.fixture
def concurrent_callers():
    """Run ``fn(index)`` on N caller threads at once; outcomes by index.

    How a query server drives one shared service: concurrency comes from
    the callers, never from inside a statement.  The threads leave a
    barrier together, so they race on whatever state ``fn`` shares; an
    exception is returned as that caller's outcome instead of being lost
    with its thread.  The switch interval stays at its default: a
    shortened one makes concurrent ``np.load`` header parsing
    (``ast.literal_eval``) trip CPython 3.11's interpreter-wide AST
    recursion counter (``SystemError: AST constructor recursion depth
    mismatch``) — the interpreter's race, not one of this repo's locks.
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
