"""Binary (.npz) persistence: round trips and schema versioning."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.synthetic import campus_temperature
from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.distributions.gaussian import Gaussian
from repro.distributions.histogram import HistogramDistribution
from repro.distributions.uniform import Uniform
from repro.exceptions import DataError, SchemaVersionError, StoreError
from repro.metrics.base import DensityForecast, DensitySeries
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.pipeline import create_probabilistic_view
from repro.store import (
    load_density_series_npz,
    load_view_npz,
    save_density_series_npz,
    save_view_npz,
)
from repro.store.binary import (
    SCHEMA_VERSION,
    load_view_columns,
    save_view_columns,
)
from repro.view.builder import ViewBuilder
from repro.view.omega import OmegaGrid


@pytest.fixture(scope="module")
def view() -> ProbabilisticView:
    return create_probabilistic_view(
        campus_temperature(160, rng=2),
        VariableThresholdingMetric(),
        H=40,
        grid=OmegaGrid(delta=0.5, n=6),
        view_name="campus_view",
    )


def _assert_same_columns(a: ProbabilisticView, b: ProbabilisticView) -> None:
    ca, cb = a.columns, b.columns
    assert np.array_equal(ca.t, cb.t)
    assert np.array_equal(ca.low, cb.low)
    assert np.array_equal(ca.high, cb.high)
    assert np.array_equal(ca.probability, cb.probability)
    decoded_a = [ca.labels[code] for code in ca.label_code]
    decoded_b = [cb.labels[code] for code in cb.label_code]
    assert decoded_a == decoded_b


class TestViewNpz:
    def test_round_trip_is_exact(self, view, tmp_path):
        path = tmp_path / "view.npz"
        save_view_npz(view, path)
        loaded = load_view_npz(path)
        _assert_same_columns(view, loaded)
        assert loaded.name == "view"  # Defaults to the file stem.
        assert load_view_npz(path, name="other").name == "other"

    def test_irregular_labels_survive(self, tmp_path):
        tuples = [
            ProbTuple(t=1, low=0.0, high=2.0, probability=0.5, label="room 1"),
            ProbTuple(t=1, low=2.0, high=4.0, probability=0.5, label="room 2"),
            ProbTuple(t=2, low=0.0, high=2.0, probability=1.0, label="room 1"),
        ]
        original = ProbabilisticView("rooms", tuples)
        path = tmp_path / "rooms.npz"
        save_view_npz(original, path)
        loaded = load_view_npz(path)
        assert [tup.label for tup in loaded] == ["room 1", "room 2", "room 1"]

    def test_suffixless_path_round_trips(self, view, tmp_path):
        """np.savez's silent '.npz' suffixing must not break the loaders."""
        path = tmp_path / "plain"
        save_view_npz(view, path)
        assert path.exists()
        assert len(load_view_npz(path)) == len(view)

    def test_empty_view_round_trips(self, tmp_path):
        empty = ProbabilisticView("empty", [])
        path = tmp_path / "empty.npz"
        save_view_npz(empty, path)
        assert len(load_view_npz(path)) == 0

    def test_schema_mismatch_rejected(self, view, tmp_path):
        path = tmp_path / "future.npz"
        cols = view.columns
        np.savez(
            path,
            schema=np.int64(SCHEMA_VERSION + 1),
            kind=np.str_("view_columns"),
            t=cols.t, low=cols.low, high=cols.high,
            probability=cols.probability, label_code=cols.label_code,
            labels=np.array(cols.labels),
        )
        with pytest.raises(SchemaVersionError) as info:
            load_view_npz(path)
        assert info.value.found == SCHEMA_VERSION + 1
        assert info.value.expected == SCHEMA_VERSION

    def test_wrong_kind_rejected(self, view, tmp_path):
        path = tmp_path / "density.npz"
        forecasts = VariableThresholdingMetric().run(
            campus_temperature(80, rng=0), 40
        )
        save_density_series_npz(forecasts, path)
        with pytest.raises(DataError):
            load_view_npz(path)

    def test_missing_file_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            load_view_npz(tmp_path / "nope.npz")

    def test_corrupt_probabilities_fail_validation(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            schema=np.int64(SCHEMA_VERSION),
            kind=np.str_("view_columns"),
            t=np.array([0], dtype=np.int64),
            low=np.array([0.0]),
            high=np.array([1.0]),
            probability=np.array([1.5]),
            label_code=np.array([0], dtype=np.int64),
            labels=np.array([""]),
        )
        with pytest.raises(Exception):
            load_view_npz(path)


class TestDensitySeriesNpz:
    def test_gaussian_round_trip(self, tmp_path):
        forecasts = VariableThresholdingMetric().run(
            campus_temperature(120, rng=1), 40
        )
        path = tmp_path / "dens.npz"
        save_density_series_npz(forecasts, path)
        loaded = load_density_series_npz(path)
        assert np.array_equal(loaded.times, forecasts.times)
        assert np.array_equal(loaded.means, forecasts.means)
        assert np.array_equal(loaded.volatilities, forecasts.volatilities)
        assert np.array_equal(loaded.lowers, forecasts.lowers)
        assert np.array_equal(loaded.uppers, forecasts.uppers)
        assert isinstance(loaded[0].distribution, Gaussian)
        # A view built from the stored densities equals one built from
        # the live forecasts.
        builder = ViewBuilder(OmegaGrid(delta=0.5, n=6))
        assert np.array_equal(
            builder.build_matrix(loaded).probabilities,
            builder.build_matrix(forecasts).probabilities,
        )

    def test_exact_variance_column_round_trips(self, tmp_path):
        """Gaussians must not lose a ulp to the sqrt/square round trip."""
        t = np.arange(4, dtype=np.int64)
        mean = np.zeros(4)
        variance = np.array([0.3, 0.07, 1.9, 2.2])
        volatility = np.sqrt(variance)
        series = DensitySeries.from_columns(
            t, mean, volatility, mean - 3 * volatility, mean + 3 * volatility,
            family="gaussian", variance=variance,
        )
        path = tmp_path / "var.npz"
        save_density_series_npz(series, path)
        loaded = load_density_series_npz(path)
        assert np.array_equal(loaded.variances, variance)
        for index in range(4):
            assert loaded[index].distribution.sigma2 == variance[index]

    def test_mixed_family_round_trip(self, tmp_path):
        forecasts = DensitySeries([
            DensityForecast(t=0, mean=1.0, distribution=Gaussian(1.0, 4.0),
                            lower=-5.0, upper=7.0, volatility=2.0),
            DensityForecast(t=1, mean=2.0, distribution=Uniform(1.0, 3.0),
                            lower=1.0, upper=3.0,
                            volatility=Uniform(1.0, 3.0).std()),
        ])
        path = tmp_path / "mixed.npz"
        save_density_series_npz(forecasts, path)
        loaded = load_density_series_npz(path)
        assert isinstance(loaded[0].distribution, Gaussian)
        assert isinstance(loaded[1].distribution, Uniform)
        assert loaded[1].distribution.low == 1.0
        assert loaded[1].distribution.high == 3.0

    def test_unstorable_family_rejected(self, tmp_path):
        histogram = HistogramDistribution(
            edges=np.array([0.0, 1.0, 2.0]), counts=np.array([1.0, 1.0])
        )
        forecasts = DensitySeries([
            DensityForecast(t=0, mean=1.0, distribution=histogram,
                            lower=0.0, upper=2.0, volatility=histogram.std()),
        ])
        with pytest.raises(StoreError):
            save_density_series_npz(forecasts, tmp_path / "hist.npz")


class TestSegmentLayoutV2:
    """Legacy ``.v2`` segment directories: nothing writes them, reads work."""

    def _columns(self, view):
        cols = view.columns
        return dict(
            t=cols.t, low=cols.low, high=cols.high,
            probability=cols.probability, label_code=cols.label_code,
            labels=cols.labels,
        )

    def test_round_trip_is_exact(self, view, tmp_path, legacy_v2_segment):
        path = tmp_path / "seg-00000001.v2"
        legacy_v2_segment(path, self._columns(view))
        loaded = load_view_columns(path)
        cols = view.columns
        assert np.array_equal(loaded["t"], cols.t)
        assert np.array_equal(loaded["low"], cols.low)
        assert np.array_equal(loaded["high"], cols.high)
        assert np.array_equal(loaded["probability"], cols.probability)
        assert np.array_equal(loaded["label_code"], cols.label_code)
        assert tuple(str(s) for s in loaded["labels"]) == cols.labels

    def test_dispatch_by_suffix(self, view, tmp_path, legacy_v2_segment):
        v2 = tmp_path / "seg-00000001.v2"
        npz = tmp_path / "seg-00000001.npz"
        legacy_v2_segment(v2, self._columns(view))
        save_view_columns(npz, **self._columns(view))
        assert v2.is_dir() and npz.is_file()
        a = load_view_columns(v2)
        b = load_view_columns(npz)
        for key in ("t", "low", "high", "probability", "label_code", "labels"):
            assert np.array_equal(a[key], b[key])

    def test_schema_version_enforced(self, view, tmp_path, legacy_v2_segment):
        path = tmp_path / "seg-00000001.v2"
        legacy_v2_segment(path, self._columns(view))
        meta_path = path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema_version"] = SCHEMA_VERSION + 7
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SchemaVersionError):
            load_view_columns(path)

    def test_missing_column_and_meta_fail_loudly(
        self, view, tmp_path, legacy_v2_segment
    ):
        path = tmp_path / "seg-00000001.v2"
        legacy_v2_segment(path, self._columns(view))
        (path / "low.npy").unlink()
        with pytest.raises(DataError, match="low"):
            load_view_columns(path)
        with pytest.raises(StoreError, match="no such store file"):
            load_view_columns(tmp_path / "seg-00000099.v2")
        (path / "meta.json").unlink()
        with pytest.raises(StoreError, match="no such store file"):
            load_view_columns(path)
        (path / "meta.json").write_text("{not json")
        with pytest.raises(DataError):
            load_view_columns(path)
