"""Binary persistence: round trips, schema versioning and damaged files.

Catalog segments are ``.seg`` files; ``.npz`` is the export format and a
legacy segment format, and ``.v2`` directories are legacy segments.  The
``.seg`` reader is held to a committed byte pin, to ``np.load``'s dtypes
over generated columns, and to a named error for every malformed file.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.data.synthetic import campus_temperature
from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.exceptions import (
    DataError,
    QueryError,
    SchemaVersionError,
    StoreError,
)
from repro.metrics.base import GAUSSIAN, UNIFORM, DensitySeries
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
    load_view_columns_npz,
    save_view_columns,
    save_view_columns_npz,
)
from repro.view.builder import ViewBuilder
from repro.view.omega import OmegaGrid
from view_helpers import view_from_rows


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
        original = view_from_rows("rooms", tuples)
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
        empty = view_from_rows("empty", [])
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

    def test_float_times_are_refused_not_truncated(self, view, tmp_path):
        # np.savez keeps whatever dtype it is handed: an export written by
        # another tool can carry float times, which once loaded as [3, 4].
        path = tmp_path / "float-times.npz"
        np.savez(
            path,
            schema=np.int64(SCHEMA_VERSION),
            kind=np.str_("view_columns"),
            t=np.array([3.5, 4.9]),
            low=np.array([0.0, 0.0]),
            high=np.array([1.0, 1.0]),
            probability=np.array([0.5, 0.5]),
            label_code=np.array([0, 0], dtype=np.int64),
            labels=np.array([""]),
        )
        with pytest.raises(DataError, match="'t'"):
            load_view_npz(path)

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
        assert loaded[0].family_code == GAUSSIAN
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
            assert loaded[index].variance == variance[index]

    def test_mixed_family_round_trip(self, tmp_path):
        forecasts = DensitySeries.from_columns(
            [0, 1], [1.0, 2.0], [2.0, np.sqrt(4.0 / 12.0)], [-5.0, 1.0],
            [7.0, 3.0], family=[GAUSSIAN, UNIFORM], variance=[4.0, 4.0 / 12.0],
        )
        path = tmp_path / "mixed.npz"
        save_density_series_npz(forecasts, path)
        loaded = load_density_series_npz(path)
        assert loaded[0].family_code == GAUSSIAN
        assert loaded[1].family_code == UNIFORM
        assert loaded[1].lower == 1.0
        assert loaded[1].upper == 3.0

    def test_non_integral_family_codes_are_refused(self, tmp_path):
        """A ``family_code`` of 1.5 must not load as a Uniform row."""
        path = tmp_path / "codes.npz"
        np.savez(
            path, schema=np.int64(SCHEMA_VERSION),
            kind=np.str_("density_columns"), t=np.array([0, 1]),
            mean=np.array([1.0, 2.0]), volatility=np.array([2.0, 0.5]),
            lower=np.array([-5.0, 1.0]), upper=np.array([7.0, 3.0]),
            family_code=np.array([0.0, 1.5]),
        )
        with pytest.raises(DataError, match="family_code"):
            load_density_series_npz(path)

    def test_unknown_family_codes_are_refused(self, tmp_path):
        path = tmp_path / "codes.npz"
        np.savez(
            path, schema=np.int64(SCHEMA_VERSION),
            kind=np.str_("density_columns"), t=np.array([0, 1]),
            mean=np.array([1.0, 2.0]), volatility=np.array([2.0, 0.5]),
            lower=np.array([-5.0, 1.0]), upper=np.array([7.0, 3.0]),
            family_code=np.array([0, 2], dtype=np.int8),
        )
        with pytest.raises(DataError, match="codes.npz"):
            load_density_series_npz(path)


def _npz_member_data(path, member: str) -> tuple[int, int]:
    """(offset, size) of ``member``'s stored bytes inside the archive."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = path.read_bytes()
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len, info.compress_size


def _flip_last_byte(path, member: str) -> None:
    """Corrupt one data byte of ``member``: its header stays, its CRC breaks."""
    offset, size = _npz_member_data(path, member)
    raw = bytearray(path.read_bytes())
    raw[offset + size - 1] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestDamagedNpz:
    """A damaged ``.npz`` raises a named error for every member read."""

    def _save(self, view, path):
        cols = view.columns
        save_view_columns_npz(
            path, t=cols.t, low=cols.low, high=cols.high,
            probability=cols.probability, label_code=cols.label_code,
            labels=cols.labels,
        )
        return path

    def test_bad_crc_in_a_column_is_a_data_error(self, view, tmp_path):
        path = self._save(view, tmp_path / "seg-00000001.npz")
        _flip_last_byte(path, "low.npy")
        with pytest.raises(DataError, match="seg-00000001.npz"):
            load_view_columns(path)

    def test_missing_column_is_a_data_error(self, view, tmp_path):
        path = tmp_path / "seg-00000001.npz"
        cols = view.columns
        np.savez(
            path, schema=np.int64(SCHEMA_VERSION),
            kind=np.str_("view_columns"), t=cols.t, high=cols.high,
            probability=cols.probability, label_code=cols.label_code,
            labels=np.array(cols.labels),
        )
        with pytest.raises(DataError, match="seg-00000001.npz.*low"):
            load_view_columns(path)

    def test_bad_npy_header_is_a_data_error(self, view, tmp_path):
        source = self._save(view, tmp_path / "good.npz")
        path = tmp_path / "seg-00000001.npz"
        with zipfile.ZipFile(source) as good, zipfile.ZipFile(path, "w") as bad:
            for info in good.infolist():
                data = good.read(info)
                if info.filename == "high.npy":
                    data = b"\x93NUMPY\x01\x00\x10\x00{'descr': <f8' }\n"
                bad.writestr(info, data)
        with pytest.raises(DataError, match="seg-00000001.npz"):
            load_view_columns(path)

    def test_damaged_density_series_is_a_data_error(self, tmp_path):
        forecasts = VariableThresholdingMetric().run(
            campus_temperature(80, rng=0), 40
        )
        path = tmp_path / "dens.npz"
        save_density_series_npz(forecasts, path)
        _flip_last_byte(path, "mean.npy")
        with pytest.raises(DataError, match="dens.npz"):
            load_density_series_npz(path)
        np.savez(
            path, schema=np.int64(SCHEMA_VERSION),
            kind=np.str_("density_columns"), t=forecasts.times,
            family_code=np.zeros(len(forecasts), dtype=np.int8),
        )
        with pytest.raises(DataError, match="mean"):
            load_density_series_npz(path)

    def test_damaged_catalog_segment_fails_the_statement_by_name(
        self, tmp_path, old_npz_catalog
    ):
        # An .npz segment an older build wrote, with one bad CRC: the
        # statement fails with a taxonomy error naming the series.
        root = old_npz_catalog(tmp_path / "catalog")
        _flip_last_byte(root / "a" / "seg-00000002.npz", "probability.npy")
        with repro.connect(root) as conn:
            with pytest.raises(QueryError, match="series 'a'") as info:
                conn.execute(f"SELECT expected_value FROM CATALOG '{root}'")
        assert "seg-00000002.npz" in str(info.value)


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

    def test_dispatch_by_suffix(
        self, view, tmp_path, legacy_v2_segment, legacy_npz_segment
    ):
        v2 = tmp_path / "seg-00000001.v2"
        npz = tmp_path / "seg-00000002.npz"
        seg = tmp_path / "seg-00000003.seg"
        legacy_v2_segment(v2, self._columns(view))
        legacy_npz_segment(npz, self._columns(view))
        save_view_columns(seg, **self._columns(view))
        assert v2.is_dir() and npz.is_file() and seg.is_file()
        a = load_view_columns(v2)
        for other in (load_view_columns(npz), load_view_columns(seg)):
            for key in (
                "t", "low", "high", "probability", "label_code", "labels"
            ):
                assert np.array_equal(a[key], other[key])
                assert a[key].dtype == other[key].dtype

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


# ----------------------------------------------------------------------
# The ``.seg`` segment file.
# ----------------------------------------------------------------------
#: The ``.seg`` header, spelled out here so the tests pin the format
#: rather than read it back from the module under test.
HEADER = struct.Struct("<8sIIqq")
MAGIC = b"REPROSEG"
COLUMNS = ("t", "low", "high", "probability", "label_code")

#: sha256 of :func:`_pinned_columns` written by ``save_view_columns``.
SEGMENT_SHA256 = "8e0ff382e305a1328884e26170f799b76ed14e195141ab9c445a5ab64747f5de"


def _pinned_columns() -> dict:
    return dict(
        t=np.array([0, 0, 1, 2], dtype=np.int64),
        low=np.array([0.0, 0.5, 0.0, -1.25]),
        high=np.array([0.5, 1.0, 1.0, 3.5]),
        probability=np.array([0.25, 0.75, 1.0, 0.1]),
        label_code=np.array([0, 1, 0, 2], dtype=np.int64),
        labels=("lo", "hi", "météo"),
    )


class TestSegmentFile:
    def test_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "seg-00000001.seg"
        save_view_columns(path, **_pinned_columns())
        raw = path.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == SEGMENT_SHA256
        magic, schema, kind, rows, label_bytes = HEADER.unpack_from(raw)
        assert (magic, schema, kind, rows) == (MAGIC, SCHEMA_VERSION, 1, 4)
        assert len(raw) == HEADER.size + 40 * rows + label_bytes
        assert json.loads(raw[-label_bytes:].decode()) == ["lo", "hi", "météo"]

    def test_one_file_whatever_the_suffix(self, tmp_path):
        # The e2e harness writes a segment under an .npz name and stat()s it.
        path = tmp_path / "shadow-segment.npz"
        save_view_columns(path, **_pinned_columns())
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes()[:8] == MAGIC

    def test_unequal_columns_are_rejected(self, tmp_path):
        columns = _pinned_columns()
        columns["low"] = columns["low"][:3]
        with pytest.raises(DataError, match="one length"):
            save_view_columns(tmp_path / "seg-00000001.seg", **columns)
        assert list(tmp_path.iterdir()) == []


def _truncate(cut):
    return lambda raw: raw[:cut]


def _header(**fields):
    def edit(raw):
        values = dict(zip(
            ("magic", "schema", "kind", "rows", "label_bytes"),
            HEADER.unpack_from(raw),
        ))
        values.update(fields)
        return HEADER.pack(*values.values()) + raw[HEADER.size:]
    return edit


def _labels(block):
    def edit(raw):
        label_bytes = HEADER.unpack_from(raw)[-1]
        head = raw[:len(raw) - label_bytes]
        return _header(label_bytes=len(block))(head) + block
    return edit


#: 4 rows: the header is bytes [0, 32), column i is [32 + 32 i, 64 + 32 i),
#: the label block starts at 192.
_FAULTS = {
    "empty": (_truncate(0), DataError),
    "inside-header": (_truncate(20), DataError),
    **{
        f"inside-{name}": (_truncate(HEADER.size + 32 * index + 12), DataError)
        for index, name in enumerate(COLUMNS)
    },
    "inside-labels": (lambda raw: raw[:-3], DataError),
    "trailing-bytes": (lambda raw: raw + b"\0" * 8, DataError),
    "bad-magic": (_header(magic=b"NOTASEG!"), DataError),
    "foreign-schema": (_header(schema=SCHEMA_VERSION + 1), SchemaVersionError),
    "unknown-kind": (_header(kind=9), DataError),
    "negative-rows": (_header(rows=-1), DataError),
    "oversized-rows": (_header(rows=1 << 60), DataError),
    "negative-label-bytes": (_header(label_bytes=-5), DataError),
    "labels-not-json": (_labels(b"[lo, hi]"), DataError),
    "labels-not-utf8": (_labels(b'["\xff\xfe"]'), DataError),
    "labels-not-strings": (_labels(b'{"lo": 1}'), DataError),
}


class TestSegmentFaults:
    """Every malformed ``.seg`` file raises a named error, never a raw one."""

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_malformed_file_raises_a_named_error(self, tmp_path, fault):
        damage, error = _FAULTS[fault]
        path = tmp_path / "seg-00000001.seg"
        save_view_columns(path, **_pinned_columns())
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(error, match="seg-00000001.seg"):
            load_view_columns(path)

    def test_missing_file_is_a_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="no such store file"):
            load_view_columns(tmp_path / "seg-00000001.seg")

    def test_the_fault_cuts_land_where_they_say(self, tmp_path):
        path = tmp_path / "seg-00000001.seg"
        save_view_columns(path, **_pinned_columns())
        raw = path.read_bytes()
        assert HEADER.size == 32
        assert raw[HEADER.size:HEADER.size + 32] == np.array(
            [0, 0, 1, 2], dtype="<i8"
        ).tobytes()
        assert raw[HEADER.size + 5 * 32:].startswith(b'["lo",')


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)
_ROUND_TRIP_LABELS = st.one_of(
    st.just(()),
    st.just(("",)),
    st.lists(st.text(max_size=6), min_size=1, max_size=4).map(tuple),
)


@st.composite
def segment_columns(draw):
    """Arbitrary same-length columns (any bits) and a label pool."""
    rows = draw(st.integers(min_value=0, max_value=12))

    def column(strategy):
        return np.array(draw(st.lists(strategy, min_size=rows, max_size=rows)))

    labels = draw(_ROUND_TRIP_LABELS)
    return dict(
        t=column(st.integers(-(1 << 63), (1 << 63) - 1)).astype(np.int64),
        low=column(_ANY_FLOAT).astype(float),
        high=column(_ANY_FLOAT).astype(float),
        probability=column(_ANY_FLOAT).astype(float),
        label_code=column(st.integers(0, 5)).astype(np.int64),
        labels=labels,
    )


class TestSegmentRoundTrip:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(columns=segment_columns())
    def test_bit_exact_with_np_load_dtypes(self, tmp_path, columns):
        seg = tmp_path / "seg-00000001.seg"
        npz = tmp_path / "export.npz"
        # The synopsis is computed from finite data in practice; these
        # columns are arbitrary bits, so only the file round trip counts.
        with np.errstate(all="ignore"):
            save_view_columns(seg, **columns)
        save_view_columns_npz(npz, **columns)
        loaded = load_view_columns(seg)
        reference = load_view_columns_npz(npz)
        assert sorted(loaded) == sorted(reference)
        for key in COLUMNS:
            assert loaded[key].dtype == reference[key].dtype
            assert loaded[key].tobytes() == reference[key].tobytes()
            assert loaded[key].tobytes() == np.ascontiguousarray(
                columns[key], dtype=loaded[key].dtype
            ).tobytes()
            assert loaded[key].flags.writeable
        assert loaded["labels"].dtype == reference["labels"].dtype
        assert loaded["labels"].tolist() == reference["labels"].tolist()


class TestLegacyNpzHelper:
    def test_rewrites_old_segments_byte_for_byte(
        self, tmp_path, old_npz_catalog, legacy_npz_segment
    ):
        # The conftest writer against real old bytes: same members, same
        # bytes in each, same file length (zip timestamps aside).
        old = old_npz_catalog(tmp_path / "old")
        segments = sorted(old.glob("*/seg-*.npz"))
        assert segments
        for segment in segments:
            copy = tmp_path / segment.name
            legacy_npz_segment(copy, load_view_columns(segment))
            with zipfile.ZipFile(segment) as a, zipfile.ZipFile(copy) as b:
                assert a.namelist() == b.namelist()
                for name in a.namelist():
                    assert a.read(name) == b.read(name)
            assert copy.stat().st_size == segment.stat().st_size


def test_concurrent_cold_loads_agree_under_a_short_switch_interval(
    tmp_path, concurrent_callers
):
    # np.load's ast-parsed .npy headers raced under this interval
    # (SystemError: AST constructor recursion depth mismatch); a .seg
    # read parses no header.  Equality only, no wall clock.
    rng = np.random.default_rng(3)
    paths = []
    for index in range(24):
        rows = 40 + index
        path = tmp_path / f"seg-{index + 1:08d}.seg"
        save_view_columns(
            path,
            t=np.arange(rows) // 2,
            low=rng.normal(size=rows),
            high=rng.normal(size=rows) + 5.0,
            probability=np.full(rows, 0.5),
            label_code=np.zeros(rows, dtype=np.int64),
            labels=(f"segment {index}",),
        )
        paths.append(path)

    def load_all(_index):
        return [
            load_view_columns(path) for _ in range(5) for path in paths
        ]

    expected = load_all(0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcomes = concurrent_callers(load_all, callers=4)
    finally:
        sys.setswitchinterval(interval)
    for outcome in outcomes:
        assert isinstance(outcome, list), outcome
        for got, want in zip(outcome, expected):
            for key in (*COLUMNS, "labels"):
                assert np.array_equal(got[key], want[key])
