"""Property-based round-trip guarantees for the persistent store.

Three invariants the store's contract promises, checked over generated
inputs rather than a handful of fixtures:

* any valid probabilistic view survives ``save_view_npz`` →
  ``load_view_npz`` with bit-identical columns (float64 in, float64 out);
* any storable density series survives its ``.npz`` round trip the same
  way, for both families and with or without the exact-variance column;
* a catalog series' stored state is a pure function of the *values* fed,
  not of how the feed was partitioned into micro-batches — chunked
  ``Catalog.append`` splits produce bit-identical segments-concatenated
  columns, resume state, and tuple counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.prob_view import ProbabilisticView
from repro.metrics.base import DensitySeries
from repro.store import Catalog
from repro.store.binary import (
    load_density_series_npz,
    load_view_npz,
    save_density_series_npz,
    save_view_npz,
)
from repro.view.omega import OmegaGrid

# Every example writes real files; keep the per-example budget modest and
# silence the fixture-reuse health check (tmp_path is per-test, so examples
# share one directory — file names are uniquified below).
_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_finite = dict(allow_nan=False, allow_infinity=False, width=64)

_LABELS = st.text(
    alphabet="abλ μroom-0 ",
    min_size=0,
    max_size=8,
)


@st.composite
def view_columns(draw):
    """Parallel (t, low, high, probability, label) arrays of a valid view.

    Times may repeat (mutually exclusive alternatives), ranges are
    well-ordered, and each time's probability mass stays safely below 1.
    """
    group_count = draw(st.integers(min_value=0, max_value=5))
    t, low, high, probability, labels = [], [], [], [], []
    next_time = 0
    for _ in range(group_count):
        next_time += draw(st.integers(min_value=1, max_value=40))
        k = draw(st.integers(min_value=1, max_value=4))
        raw = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, **_finite),
                min_size=k, max_size=k,
            )
        )
        mass = draw(st.floats(min_value=0.0, max_value=0.98, **_finite))
        total = sum(raw)
        # A near-zero total would overflow the normalisation; such groups
        # simply carry (numerically) no mass.
        scale = mass / total if total > 1e-6 else 0.0
        base = draw(st.floats(min_value=-1e6, max_value=1e6, **_finite))
        for index in range(k):
            width = draw(st.floats(min_value=1e-3, max_value=1e3, **_finite))
            t.append(next_time)
            low.append(base)
            high.append(base + width)
            base += width
            probability.append(raw[index] * scale)
            labels.append(draw(_LABELS))
    return (
        np.array(t, dtype=np.int64),
        np.array(low, dtype=float),
        np.array(high, dtype=float),
        np.array(probability, dtype=float),
        labels,
    )


@st.composite
def density_columns(draw):
    """Columns of a storable (homogeneous-family) density series."""
    count = draw(st.integers(min_value=0, max_value=8))
    t = np.cumsum(
        np.array(
            draw(st.lists(st.integers(min_value=1, max_value=30),
                          min_size=count, max_size=count)),
            dtype=np.int64,
        )
    )
    mean = np.array(
        draw(st.lists(st.floats(min_value=-1e5, max_value=1e5, **_finite),
                      min_size=count, max_size=count))
    )
    sigma = np.array(
        draw(st.lists(st.floats(min_value=1e-6, max_value=1e3, **_finite),
                      min_size=count, max_size=count))
    )
    family = draw(st.sampled_from(["gaussian", "uniform"]))
    with_variance = family == "gaussian" and draw(st.booleans())
    variance = sigma**2 if with_variance else None
    return t, mean, sigma, mean - 3 * sigma, mean + 3 * sigma, family, variance


_counter = iter(range(10**9))


def _fresh_path(tmp_path, stem: str):
    return tmp_path / f"{stem}-{next(_counter)}.npz"


class TestViewRoundTrip:
    @settings(max_examples=40, **_SETTINGS)
    @given(columns=view_columns())
    def test_save_load_bit_identical(self, tmp_path, columns):
        t, low, high, probability, labels = columns
        view = ProbabilisticView.from_columns(
            "prop", t, low, high, probability, labels
        )
        path = _fresh_path(tmp_path, "view")
        save_view_npz(view, path)
        loaded = load_view_npz(path, name="prop")
        original, restored = view.columns, loaded.columns
        np.testing.assert_array_equal(restored.t, original.t)
        np.testing.assert_array_equal(restored.low, original.low)
        np.testing.assert_array_equal(restored.high, original.high)
        np.testing.assert_array_equal(
            restored.probability, original.probability
        )
        np.testing.assert_array_equal(
            restored.label_code, original.label_code
        )
        assert restored.labels == original.labels
        # Equality of derived per-tuple objects, not just raw columns.
        assert list(loaded) == list(view)


class TestDensityRoundTrip:
    @settings(max_examples=40, **_SETTINGS)
    @given(columns=density_columns())
    def test_save_load_bit_identical(self, tmp_path, columns):
        t, mean, sigma, lower, upper, family, variance = columns
        series = DensitySeries.from_columns(
            t, mean, sigma, lower, upper, family=family, variance=variance
        )
        path = _fresh_path(tmp_path, "density")
        save_density_series_npz(series, path)
        loaded = load_density_series_npz(path)
        np.testing.assert_array_equal(loaded.times, series.times)
        np.testing.assert_array_equal(loaded.means, series.means)
        np.testing.assert_array_equal(
            loaded.volatilities, series.volatilities
        )
        np.testing.assert_array_equal(loaded.lowers, series.lowers)
        np.testing.assert_array_equal(loaded.uppers, series.uppers)
        if variance is not None:
            np.testing.assert_array_equal(loaded.variances, series.variances)
        np.testing.assert_array_equal(loaded.family_codes, series.family_codes)


H = 8
GRID = OmegaGrid(delta=0.5, n=4)


@st.composite
def walk_and_partition(draw):
    """A value stream plus an arbitrary micro-batch partition of it."""
    length = draw(st.integers(min_value=H + 2, max_value=40))
    steps = draw(
        st.lists(st.floats(min_value=-0.5, max_value=0.5, **_finite),
                 min_size=length, max_size=length)
    )
    values = 20.0 + np.cumsum(np.array(steps))
    cuts, position = [], 0
    while position < length:
        size = draw(st.integers(min_value=1, max_value=length - position))
        cuts.append(size)
        position += size
    return values, cuts


class TestAppendPartitionInvariance:
    @settings(max_examples=15, **_SETTINGS)
    @given(data=walk_and_partition())
    def test_chunking_never_changes_stored_state(self, tmp_path, data):
        values, cuts = data
        tag = next(_counter)
        whole = Catalog(tmp_path / f"whole-{tag}")
        chunked = Catalog(tmp_path / f"chunked-{tag}")
        for catalog in (whole, chunked):
            catalog.create_series(
                "s", metric="variable_threshold", H=H, grid=GRID
            )
        whole.append("s", values)
        start = 0
        for size in cuts:
            chunked.append("s", values[start : start + size])
            start += size

        left, right = whole.series("s"), chunked.series("s")
        assert left.next_t == right.next_t == values.size
        assert left.tuple_count == right.tuple_count
        cols_left, cols_right = left.view().columns, right.view().columns
        np.testing.assert_array_equal(cols_right.t, cols_left.t)
        np.testing.assert_array_equal(cols_right.low, cols_left.low)
        np.testing.assert_array_equal(cols_right.high, cols_left.high)
        np.testing.assert_array_equal(
            cols_right.probability, cols_left.probability
        )
        assert cols_right.labels == cols_left.labels
        # Resume state is partition-independent too: both pipelines would
        # continue from the identical window.
        reopened_left = Catalog(whole.root).series("s")
        reopened_right = Catalog(chunked.root).series("s")
        np.testing.assert_array_equal(
            reopened_left._meta["window"], reopened_right._meta["window"]
        )


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
