"""Smoke + shape tests for the experiment harness at tiny scale.

Each experiment must return a well-formed table whose qualitative shape
matches the paper's claim; the full-size runs live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.data.errors import inject_errors
from repro.data.synthetic import campus_temperature
from repro.exceptions import InvalidParameterError
from repro.experiments import (
    get_scale,
    run_fig04,
    run_fig05,
    run_fig12,
    run_fig14a,
    run_fig14b,
    run_fig15,
    run_table02,
)
from repro.experiments.common import ExperimentTable, steps_for
from repro.experiments.fig13 import plain_garch_detection
from repro.experiments.fig14 import (
    PAPER_DELTA,
    PAPER_DISTANCE,
    PAPER_N,
    synthetic_density_series,
)
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.view.builder import ViewBuilder
from repro.view.omega import OmegaGrid

TINY = 0.03


class TestCommon:
    def test_scale_resolution_priority(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert get_scale() == 0.5
        assert get_scale(0.25) == 0.25
        monkeypatch.delenv("REPRO_SCALE")
        assert 0.0 < get_scale() <= 1.0

    def test_scale_domain(self):
        with pytest.raises(InvalidParameterError):
            get_scale(0.0)
        with pytest.raises(InvalidParameterError):
            get_scale(2.0)

    def test_steps_for(self):
        assert steps_for(1000, 100) == 10
        assert steps_for(5, 100) == 1
        with pytest.raises(InvalidParameterError):
            steps_for(100, 0)

    def test_table_add_row_arity_checked(self):
        table = ExperimentTable("X", "t", ["a", "b"])
        with pytest.raises(InvalidParameterError):
            table.add_row(1)

    def test_table_column_extraction(self):
        table = ExperimentTable("X", "t", ["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]
        with pytest.raises(InvalidParameterError):
            table.column("c")

    def test_render_contains_title_and_notes(self):
        table = ExperimentTable("Fig. X", "demo", ["a"], notes="hello")
        table.add_row(1)
        text = table.render()
        assert "Fig. X" in text and "hello" in text


class TestTable02:
    def test_two_dataset_rows(self):
        table = run_table02(TINY)
        assert len(table.rows) == 2
        assert table.column("dataset") == ["campus-data", "car-data"]


class TestFig04:
    def test_regimes_present_in_both_datasets(self):
        table = run_fig04(TINY)
        assert all(table.column("regimes present"))


class TestFig05:
    def test_cgarch_bounds_far_tighter_than_garch(self):
        table = run_fig05(TINY)
        widths = dict(zip(table.column("model"), table.column("max bound width")))
        assert widths["C-GARCH"] < widths["ARMA-GARCH"]

    def test_cgarch_flags_errors(self):
        table = run_fig05(TINY)
        flagged = dict(zip(table.column("model"), table.column("errors flagged")))
        assert flagged["C-GARCH"] > 0


class TestFig13:
    def test_plain_garch_flags_equal_the_per_time_loop(self):
        # The baseline runs one batched pass; it must flag exactly what
        # one ARMA-GARCH infer per time flagged.
        injection = inject_errors(
            campus_temperature(400, rng=5), 12, magnitude=8.0, max_burst=4,
            rng=6, protect_prefix=41,
        )
        series, H = injection.series, 40
        metric = ARMAGARCHMetric(kappa=3.0)
        values = series.values
        reference = set()
        for t in range(H, len(series)):
            forecast = metric.infer(values[t - H : t], t)
            if not forecast.lower <= values[t] <= forecast.upper:
                reference.add(t)
        flagged, _seconds = plain_garch_detection(series, H)
        assert flagged == reference
        assert flagged & set(injection.error_indices.tolist())


class TestFig12:
    def test_arma_garch_degrades_with_order(self):
        table = run_fig12(TINY, orders=(2, 8))
        dd = table.column("ARMA-GARCH")
        assert all(d > 0 for d in dd)
        # At tiny scale the trend is noisy; require only that p=8 is not
        # dramatically better (the paper's shape, with slack).
        assert dd[-1] > dd[0] * 0.6


class TestFig14:
    def test_cache_speedup_above_one(self):
        # Why the sigma-cache wins, in counters instead of wall time:
        # every tuple is one cache lookup, and the cached path evaluates
        # one CDF row per cached distribution where the naive path
        # evaluates one per tuple.  The timed columns stay in the table;
        # a wall-clock ratio on a shared host is not asserted.
        table = run_fig14a(sizes=(2000, 4000))
        distributions = table.column("cached distributions")
        for tuples, cached in zip(table.column("tuples"), distributions):
            assert 0 < cached * 10 <= tuples
        forecasts = synthetic_density_series(2000, rng=0)
        builder = ViewBuilder(
            OmegaGrid(delta=PAPER_DELTA, n=PAPER_N)
        ).with_cache_for(forecasts, distance_constraint=PAPER_DISTANCE)
        assert len(builder.build_matrix(forecasts)) == 2000
        stats = builder.cache.stats
        assert stats.hits + stats.misses == 2000
        assert len(builder.cache) == distributions[0]

    def test_cache_size_grows_logarithmically(self):
        table = run_fig14b(ratios=(100.0, 10000.0))
        counts = table.column("distributions")
        # 100x ratio increase adds only a constant factor ~2 of rows.
        assert counts[1] < counts[0] * 3


class TestFig15:
    def test_campus_rejects_harder_than_car(self):
        table = run_fig15(TINY, lags=(1, 2))
        margins = {}
        for row in table.rows:
            margins.setdefault(row[0], []).append(row[5])
        assert min(margins["campus-data"]) > max(margins["car-data"]) * 0.8

    def test_campus_rejects_at_small_lags(self):
        table = run_fig15(TINY, lags=(1,))
        campus_rows = [r for r in table.rows if r[0] == "campus-data"]
        assert campus_rows[0][4] is True
