"""End-to-end integration tests crossing every subsystem."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.data.errors import inject_errors
from repro.data.synthetic import campus_temperature
from repro.db.engine import Database
from repro.db.queries import (
    expected_value_query,
    most_probable_range_query,
    threshold_query,
)
from repro.db.table import Table
from repro.evaluation.density_distance import density_distance
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.cgarch import CGARCHMetric
from repro.metrics.kalman_garch import KalmanGARCHMetric
from repro.metrics.uniform_threshold import UniformThresholdingMetric
from repro.pipeline import create_probabilistic_view
from repro.view.omega import OmegaGrid


class TestPaperPipeline:
    """The full Fig. 2 architecture: raw values -> metric -> view -> queries."""

    def test_sql_to_probabilistic_queries(self, campus_series):
        db = Database()
        table = Table("raw_values", ["t", "r"])
        table.insert_many(
            zip(campus_series.timestamps.tolist(), campus_series.values.tolist())
        )
        db.register_table(table)
        view = db.execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8 "
            "METRIC arma_garch (p=1) WINDOW 60 CACHE (distance=0.02) "
            "FROM raw_values"
        ).view
        # The created view supports the downstream probabilistic queries the
        # paper motivates.
        modal = most_probable_range_query(view)
        assert len(modal) == len(view.times)
        confident = threshold_query(view, 0.3)
        assert all(tup.probability >= 0.3 for tup in confident)
        expectations = expected_value_query(view)
        # Expected values must track the raw series loosely.
        times = view.times
        raw_by_index = {i: campus_series[i] for i in times}
        errors = [abs(expectations[t] - raw_by_index[t]) for t in times]
        assert np.median(errors) < 2.0

    @pytest.mark.parametrize(
        "clause, metric",
        [
            ("arma_garch (m=2)", ARMAGARCHMetric(m=2)),
            ("kalman_garch (s=2)", KalmanGARCHMetric(s=2)),
        ],
    )
    def test_sql_reaches_other_garch_orders(self, clause, metric):
        series = campus_temperature(140, rng=3)
        table = Table("raw_values", ["t", "r"])
        table.insert_many(
            zip(series.timestamps.tolist(), series.values.tolist())
        )
        with repro.connect() as conn:
            conn.database.register_table(table)
            view = conn.execute(
                "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8 "
                f"METRIC {clause} WINDOW 40 FROM raw_values"
            ).view
        expected = create_probabilistic_view(
            series, metric, H=40, grid=OmegaGrid(delta=0.5, n=8), view_name="pv"
        )
        assert view.times == list(range(40, 140))
        for name in ("t", "low", "high", "probability", "label_code"):
            assert np.array_equal(
                getattr(view.columns, name), getattr(expected.columns, name)
            )
        # A valid view: each time's probabilities are a (sub-)distribution.
        masses = np.bincount(
            view.columns.t - 40, weights=view.columns.probability
        )
        assert np.all(masses > 0.5) and np.all(masses <= 1.0 + 1e-9)

    def test_expected_value_tracks_series_through_view(self, campus_series):
        grid = OmegaGrid(delta=0.25, n=40)  # Wide, fine grid.
        view = create_probabilistic_view(
            campus_series, ARMAGARCHMetric(), H=60, grid=grid, step=15,
        )
        expectations = expected_value_query(view)
        errors = [
            abs(expectations[t] - campus_series[t]) for t in view.times
        ]
        assert np.median(errors) < 1.0

    def test_garch_metric_beats_uniform_on_density_distance(self, campus_series):
        """The paper's headline Fig. 10 claim at test scale."""
        H = 60
        garch = ARMAGARCHMetric().run(campus_series, H, step=4)
        uniform = UniformThresholdingMetric(threshold=0.3).run(
            campus_series, H, step=4
        )
        dd_garch = density_distance(garch, campus_series)
        dd_uniform = density_distance(uniform, campus_series)
        assert dd_garch < dd_uniform

    def test_cgarch_cleans_and_view_stays_sane(self):
        clean = campus_temperature(400, rng=21)
        injection = inject_errors(
            clean, 6, magnitude=10.0, rng=22, protect_prefix=61
        )
        metric = CGARCHMetric(oc_max=8)
        forecasts, report = metric.run_with_report(injection.series, H=60)
        assert report.capture_rate(injection.error_indices) > 0.5
        grid = OmegaGrid(delta=0.5, n=10)
        from repro.view.builder import ViewBuilder
        from repro.db.prob_view import ProbabilisticView

        matrix = ViewBuilder(grid).build_matrix(forecasts)
        view = ProbabilisticView.from_matrix("cleaned_view", matrix, grid)
        for t in view.times:
            assert view.total_mass_at(t) <= 1.0 + 1e-6

    def test_online_offline_view_equivalence_via_sql(self, campus_series):
        """The same data through SQL and through the online pipeline agree."""
        from repro.metrics.variable_threshold import VariableThresholdingMetric
        from repro.pipeline import OnlinePipeline

        H, n_rows = 40, 150
        sub = campus_series.slice(0, n_rows)
        grid = OmegaGrid(delta=0.5, n=4)

        db = Database()
        table = Table("raw_values", ["t", "r"])
        table.insert_many(zip(sub.timestamps.tolist(), sub.values.tolist()))
        db.register_table(table)
        sql_view = db.execute(
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
            "METRIC variable_threshold WINDOW 40 FROM raw_values"
        ).view

        pipe = OnlinePipeline(VariableThresholdingMetric(), H=H, grid=grid)
        for value in sub.values:
            pipe.feed_batch([value])
        online_view = pipe.to_view("v_online")

        assert sql_view.times == online_view.times
        for t in sql_view.times:
            sql_probs = [tup.probability for tup in sql_view.tuples_at(t)]
            online_probs = [tup.probability for tup in online_view.tuples_at(t)]
            assert np.array_equal(sql_probs, online_probs)


class TestRoomTracking:
    """The motivating Alice example of the paper's Fig. 1."""

    def test_room_probabilities_sum_and_locate(self):
        from repro.metrics.variable_threshold import VariableThresholdingMetric

        rng = np.random.default_rng(30)
        # Alice walks from x=1 to x=3 over 200 ticks (rooms split at x=2).
        x = np.linspace(1.0, 3.0, 200) + rng.normal(0, 0.15, 200)
        from repro.timeseries.series import TimeSeries

        series = TimeSeries(x, name="alice-x")
        metric = VariableThresholdingMetric()
        forecasts = metric.run(series, H=30)
        # P(room) per time: the forecast CDF columns at the room's walls.
        walls = [forecasts.cdf(np.full(len(forecasts), x)) for x in (0.0, 2.0, 4.0)]
        room_1, room_2 = walls[1] - walls[0], walls[2] - walls[1]
        assert room_1[0] > room_2[0]
        assert room_2[-1] > room_1[-1]
        assert np.all(room_1 + room_2 <= 1.0 + 1e-9)
