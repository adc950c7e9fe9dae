"""Tests for the offline helper and the online streaming pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import campus_temperature
from repro.db.queries import most_probable_range_query
from repro.exceptions import InvalidParameterError
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.pipeline import OnlinePipeline, create_probabilistic_view
from repro.view.omega import OmegaGrid
from repro.view.sigma_cache import SigmaCache


class TestOfflinePipeline:
    def test_view_has_rows_for_every_inference_time(self, campus_series):
        grid = OmegaGrid(delta=0.5, n=6)
        view = create_probabilistic_view(
            campus_series, VariableThresholdingMetric(), H=50, grid=grid,
            step=10,
        )
        expected_times = list(range(50, len(campus_series), 10))
        assert view.times == expected_times
        assert len(view) == len(expected_times) * 6

    def test_cached_and_naive_views_agree_loosely(self, campus_series):
        grid = OmegaGrid(delta=0.5, n=6)
        metric = VariableThresholdingMetric()
        naive = create_probabilistic_view(
            campus_series, metric, H=50, grid=grid, step=20,
        )
        cached = create_probabilistic_view(
            campus_series, metric, H=50, grid=grid, step=20,
            distance_constraint=0.005,
        )
        for t in naive.times:
            for a, b in zip(naive.tuples_at(t), cached.tuples_at(t)):
                assert b.probability == pytest.approx(a.probability, abs=0.02)

    def test_view_probabilities_valid(self, campus_series):
        view = create_probabilistic_view(
            campus_series, VariableThresholdingMetric(), H=40,
            grid=OmegaGrid(delta=1.0, n=4), step=25,
        )
        for t in view.times:
            assert 0.0 <= view.total_mass_at(t) <= 1.0 + 1e-9


class TestOnlinePipeline:
    def test_warmup_then_rows(self):
        pipe = OnlinePipeline(
            VariableThresholdingMetric(), H=30, grid=OmegaGrid(0.5, 4)
        )
        series = campus_temperature(60, rng=0)
        rows = [pipe.feed_batch([v]) for v in series.values]
        assert all(len(row) == 0 for row in rows[:30])
        assert [row.t.tolist() for row in rows[30:]] == [[t] for t in range(30, 60)]

    def test_online_matches_offline(self, campus_series):
        """Streaming one value at a time must produce the same densities as
        the batch run."""
        H = 40
        metric_online = VariableThresholdingMetric()
        metric_offline = VariableThresholdingMetric()
        grid = OmegaGrid(0.5, 4)
        pipe = OnlinePipeline(metric_online, H=H, grid=grid)
        for value in campus_series.values[:200]:
            pipe.feed_batch([value])
        online = pipe.forecasts()
        offline = metric_offline.run(campus_series.slice(0, 200), H)
        assert len(online) == len(offline)
        assert np.array_equal(online.times, offline.times)
        assert np.array_equal(online.means, offline.means)
        assert np.array_equal(online.volatilities, offline.volatilities)

    def test_to_view_materialises_rows(self):
        pipe = OnlinePipeline(
            VariableThresholdingMetric(), H=30, grid=OmegaGrid(0.5, 4)
        )
        for value in campus_temperature(80, rng=1).values:
            pipe.feed_batch([value])
        view = pipe.to_view("online_view")
        assert view.name == "online_view"
        assert len(view.times) == 50
        modal = most_probable_range_query(view)
        assert set(modal) == set(view.times)

    def test_pre_sized_cache_accepted(self):
        grid = OmegaGrid(0.5, 4)
        cache = SigmaCache(grid, 0.01, 10.0, distance_constraint=0.05)
        pipe = OnlinePipeline(
            VariableThresholdingMetric(), H=30, grid=grid, cache=cache
        )
        for value in campus_temperature(50, rng=2).values:
            pipe.feed_batch([value])
        assert cache.stats.lookups > 0

    def test_window_below_metric_minimum_rejected(self):
        with pytest.raises(InvalidParameterError):
            OnlinePipeline(
                VariableThresholdingMetric(), H=2, grid=OmegaGrid(0.5, 4)
            )

    def test_t_counter_advances(self):
        pipe = OnlinePipeline(
            VariableThresholdingMetric(), H=30, grid=OmegaGrid(0.5, 4)
        )
        assert pipe.t == 0
        pipe.feed_batch([1.0])
        assert pipe.t == 1
