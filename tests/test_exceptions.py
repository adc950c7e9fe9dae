"""Tests for the exception hierarchy contract.

Callers rely on two properties: every library error is catchable as
``ReproError``, and caller-mistake errors are additionally ``ValueError``
so generic validation code works unchanged.
"""

from __future__ import annotations

import pytest

from repro.exceptions import (
    CacheConstraintError,
    DataError,
    EstimationError,
    InvalidParameterError,
    NotFittedError,
    ParseError,
    QueryError,
    ReproError,
)


class TestHierarchy:
    @pytest.mark.parametrize("exc_type", [
        InvalidParameterError, EstimationError, NotFittedError, DataError,
        QueryError, ParseError, CacheConstraintError,
    ])
    def test_everything_is_a_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    @pytest.mark.parametrize("exc_type", [InvalidParameterError, DataError])
    def test_caller_mistakes_are_value_errors(self, exc_type):
        assert issubclass(exc_type, ValueError)

    def test_parse_error_is_a_query_error(self):
        assert issubclass(ParseError, QueryError)

    def test_parse_error_carries_position(self):
        error = ParseError("bad token", position=17)
        assert error.position == 17
        assert ParseError("no position").position == -1


class TestCatchability:
    def test_library_errors_caught_as_repro_error(self):
        """A representative error from each subsystem lands under ReproError."""
        from repro.metrics.base import DensitySeries
        from repro.timeseries.series import TimeSeries
        from repro.view.sql import parse_statement

        for trigger in (
            lambda: DensitySeries.from_columns(
                [0], [0.0], [1.0], [-3.0], [3.0], variance=[-1.0]
            ),
            lambda: TimeSeries([]),
            lambda: parse_statement("nonsense"),
        ):
            with pytest.raises(ReproError):
                trigger()

    def test_invalid_parameter_caught_as_value_error(self):
        from repro.view.omega import OmegaGrid

        with pytest.raises(ValueError):
            OmegaGrid(delta=-1.0, n=2)
