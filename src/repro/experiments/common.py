"""Shared infrastructure for the experiment modules."""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import InvalidParameterError
from repro.util.tables import format_table

__all__ = ["ExperimentTable", "get_scale", "steps_for"]

#: Default fraction of the paper-sized workload; chosen so the whole
#: benchmark suite finishes in minutes on one laptop core.
DEFAULT_SCALE = 0.08

#: Environment variable overriding the default scale.
SCALE_ENV_VAR = "REPRO_SCALE"


@dataclass
class ExperimentTable:
    """A reproduced table/figure: headers, rows and free-form notes.

    ``rows`` are plain lists matching ``headers``; :meth:`render` prints
    the aligned ASCII table the benchmarks emit.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise InvalidParameterError(
                f"row has {len(values)} cells for {len(self.headers)} headers"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        text = format_table(
            self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}"
        )
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text

    def column(self, header: str) -> list[Any]:
        """Extract one column by header name (used by assertions in tests)."""
        try:
            index = list(self.headers).index(header)
        except ValueError:
            raise InvalidParameterError(
                f"no column {header!r}; headers are {list(self.headers)}"
            ) from None
        return [row[index] for row in self.rows]


def get_scale(scale: float | None = None) -> float:
    """Resolve the experiment scale.

    Priority: explicit argument > ``REPRO_SCALE`` env var > default
    (:data:`DEFAULT_SCALE`).  Must land in ``(0, 1]``.
    """
    if scale is None:
        raw = os.environ.get(SCALE_ENV_VAR)
        scale = float(raw) if raw else DEFAULT_SCALE
    if not 0.0 < scale <= 1.0:
        raise InvalidParameterError(f"scale must be in (0, 1], got {scale}")
    return scale


def steps_for(n_available: int, target_inferences: int) -> int:
    """Subsampling stride giving about ``target_inferences`` rolling steps."""
    if target_inferences < 1:
        raise InvalidParameterError(
            f"target_inferences must be >= 1, got {target_inferences}"
        )
    return max(1, n_available // target_inferences)
