"""Standing queries: incrementally-maintained results over growing views.

Cormode & Garofalakis's probabilistic-stream aggregates (the related work
:mod:`repro.db.stream_queries` implements one-shot) become *standing*
queries once a view grows in place: a client registers the query once and
receives the newly answerable results after every ingested micro-batch,
computed **only over the new suffix** of the view.

Incremental state is chosen so the accumulated result is *identical* — not
just close — to re-running the one-shot query over the full view:

* per-time aggregates (threshold hits, exceedance probabilities, per-time
  expected values) depend only on that time's tuples, so evaluating them on
  the suffix view reproduces the full-view group reductions bit for bit;
* prefix sums continue the exact sequential accumulation chain
  (``cumsum([carry, new...])[1:]``), matching a full ``np.cumsum``;
* sliding products keep the last ``window - 1`` per-time values and reduce
  each new window with the same ``np.prod`` row reduction the one-shot
  query uses.

Each append therefore costs ``O(batch + window)``, independent of how many
tuples the view has accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.db.queries import expected_value_vector, threshold_query
from repro.db.stream_queries import exceedance_probability, exceedance_vector
from repro.exceptions import InvalidParameterError

__all__ = ["StandingQuery", "StandingQueryHandle"]

_KINDS = (
    "threshold",
    "exceedance",
    "windowed_expected_value",
    "expected_time_above",
    "sustained_exceedance",
)

#: Parameters each kind needs; validated at construction, not deep in update().
_REQUIRED_PARAMS = {
    "threshold": ("tau",),
    "exceedance": ("threshold",),
    "windowed_expected_value": ("window",),
    "expected_time_above": ("threshold", "window"),
    "sustained_exceedance": ("threshold", "window"),
}


@dataclass(frozen=True)
class StandingQuery:
    """Declarative spec of one standing query (what, not how).

    Use the named constructors; they validate the parameters each kind
    needs.  The catalog turns a spec into live incremental state when the
    query is registered against a series.
    """

    kind: str
    tau: float | None = None
    threshold: float | None = None
    window: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unknown standing query kind {self.kind!r}; "
                f"one of {', '.join(_KINDS)}"
            )
        for name in _REQUIRED_PARAMS[self.kind]:
            if getattr(self, name) is None:
                raise InvalidParameterError(
                    f"a {self.kind} standing query requires {name}="
                )
        if self.tau is not None and not 0.0 <= self.tau <= 1.0:
            raise InvalidParameterError(
                f"tau must be in [0, 1], got {self.tau}"
            )
        if self.window is not None:
            _check_window(self.window)

    # -- named constructors ---------------------------------------------
    @classmethod
    def threshold_tuples(cls, tau: float) -> "StandingQuery":
        """All tuples with ``probability >= tau`` (probabilistic threshold)."""
        return cls(kind="threshold", tau=float(tau))

    @classmethod
    def exceedance(cls, threshold: float) -> "StandingQuery":
        """Per-time ``P(value > threshold)``."""
        return cls(kind="exceedance", threshold=float(threshold))

    @classmethod
    def windowed_expected_value(cls, window: int) -> "StandingQuery":
        """Sliding-window mean of per-time expected values."""
        return cls(kind="windowed_expected_value", window=_check_window(window))

    @classmethod
    def expected_time_above(cls, threshold: float, window: int) -> "StandingQuery":
        """Expected exceedance count per window (linearity of E)."""
        return cls(
            kind="expected_time_above",
            threshold=float(threshold),
            window=_check_window(window),
        )

    @classmethod
    def sustained_exceedance(cls, threshold: float, window: int) -> "StandingQuery":
        """P(threshold exceeded at every time of each window)."""
        return cls(
            kind="sustained_exceedance",
            threshold=float(threshold),
            window=_check_window(window),
        )

    def describe(self) -> str:
        parts = [self.kind]
        for name in ("tau", "threshold", "window"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return " ".join(parts)


def _check_window(window: int) -> int:
    if int(window) != window or window < 1:
        raise InvalidParameterError(f"window must be an integer >= 1, got {window}")
    return int(window)


@dataclass
class StandingQueryHandle:
    """A registered standing query: accumulated result + last delta.

    ``result()`` always equals the one-shot query from
    :mod:`repro.db.queries` / :mod:`repro.db.stream_queries` over the full
    materialised view; ``last_delta`` holds only what the most recent
    append made newly answerable.
    """

    query: StandingQuery
    _state: "_QueryState" = field(repr=False, default=None)  # type: ignore[assignment]
    last_delta: Any = None

    def __post_init__(self) -> None:
        if self._state is None:
            self._state = _make_state(self.query)

    def update(self, suffix: ProbabilisticView) -> Any:
        """Feed the view's new suffix; returns (and records) the delta."""
        self.last_delta = self._state.update(suffix)
        return self.last_delta

    def result(self) -> Any:
        """The accumulated result over everything ingested so far."""
        return self._state.result()


# ----------------------------------------------------------------------
# Incremental state, one class per query kind.
# ----------------------------------------------------------------------
class _QueryState:
    def update(self, suffix: ProbabilisticView) -> Any:  # pragma: no cover
        raise NotImplementedError

    def result(self) -> Any:  # pragma: no cover
        raise NotImplementedError


class _ThresholdState(_QueryState):
    """Tuples are emitted in (time, range) order, so suffix hits append."""

    def __init__(self, tau: float) -> None:
        self._tau = tau
        self._hits: list[ProbTuple] = []

    def update(self, suffix: ProbabilisticView) -> list[ProbTuple]:
        delta = threshold_query(suffix, self._tau)
        self._hits.extend(delta)
        return delta

    def result(self) -> list[ProbTuple]:
        return list(self._hits)


class _ExceedanceState(_QueryState):
    """Per-time reduction: the suffix computation is the full one, sliced."""

    def __init__(self, threshold: float) -> None:
        self._threshold = threshold
        self._results: dict[int, float] = {}

    def update(self, suffix: ProbabilisticView) -> dict[int, float]:
        delta = exceedance_probability(suffix, self._threshold)
        self._results.update(delta)
        return delta

    def result(self) -> dict[int, float]:
        return dict(self._results)


def _check_contiguous(new_times: np.ndarray, last_time: int | None) -> None:
    """Windowed queries need gap-free times, like their one-shot forms.

    ``new_times`` must be consecutive and continue directly after the last
    time already ingested — windowing by array position would otherwise
    silently span time gaps, breaking the equals-full-recompute guarantee.
    """
    span = f"[{int(new_times[0])} .. {int(new_times[-1])}]"
    if np.any(np.diff(new_times) != 1):
        detail = f"times {span} have gaps"
    elif last_time is not None and int(new_times[0]) != last_time + 1:
        detail = f"times {span} do not continue after {last_time}"
    else:
        return
    raise InvalidParameterError(
        f"windowed standing queries need consecutive inference times; {detail}"
    )


class _PrefixSumState(_QueryState):
    """Shared machinery for the cumulative-sum windowed queries.

    Continues the exact accumulation chain of a full ``np.cumsum`` over the
    per-time value vector, but retains only its trailing ``window + 1``
    entries — new windows never reach further back — so the auxiliary state
    stays O(window) no matter how long the service ingests.
    """

    def __init__(self, window: int, divide: bool) -> None:
        self._window = window
        self._divide = divide
        self._count = 0  # Times ingested so far.
        self._last_time: int | None = None
        self._csum_tail = np.zeros(1)  # Trailing prefix sums; [-1] = total.
        self._results: dict[int, float] = {}

    def _per_time_values(self, suffix: ProbabilisticView) -> np.ndarray:
        raise NotImplementedError

    def update(self, suffix: ProbabilisticView) -> dict[int, float]:
        new_times = np.asarray(suffix.columns.times, dtype=np.int64)
        if new_times.size == 0:
            return {}
        _check_contiguous(new_times, self._last_time)
        values = self._per_time_values(suffix)
        carry = self._csum_tail[-1]
        csum = np.concatenate([
            self._csum_tail,
            np.cumsum(np.concatenate(([carry], values)))[1:],
        ])
        # csum[i] is the prefix sum at global index base + i.
        count_before = self._count
        base = count_before + 1 - self._csum_tail.size
        window = self._window
        total = count_before + new_times.size
        first_end = max(window - 1, count_before)  # Global window-end index.
        delta: dict[int, float] = {}
        if total > first_end:
            ends = np.arange(first_end, total)
            sums = csum[ends + 1 - base] - csum[ends + 1 - window - base]
            if self._divide:
                sums = sums / window
            delta = {
                int(new_times[e - count_before]): float(s)
                for e, s in zip(ends, sums)
            }
            self._results.update(delta)
        keep = min(total + 1, window + 1)
        self._csum_tail = csum[csum.size - keep :]
        self._count = total
        self._last_time = int(new_times[-1])
        return delta

    def result(self) -> dict[int, float]:
        return dict(self._results)


class _WindowedExpectedValueState(_PrefixSumState):
    def __init__(self, window: int) -> None:
        super().__init__(window, divide=True)

    def _per_time_values(self, suffix: ProbabilisticView) -> np.ndarray:
        return expected_value_vector(suffix)


class _ExpectedTimeAboveState(_PrefixSumState):
    def __init__(self, threshold: float, window: int) -> None:
        super().__init__(window, divide=False)
        self._threshold = threshold

    def _per_time_values(self, suffix: ProbabilisticView) -> np.ndarray:
        return exceedance_vector(suffix, self._threshold)


class _SustainedExceedanceState(_QueryState):
    """Keeps the last ``window - 1`` per-time exceedances for new products."""

    def __init__(self, threshold: float, window: int) -> None:
        self._threshold = threshold
        self._window = window
        self._tail_values = np.empty(0)
        self._tail_times = np.empty(0, dtype=np.int64)
        self._last_time: int | None = None
        self._results: dict[int, float] = {}

    def update(self, suffix: ProbabilisticView) -> dict[int, float]:
        new_times = np.asarray(suffix.columns.times, dtype=np.int64)
        if new_times.size == 0:
            return {}
        _check_contiguous(new_times, self._last_time)
        self._last_time = int(new_times[-1])
        values = np.concatenate(
            [self._tail_values, exceedance_vector(suffix, self._threshold)]
        )
        times = np.concatenate([self._tail_times, new_times])
        window = self._window
        delta: dict[int, float] = {}
        if values.size >= window:
            products = np.prod(sliding_window_view(values, window), axis=1)
            for offset, product in enumerate(products):
                delta[int(times[offset + window - 1])] = float(product)
            self._results.update(delta)
        keep = min(window - 1, values.size)
        self._tail_values = values[values.size - keep :]
        self._tail_times = times[times.size - keep :]
        return delta

    def result(self) -> dict[int, float]:
        return dict(self._results)


def _make_state(query: StandingQuery) -> _QueryState:
    if query.kind == "threshold":
        return _ThresholdState(query.tau)  # type: ignore[arg-type]
    if query.kind == "exceedance":
        return _ExceedanceState(query.threshold)  # type: ignore[arg-type]
    if query.kind == "windowed_expected_value":
        return _WindowedExpectedValueState(query.window)  # type: ignore[arg-type]
    if query.kind == "expected_time_above":
        return _ExpectedTimeAboveState(query.threshold, query.window)  # type: ignore[arg-type]
    assert query.kind == "sustained_exceedance"
    return _SustainedExceedanceState(query.threshold, query.window)  # type: ignore[arg-type]
