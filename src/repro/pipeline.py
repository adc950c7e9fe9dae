"""End-to-end pipelines: raw series in, probabilistic view out.

The paper's framework runs in two modes (Section II-A):

* **offline** — a user issues a view-generation query over stored raw
  values; :func:`create_probabilistic_view` is the programmatic equivalent
  (the SQL path lives in :class:`repro.db.engine.Database`).
* **online** — densities are inferred as each value streams in;
  :class:`OnlinePipeline` maintains the sliding window, feeds the metric,
  and emits one probability row per arrival once warm.

Both take one column path, ``infer_batch`` → ``build_matrix``; the
retained history concatenates columns, family codes included.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.db.prob_view import ProbabilisticView
from repro.exceptions import InvalidParameterError
from repro.metrics.base import DensitySeries, DynamicDensityMetric
from repro.timeseries.series import TimeSeries
from repro.util.validation import require_finite_array
from repro.view.builder import ProbabilityMatrix, ViewBuilder
from repro.view.omega import OmegaGrid
from repro.view.sigma_cache import SigmaCache

__all__ = ["OnlinePipeline", "create_probabilistic_view"]


def create_probabilistic_view(
    series: TimeSeries,
    metric: DynamicDensityMetric,
    H: int,
    grid: OmegaGrid,
    *,
    view_name: str = "prob_view",
    distance_constraint: float | None = None,
    memory_constraint: int | None = None,
    step: int = 1,
) -> ProbabilisticView:
    """Offline mode in one call: metric -> builder (-> cache) -> view.

    When either cache constraint is given, a sigma-cache is sized from the
    forecasts' volatility extremes and used for row generation.

    >>> from repro.data import campus_temperature
    >>> from repro.metrics import ARMAGARCHMetric
    >>> view = create_probabilistic_view(
    ...     campus_temperature(600, rng=0), ARMAGARCHMetric(), H=60,
    ...     grid=OmegaGrid(delta=0.5, n=10), step=10)
    >>> len(view) > 0
    True
    """
    forecasts = metric.run(series, H, step=step)
    builder = ViewBuilder(grid)
    if distance_constraint is not None or memory_constraint is not None:
        builder = builder.with_cache_for(
            forecasts,
            distance_constraint=distance_constraint,
            memory_constraint=memory_constraint,
        )
    matrix = builder.build_matrix(forecasts)
    return ProbabilisticView.from_matrix(view_name, matrix, grid)


class OnlinePipeline:
    """Streaming density inference and view generation (online mode).

    Parameters
    ----------
    metric:
        Any dynamic density metric; every fed value reaches it through
        :meth:`DynamicDensityMetric.infer_batch` (where C-GARCH cleans).
    H:
        Sliding-window size.
    grid:
        Omega view parameters for row generation.
    cache:
        Optional pre-sized :class:`SigmaCache` (online mode cannot size the
        cache from a WHERE clause, so the caller provides expected sigma
        extremes).
    retain_history:
        When true (default), every emitted forecast series and probability
        matrix is kept so :meth:`to_view` / :meth:`forecasts` can
        materialise the full run.  Long-lived ingestion services
        (:mod:`repro.store`) persist the rows themselves and disable
        retention to keep memory flat.

    Examples
    --------
    >>> from repro.metrics import VariableThresholdingMetric
    >>> pipe = OnlinePipeline(VariableThresholdingMetric(), H=30,
    ...                       grid=OmegaGrid(delta=0.5, n=6))
    >>> rows = [len(pipe.feed_batch([20.0 + 0.01 * i])) for i in range(40)]
    >>> rows[29], rows[30]
    (0, 1)
    """

    def __init__(
        self,
        metric: DynamicDensityMetric,
        H: int,
        grid: OmegaGrid,
        cache: SigmaCache | None = None,
        *,
        retain_history: bool = True,
    ) -> None:
        if H < metric.min_window:
            raise InvalidParameterError(
                f"H={H} is below the metric's minimum window "
                f"{metric.min_window}"
            )
        self.metric = metric
        self.H = int(H)
        self.builder = ViewBuilder(grid, cache)
        self.retain_history = bool(retain_history)
        self._window: deque[float] = deque(maxlen=self.H)
        self._t = 0
        self._forecasts: list[DensitySeries] = []
        self._matrices: list[ProbabilityMatrix] = []

    def feed_batch(self, values: Sequence[float] | np.ndarray) -> ProbabilityMatrix:
        """Consume a micro-batch of raw values; the one online data path.

        The warm inference times are stacked into one window matrix and
        dispatched through :meth:`DynamicDensityMetric.infer_batch` +
        :meth:`ViewBuilder.build_matrix` — the same vectorised path offline
        mode uses, so cost scales with the batch, not with everything fed
        so far.  Returns the probability matrix of the newly emitted rows
        (empty while the window is still warming up); streaming one value
        at a time is ``feed_batch([value])``.  The forecast for time ``t``
        is computed from the ``H`` values *before* ``t`` (Definition 1).
        The batch is validated before any of it is consumed: a non-finite
        value would sit in the window and fail every later inference.
        """
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim != 1:
            raise InvalidParameterError(
                f"feed_batch expects a 1-d value array, got shape {values.shape}"
            )
        require_finite_array("values", values, min_len=0)
        start_t = self._t
        held = len(self._window)
        # Local offsets of values whose preceding window is full: value i
        # (global time start_t + i) is warm once held + i >= H.
        first_warm = max(self.H - held, 0)
        matrix = self._empty_matrix()
        if first_warm < values.size:
            history = np.concatenate([np.array(self._window), values])
            windows = np.lib.stride_tricks.sliding_window_view(
                history, self.H
            )[first_warm + held - self.H : values.size + held - self.H]
            ts = start_t + np.arange(first_warm, values.size, dtype=np.int64)
            forecasts = self.metric.infer_batch(windows, ts)
            matrix = self.builder.build_matrix(forecasts)
            if self.retain_history:
                self._forecasts.append(forecasts)
                self._matrices.append(matrix)
        self._window.extend(values.tolist())
        self._t += int(values.size)
        return matrix

    def _empty_matrix(self) -> ProbabilityMatrix:
        return ProbabilityMatrix(
            t=np.empty(0, dtype=np.int64),
            mean=np.empty(0),
            volatility=np.empty(0),
            probabilities=np.empty((0, self.builder.grid.n)),
        )

    @property
    def t(self) -> int:
        """Index the next fed value will receive."""
        return self._t

    @property
    def window_values(self) -> np.ndarray:
        """Copy of the current sliding-window contents (oldest first)."""
        return np.array(self._window)

    def load_state(self, window_values: Sequence[float] | np.ndarray, next_t: int) -> None:
        """Restore the streaming position of a previous pipeline.

        ``window_values`` are the most recent raw values (oldest first, at
        most ``H`` of them) and ``next_t`` the index the next fed value
        should receive — exactly what :attr:`window_values` / :attr:`t`
        exposed when the state was captured.  Used by the persistent
        catalog to resume ingestion after a restart; emitted history is not
        restored (the catalog's segments already hold it).
        """
        window_values = np.ascontiguousarray(window_values, dtype=float)
        if window_values.ndim != 1:
            raise InvalidParameterError(
                f"window state must be a 1-d array, got shape "
                f"{window_values.shape}"
            )
        require_finite_array("window state", window_values, min_len=0)
        next_t = int(next_t)
        if next_t < 0:
            raise InvalidParameterError(f"next_t must be >= 0, got {next_t}")
        # A pipeline that consumed next_t values holds exactly
        # min(next_t, H) of them; anything else would silently re-enter
        # warm-up (undersized) or replay values (oversized) and emit a
        # gapped or shifted time range.
        expected = min(next_t, self.H)
        if window_values.size != expected:
            raise InvalidParameterError(
                f"window state carries {window_values.size} values; a "
                f"pipeline at next_t={next_t} with H={self.H} must carry "
                f"{expected}"
            )
        self._window.clear()
        self._window.extend(window_values.tolist())
        self._t = next_t
        # Emitted history is not restored (and any retained chunks describe
        # a different stream position), so retention starts over.
        self._forecasts.clear()
        self._matrices.clear()

    def forecasts(self) -> DensitySeries:
        """All non-warm-up forecasts emitted so far."""
        self._require_history("forecasts")
        chunks = self._forecasts
        if not chunks:
            return DensitySeries.from_columns([], [], [], [], [])
        variances = [chunk.variances for chunk in chunks]
        return DensitySeries.from_columns(
            np.concatenate([chunk.times for chunk in chunks]),
            np.concatenate([chunk.means for chunk in chunks]),
            np.concatenate([chunk.volatilities for chunk in chunks]),
            np.concatenate([chunk.lowers for chunk in chunks]),
            np.concatenate([chunk.uppers for chunk in chunks]),
            family=np.concatenate([chunk.family_codes for chunk in chunks]),
            variance=(
                None if any(v is None for v in variances)
                else np.concatenate(variances)
            ),
        )

    def to_view(self, name: str = "prob_view") -> ProbabilisticView:
        """Materialise everything emitted so far as a probabilistic view."""
        self._require_history("to_view")
        chunks = [self._empty_matrix(), *self._matrices]
        matrix = ProbabilityMatrix(
            t=np.concatenate([chunk.t for chunk in chunks]),
            mean=np.concatenate([chunk.mean for chunk in chunks]),
            volatility=np.concatenate([chunk.volatility for chunk in chunks]),
            probabilities=np.concatenate(
                [chunk.probabilities for chunk in chunks]
            ),
        )
        return ProbabilisticView.from_matrix(name, matrix, self.builder.grid)

    def _require_history(self, what: str) -> None:
        if not self.retain_history:
            raise InvalidParameterError(
                f"{what}() needs retain_history=True; this pipeline was "
                "created with retention disabled"
            )
