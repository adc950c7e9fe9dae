"""The aggregate vocabulary: the one home of what every route computes.

A :class:`KernelSpec` is the one definition of an aggregate: its name,
its arguments (arity and domains, :meth:`KernelSpec.bind`), its ``TOP k``
score (:attr:`KernelSpec.score`, rendered under ``score_label``), and its
computation — ``threshold``'s row selection (``probability >= tau``),
seeded possible worlds (``SIMULATE``), or a per-time **core** over the
view's columns (:func:`per_time_expected_value`,
:func:`per_time_exceedance` or :func:`per_time_range_mass`, all defined
here) followed by an optional **window pass**: the ``sum``, ``mean`` or
``product`` of every ``window`` consecutive per-time values, keyed by the
window's last time.  The planner binds SELECT items against the specs;
:meth:`KernelSpec.evaluate`, whose answer is a :class:`SeriesResult`, is
the one evaluator: the service kernels (one series at a time), the
executor's pruned series (an empty view), standing queries (one suffix
at a time) and the one-shot python functions of
:mod:`repro.db.queries`, :mod:`repro.db.stream_queries` and
:func:`repro.db.worlds.conjunctive_range_query` (:meth:`KernelSpec.one_shot`)
all call it — so the routes validate alike and agree bit for bit.

:meth:`KernelSpec.reduce` is the one windowed reduction.  Its explicit
:class:`WindowCarry` lets the same arithmetic serve a whole view (no
carry) and a growing one: ``sum`` / ``mean`` carry trailing *prefix
sums*, because continuing ``cumsum([carry, new...])`` reproduces one full
``np.cumsum`` bit for bit where re-summing raw values would not;
``product`` carries the last ``window - 1`` values for the same
``np.prod`` row reduction.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.db.prob_view import ProbabilisticView, ProbTuple, ViewColumns, tuple_rows
from repro.exceptions import InvalidParameterError, QueryError
from repro.view.sql import MAX_WORLD_CELLS

__all__ = [
    "AGGREGATES",
    "KERNELS",
    "KernelSpec",
    "SIMULATE_KERNEL",
    "SeriesResult",
    "WindowCarry",
    "check_window",
    "per_time_exceedance",
    "per_time_expected_value",
    "per_time_range_mass",
    "range_contribution",
    "resolve",
]

Arguments = tuple[float, ...]


class WindowCarry(NamedTuple):
    """The trailing ``window + 1`` prefix sums (``sum`` / ``mean``) or last
    ``window - 1`` values (``product``), and the last time reduced."""

    last_time: int
    tail: np.ndarray


def check_window(
    name: str,
    window: float,
    times: np.ndarray | None = None,
    last_time: int | None = None,
    *,
    whole: bool = False,
) -> int:
    """The one window validator; returns ``window`` as an int >= 1.

    ``times`` must be consecutive and continue directly after a carry's
    ``last_time`` — windows by array position would span gaps; ``whole``
    ``times`` are a complete series, holding at least one full window.
    """
    if window != int(window) or window < 1:
        raise InvalidParameterError(
            f"{name} needs an integer window >= 1, got {window}"
        )
    window = int(window)
    if times is None or not times.size:
        return window
    if whole and times.size < window:
        raise InvalidParameterError(
            f"{name}: view has {times.size} times, fewer than window={window}"
        )
    if np.any(np.diff(times) != 1):
        detail = "have gaps"
    elif last_time is not None and int(times[0]) != last_time + 1:
        detail = f"do not continue after {last_time}"
    else:
        return window
    raise InvalidParameterError(
        f"{name} needs consecutive inference times (build views with "
        f"step=1); non-contiguous times [{times[0]} .. {times[-1]}] {detail}"
    )


# ``TOP k`` scores of an answer's values.
def _peak(values: np.ndarray) -> float:
    return float(values.max()) if values.size else 0.0


def _mean(values: np.ndarray) -> float:
    # Left to right, as the canonical bytes need: ``np.sum`` is pairwise and
    # Python >= 3.12's builtin ``sum`` is compensated.
    total = 0.0
    for value in values.tolist():
        total += value
    return total / values.size if values.size else 0.0


def _count(values: np.ndarray) -> float:
    return float(values.shape[-1])


@dataclass(eq=False)
class SeriesResult:
    """One series' answer to a statement item, kept as the kernel's arrays.

    :meth:`KernelSpec.evaluate` builds every kernel answer; the executor
    builds only ``"approx"`` and ``"error"`` entries.  ``kind`` names the
    layout of ``arrays``:

    * ``"mapping"`` — ``times`` (int64, ascending) and ``values``: a
      per-time core's answer, after its window pass;
    * ``"rows"`` — ``t`` / ``low`` / ``high`` / ``probability`` / ``code``
      columns of a row selection's hits, the label pool in ``meta[0]``;
    * ``"worlds"`` — ``times`` plus an ``(n_worlds, len(times))``
      ``values`` matrix, ``NaN`` marking the OUTSIDE alternative;
    * ``"approx"`` — no arrays: the executor's synopsis estimate, its
      estimate/error-bound mapping in ``meta[0]``;
    * ``"error"`` — no arrays; ``error`` is the one-line diagnostic (a
      message, never an exception object, so the result pickles the same
      from any backend).

    ``score`` is the scalar ``TOP k`` ranks by.  ``load_s`` /
    ``compute_s`` / ``cache_hit`` are the worker-side trace span as three
    plain numbers; the executor merges them into the parent
    :class:`~repro.obs.trace.QueryTrace`.  The process backend pickles
    these objects as they are through its pool's result pipe, and the
    executor ranks and renders the same objects: :meth:`rows` builds the
    JSON payload straight from the arrays.  ``result`` is the one python
    rendering — what :meth:`KernelSpec.one_shot` and a standing query
    return: for ``threshold`` a :class:`~repro.db.prob_view.ProbTuple`
    record per :meth:`rows` row, a per-time dict for the other
    aggregates, a list of ``[t, value]`` worlds for ``SIMULATE`` — built on
    first access and kept; an ``"error"`` entry's is ``None``, its
    ``size`` 0, and ``==`` compares ``error`` too.
    """

    series_id: str
    kind: str
    arrays: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    meta: tuple[Any, ...] = field(default=(), repr=False)
    score: float = 0.0
    error: str | None = None
    load_s: float = 0.0
    compute_s: float = 0.0
    cache_hit: bool = True
    _result: Any = field(default=None, init=False, repr=False)

    def rows(self) -> Any:
        """This entry's JSON-ready payload, no per-row objects built.

        Mapping rows are ``[t, value]`` in the arrays' (ascending-time)
        order; ``threshold`` rows are 5-column; worlds are ``[t, value]``
        lists with ``None`` for the OUTSIDE alternative.
        """
        arrays = self.arrays
        if self.kind == "mapping":
            return [
                list(pair)
                for pair in zip(arrays["times"].tolist(), arrays["values"].tolist())
            ]
        if self.kind == "rows":
            return tuple_rows(
                arrays["t"],
                arrays["low"],
                arrays["high"],
                arrays["probability"],
                arrays["code"],
                self.meta[0],
            )
        if self.kind == "worlds":
            times = arrays["times"].tolist()
            # NaN (the only value unequal to itself) marks OUTSIDE.
            return [
                [[t, v if v == v else None] for t, v in zip(times, world)]
                for world in arrays["values"].tolist()
            ]
        return {key: float(value) for key, value in sorted(self.meta[0].items())}

    @property
    def result(self) -> Any:
        if self._result is None:
            if self.kind == "mapping":
                times, values = self.arrays["times"], self.arrays["values"]
                self._result = dict(zip(times.tolist(), values.tolist()))
            elif self.kind == "rows":
                self._result = [ProbTuple(*row) for row in self.rows()]
            elif self.kind == "worlds":
                self._result = self.rows()
            elif self.kind == "approx":
                self._result = self.meta[0]
        return self._result

    @property
    def size(self) -> int:
        if self.kind == "error":
            return 0
        if self.kind == "approx":
            return len(self.meta[0])
        return len(self.arrays["t" if self.kind == "rows" else "values"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesResult):
            return NotImplemented
        return (self.series_id, self.score, self.error, self.result) == (
            other.series_id,
            other.score,
            other.error,
            other.result,
        )


@dataclass(frozen=True)
class KernelSpec:
    """One aggregate: its name, signature, score and computation.

    ``core`` maps one view's columns and the bound arguments to the
    per-time vector; ``window_pass`` is ``None``,
    ``"sum"``, ``"mean"`` or ``"product"``, the window being the last
    argument.  ``selection`` instead picks the answer's row indices.
    ``score`` maps an answer's values — per-time values, selected
    probabilities, or the worlds matrix — to its ``TOP k`` score, shown
    as ``score_label``.  ``approx`` marks a score the segment synopses
    bound (``SELECT APPROX``, estimated by
    :mod:`repro.service.synopsis`).  Workers look specs up by name.
    """

    name: str
    parameters: tuple[str, ...]
    score_label: str
    validate: Callable[[Arguments], Arguments] | None = None
    core: Callable[[ViewColumns, Arguments], np.ndarray] | None = None
    window_pass: str | None = None
    selection: Callable[[ViewColumns, Arguments], np.ndarray] | None = None
    score: Callable[[np.ndarray], float] = _peak
    approx: bool = False

    @property
    def kind(self) -> str:
        """The answer's layout: ``"mapping"``, ``"rows"`` or ``"worlds"``."""
        if self.core is not None:
            return "mapping"
        return "worlds" if self.selection is None else "rows"

    def bind(self, arguments: Arguments) -> Arguments:
        """Check arity and domains; returns the normalised float arguments."""
        if len(arguments) != len(self.parameters):
            expected = ", ".join(self.parameters) or "no arguments"
            raise InvalidParameterError(
                f"{self.name} takes ({expected}), got {len(arguments)} argument(s)"
            )
        arguments = tuple(float(value) for value in arguments)
        for name, value in zip(self.parameters, arguments):
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"{self.name} {name} must be finite, got {value}"
                )
        if self.validate is not None:
            arguments = self.validate(arguments)
        if self.window_pass is not None:
            arguments = (*arguments[:-1], float(check_window(self.name, arguments[-1])))
        return arguments

    def one_shot(self, view: ProbabilisticView, *arguments: float) -> Any:
        """This aggregate over the whole of ``view``, arguments bound first,
        as its python :attr:`SeriesResult.result`."""
        return self.evaluate(view, self.bind(arguments), whole=True)[0].result

    def evaluate(
        self,
        view: ProbabilisticView,
        arguments: Arguments,
        carry: WindowCarry | None = None,
        *,
        whole: bool = False,
        series_id: str | None = None,
    ) -> tuple[SeriesResult, WindowCarry | None]:
        """The answer over ``view`` after ``carry``, and the next carry.

        The one evaluator: a per-time core plus its window pass
        (:meth:`reduce`, ``whole`` as there), the row selection's gathered
        columns, or seeded worlds.  The answer is keyed, and a world
        stream seeded, by ``series_id`` (default ``view.name``): the
        stream depends on ``(seed, series_id)`` alone, so the drawn worlds
        are bit-identical whichever backend, worker or fan-out order ran
        the series.  A series whose worlds would exceed
        :data:`~repro.view.sql.MAX_WORLD_CELLS` cells raises
        :class:`~repro.exceptions.QueryError` before anything is drawn.
        """
        cols = view.columns
        series_id = view.name if series_id is None else series_id
        meta = ()
        if self.core is not None:
            values = self.per_time(cols, arguments)
            times, values, carry = self.reduce(
                values, cols.times, arguments, carry, whole=whole
            )
            arrays = {"times": times, "values": values}
        elif self.selection is not None:
            hits = self.selection(cols, arguments)
            arrays = {
                "t": cols.t[hits],
                "low": cols.low[hits],
                "high": cols.high[hits],
                "probability": cols.probability[hits],
                "code": cols.label_code[hits],
            }
            values, meta = arrays["probability"], (cols.labels,)
        else:
            # db.worlds imports this module.
            from repro.db.worlds import WorldSampler, derive_series_seed

            n_worlds = int(arguments[0])
            if n_worlds * cols.times.size > MAX_WORLD_CELLS:
                raise QueryError(
                    f"SIMULATE {n_worlds} over the {cols.times.size} times of "
                    f"series {series_id!r} exceeds the budget of "
                    f"MAX_WORLD_CELLS = {MAX_WORLD_CELLS} world cells per series"
                )
            seed = derive_series_seed(int(arguments[1]), series_id)
            rng = np.random.default_rng(seed)
            values = WorldSampler(view).sample_matrix(n_worlds, rng)
            arrays = {"times": cols.times, "values": values}
        score = self.score(values)
        return SeriesResult(series_id, self.kind, arrays, meta, score), carry

    def per_time(self, columns: ViewColumns, arguments: Arguments) -> np.ndarray:
        """The core over ``columns``, aligned with their distinct times."""
        if not columns.starts.size:
            return np.empty(0)
        return self.core(columns, arguments)

    def reduce(
        self,
        values: np.ndarray,
        times: np.ndarray,
        arguments: Arguments,
        carry: WindowCarry | None = None,
        *,
        whole: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, WindowCarry | None]:
        """End times and values of the windows that ``values`` (at
        ``times``) completes after ``carry`` — ``None`` before the first
        call — and the next carry; per-time specs pass their input through.
        """
        if self.window_pass is None:
            return times, values, None
        last_time = None if carry is None else carry.last_time
        window = check_window(self.name, arguments[-1], times, last_time, whole=whole)
        if not times.size:
            return times, values, carry
        if self.window_pass == "product":
            tail = np.empty(0) if carry is None else carry.tail
            seq = np.concatenate((tail, values))
            out = (
                np.prod(sliding_window_view(seq, window), axis=1)
                if seq.size >= window
                else np.empty(0)
            )
            keep = window - 1
        else:
            tail = np.zeros(1) if carry is None else carry.tail
            seq = np.concatenate(
                (tail, np.cumsum(np.concatenate((tail[-1:], values)))[1:])
            )
            # Windows ending inside the tail were reported with it.
            first = max(window, tail.size)
            out = (
                seq[first:] - seq[first - window : seq.size - window]
                if seq.size > first
                else np.empty(0)
            )
            if self.window_pass == "mean":
                out = out / window
            keep = window + 1
        next_carry = WindowCarry(int(times[-1]), seq[max(seq.size - keep, 0) :])
        return times[times.size - out.size :], out, next_carry


def resolve(name: str, registry: dict[str, KernelSpec] | None = None) -> KernelSpec:
    """``name``'s spec in ``registry`` (default :data:`AGGREGATES`)."""
    spec = (AGGREGATES if registry is None else registry).get(name)
    if spec is None:
        raise QueryError(
            f"unknown aggregate {name!r}; one of {', '.join(sorted(AGGREGATES))}"
        )
    return spec


# The per-time cores.  Each maps one view's (or one stored segment's)
# tuple columns and their by-time grouping — ``order`` is the stable
# by-time sort, ``starts`` / ``counts`` delimit each time's group inside
# it (:class:`ViewColumns`) — to one value per group;
# :func:`per_time_range_mass` takes the :class:`ViewColumns` whole, for
# its by-time layout.  Every route, and the segment synopses of
# :mod:`repro.store.binary`, calls these, so their answers agree bit for
# bit.  ``starts`` must be non-empty.
def per_time_expected_value(
    low: np.ndarray,
    high: np.ndarray,
    probability: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """Expected value of each group: range midpoints weighted by probability.

    Normalised by the group's captured mass, so grids that truncate the
    tails stay unbiased.
    """
    weighted = (probability * 0.5 * (low + high))[order]
    masses = np.add.reduceat(probability[order], starts)
    sums = np.add.reduceat(weighted, starts)
    # Degenerate groups (no mass): midpoint of the group's support.
    lows = np.minimum.reduceat(low[order], starts)
    highs = np.maximum.reduceat(high[order], starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            masses > 0.0,
            sums / np.where(masses > 0.0, masses, 1.0),
            0.5 * (lows + highs),
        )


def per_time_exceedance(
    low: np.ndarray,
    high: np.ndarray,
    probability: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """``P(value > threshold)`` of each group."""
    # Ranges fully above the threshold contribute everything (the fraction
    # clips to 1); the straddling range contributes proportionally.
    fraction = np.clip((high - threshold) / (high - low), 0.0, 1.0)
    contribution = (probability * fraction)[order]
    return np.minimum(np.add.reduceat(contribution, starts), 1.0)


def range_contribution(
    low: np.ndarray, high: np.ndarray, probability: np.ndarray, a: float, b: float
) -> np.ndarray:
    """Each tuple's share of ``P(a <= value < b)``: ``p * (overlap / width)``
    where its range overlaps ``[a, b)``, else zero."""
    overlap = np.minimum(b, high) - np.maximum(a, low)
    return np.where(overlap > 0.0, probability * (overlap / (high - low)), 0.0)


def per_time_range_mass(columns: ViewColumns, a: float, b: float) -> np.ndarray:
    """``P(a <= value < b)`` at each of ``columns.times``.

    The contributions are computed on the flat columns, laid out by time
    (:meth:`ViewColumns.by_time`: a zero-copy reshape for a sorted view of
    equal-sized groups) and summed a column at a time, left to right — a
    ``mass += c`` loop's order, which ``np.add.reduceat``'s pairwise loop
    breaks — then capped at one.
    """
    contribution = range_contribution(
        columns.low, columns.high, columns.probability, a, b
    )
    mass = np.zeros(columns.times.size)
    for column in columns.by_time(contribution).T:
        mass += column
    return np.minimum(mass, 1.0)


# The cores over view columns, the row selection and argument domains.
def _expected_value(cols: ViewColumns, arguments: Arguments) -> np.ndarray:
    return per_time_expected_value(
        cols.low, cols.high, cols.probability, cols.order, cols.starts
    )


def _exceedance(cols: ViewColumns, arguments: Arguments) -> np.ndarray:
    return per_time_exceedance(
        cols.low, cols.high, cols.probability, cols.order, cols.starts, arguments[0]
    )


def _range_mass(cols: ViewColumns, arguments: Arguments) -> np.ndarray:
    return per_time_range_mass(cols, *arguments)


def _at_least_tau(cols: ViewColumns, arguments: Arguments) -> np.ndarray:
    return np.flatnonzero(cols.probability >= arguments[0])


def _check_tau(arguments: Arguments) -> Arguments:
    if not 0.0 <= arguments[0] <= 1.0:
        raise InvalidParameterError(
            f"threshold(tau) needs tau in [0, 1], got {arguments[0]}"
        )
    return arguments


def _check_value_range(arguments: Arguments) -> Arguments:
    if arguments[1] < arguments[0]:
        raise InvalidParameterError(
            f"probability_of(low, high) range is inverted: "
            f"[{arguments[0]}, {arguments[1]}]"
        )
    return arguments


def _check_simulate(arguments: Arguments) -> Arguments:
    for label, value, least in zip(("n_worlds", "seed"), arguments, (1, 0)):
        if value != int(value) or value < least:
            raise InvalidParameterError(
                f"simulate(n_worlds, seed) needs an integer {label} >= {least}, "
                f"got {value}"
            )
    if arguments[0] > MAX_WORLD_CELLS:
        raise InvalidParameterError(
            f"simulate(n_worlds, seed) needs n_worlds <= MAX_WORLD_CELLS = "
            f"{MAX_WORLD_CELLS}, got {arguments[0]:.0f}"
        )
    return tuple(float(int(value)) for value in arguments)


#: The aggregates a SELECT list (and a standing query) can name.
AGGREGATES: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        KernelSpec(
            name="threshold",
            parameters=("tau",),
            score_label="hits",
            validate=_check_tau,
            selection=_at_least_tau,
            score=_count,
            approx=True,
        ),
        KernelSpec(
            name="expected_value",
            parameters=(),
            score_label="mean_ev",
            core=_expected_value,
            score=_mean,
            approx=True,
        ),
        KernelSpec(
            name="exceedance",
            parameters=("threshold",),
            score_label="max_p",
            core=_exceedance,
            approx=True,
        ),
        KernelSpec(
            name="time_above",
            parameters=("threshold", "window"),
            score_label="max_expected_count",
            core=_exceedance,
            window_pass="sum",
            approx=True,
        ),
        KernelSpec(
            name="probability_of",
            parameters=("low", "high"),
            score_label="max_p",
            validate=_check_value_range,
            core=_range_mass,
        ),
        KernelSpec(
            name="sustained_exceedance",
            parameters=("threshold", "window"),
            score_label="max_p",
            core=_exceedance,
            window_pass="product",
        ),
        KernelSpec(
            name="windowed_expected_value",
            parameters=("window",),
            score_label="max_window_ev",
            core=_expected_value,
            window_pass="mean",
        ),
    )
}

#: The statement-level SIMULATE kernel (not addressable from a SELECT list).
SIMULATE_KERNEL = KernelSpec(
    "simulate", ("n_worlds", "seed"), "times", validate=_check_simulate, score=_count
)

#: Every kernel a worker can be asked to run, keyed by envelope name.
KERNELS: dict[str, KernelSpec] = {
    **AGGREGATES,
    SIMULATE_KERNEL.name: SIMULATE_KERNEL,
}
