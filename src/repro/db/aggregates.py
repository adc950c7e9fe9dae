"""The aggregate vocabulary: the one home of what every route computes.

A :class:`KernelSpec` is the one definition of an aggregate: its name,
its arguments (arity and domains, :meth:`KernelSpec.bind`), its ``TOP k``
score (:attr:`KernelSpec.score`, rendered under ``score_label``), and its
computation — ``threshold``'s row selection (``probability >= tau``), or
a per-time **core** over the view's columns (:func:`per_time_expected_value`,
:func:`per_time_exceedance` or :func:`per_time_range_mass`, all defined
here) followed by an optional **window pass**: the ``sum``, ``mean`` or
``product`` of every ``window`` consecutive per-time values, keyed by the
window's last time.  Every route runs through it: the planner binds
SELECT items against it, the service kernels (one series at a time) and
standing queries compute and score with it, and the one-shot python functions of
:mod:`repro.db.queries`, :mod:`repro.db.stream_queries` and
:func:`repro.db.worlds.conjunctive_range_query` are
:meth:`KernelSpec.one_shot` calls — so the routes validate alike and
agree bit for bit.

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
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.db.prob_view import ProbabilisticView, ViewColumns
from repro.exceptions import InvalidParameterError, QueryError

__all__ = [
    "AGGREGATES",
    "KERNELS",
    "KernelSpec",
    "SIMULATE_KERNEL",
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
        """This aggregate over the whole of ``view``, arguments bound first."""
        return self.evaluate(view, self.bind(arguments), whole=True)[0]

    def evaluate(
        self,
        view: ProbabilisticView,
        arguments: Arguments,
        carry: WindowCarry | None = None,
        *,
        whole: bool = False,
    ) -> tuple[Any, WindowCarry | None]:
        """The answer over ``view`` after ``carry``, and the next carry.

        The answer is the selected :class:`~repro.db.prob_view.ProbTuple`
        records, built by one :meth:`~repro.db.prob_view.ProbabilisticView.take`
        gather, or a dict of per-time (per-window-end) values.
        """
        cols = view.columns
        if self.selection is not None:
            return view.take(self.selection(cols, arguments)), None
        values = self.per_time(cols, arguments)
        times, values, carry = self.reduce(
            values, cols.times, arguments, carry, whole=whole
        )
        return dict(zip(times.tolist(), values.tolist())), carry

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
