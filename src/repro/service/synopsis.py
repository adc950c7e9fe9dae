"""Zone-map pruning and synopsis-only APPROX estimation.

The planner consults this module twice:

* **Exact pruning** (:func:`prune_segments`) — given a series snapshot
  and a bound query, which segments can *provably* not contribute?  The
  rules are deliberately conservative so pruned execution is
  bit-identical to unpruned execution:

  - *Time pruning* (all aggregates): a segment whose ``[t_min, t_max]``
    misses the WHERE range entirely holds only rows
    :func:`~repro.service.kernels.restrict_time_range` would discard.
    Each distinct time's tuples live in exactly one segment (appends emit
    whole-time matrix rows and times never repeat across appends; static
    views are single-segment), so dropping the segment removes no
    per-time result group and no surviving row.
  - *Probability pruning* (the row-selecting ``threshold`` only): a
    segment with ``prob_max < tau`` holds no row satisfying
    ``probability >= tau``.
    The other aggregates return per-time mappings that include zero
    entries, so value-based dropping would change result *keys* — those
    aggregates only ever prune on time.

  A segment without a synopsis always survives — old catalogs run
  unpruned rather than wrongly.

* **APPROX estimation** (:func:`estimate_series`) — answer an aggregate
  from synopses alone, returning an interval ``[lower, upper]`` that
  provably contains the exact answer plus a point estimate inside it.
  The discipline throughout: *lower* bounds may only use segments fully
  covered by the WHERE range (their times are all guaranteed to
  contribute), while *upper* bounds take every intersecting segment;
  when no segment is fully covered the interval is widened to include
  0.0, because the exact result could be empty (score 0).  Since the
  estimate is clamped into the interval, ``|exact - estimate| <=
  error_bound`` where ``error_bound = max(estimate - lower,
  upper - estimate)``.  Each ``approx``
  :data:`~repro.db.aggregates.AGGREGATES` entry has its estimator here,
  keyed by the aggregate's name.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

from repro.db.aggregates import KERNELS
from repro.store.binary import PROB_HIST_BUCKETS
from repro.store.catalog import RevisionFrontier, SeriesSnapshot

__all__ = [
    "ApproxEstimate",
    "estimate_series",
    "prune_segments",
]

Synopsis = dict[str, Any]


# ----------------------------------------------------------------------
# Exact pruning.
# ----------------------------------------------------------------------
def _overlaps(synopsis: Synopsis, lo: float | None, hi: float | None) -> bool:
    """Whether the segment's time range intersects the inclusive WHERE range."""
    if lo is not None and synopsis["t_max"] < lo:
        return False
    if hi is not None and synopsis["t_min"] > hi:
        return False
    return True


def _covered(synopsis: Synopsis, lo: float | None, hi: float | None) -> bool:
    """Whether every time of the segment lies inside the WHERE range."""
    if lo is not None and synopsis["t_min"] < lo:
        return False
    if hi is not None and synopsis["t_max"] > hi:
        return False
    return True


def _contributes(
    synopsis: Synopsis | None, tau: float | None, lo: float | None, hi: float | None
) -> bool:
    """False only when the synopsis *proves* the segment cannot matter."""
    if synopsis is None:
        return True  # No synopsis, no proof: must scan.
    if not synopsis.get("rows") or not _overlaps(synopsis, lo, hi):
        return False  # Provably empty, or outside the WHERE range.
    return tau is None or synopsis["prob_max"] >= tau


def prune_segments(
    source: SeriesSnapshot | RevisionFrontier,
    aggregate: str,
    arguments: tuple[float, ...],
    lo: float | None,
    hi: float | None,
) -> tuple[str, ...]:
    """The source's segments that must be scanned, in stored order.

    ``source`` is either a full :class:`SeriesSnapshot` or a resolved
    :class:`RevisionFrontier` (the AS OF view: only segments visible at
    the knowledge time, with their stored synopses).  Stored synopses
    stay conservative-safe for partially-shadowed segments — shadowing
    only *removes* rows, so a segment whose full synopsis proves
    non-contribution certainly cannot contribute after masking.

    Preserving the stored order matters: the surviving segments are
    column-concatenated exactly as the full list would be, so row order
    (and therefore ``threshold``'s tuple order) is unchanged.
    """
    getter = getattr(source, "segment_synopses", None)
    synopses = getter() if callable(getter) else source.synopses
    # Only a row-selecting kernel drops rows by probability.
    tau = arguments[0] if KERNELS[aggregate].kind == "rows" else None
    return tuple(
        name
        for name, synopsis in zip(source.segments, synopses)
        if _contributes(synopsis, tau, lo, hi)
    )


# ----------------------------------------------------------------------
# APPROX estimation.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ApproxEstimate:
    """A synopsis-only answer: a point estimate inside a proven interval."""

    estimate: float
    lower: float
    upper: float

    @property
    def error_bound(self) -> float:
        """``|exact - estimate|`` can never exceed this."""
        return max(self.estimate - self.lower, self.upper - self.estimate)

    def as_result(self) -> dict[str, float]:
        return {
            "estimate": self.estimate,
            "error_bound": self.error_bound,
            "lower": self.lower,
            "upper": self.upper,
        }


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def _coverage_fraction(
    synopsis: Synopsis, lo: float | None, hi: float | None
) -> float:
    """Estimated fraction of the segment's times inside the WHERE range.

    Heuristic (times assumed uniform over the span) — used only for
    point estimates, never for bounds.
    """
    if _covered(synopsis, lo, hi):
        return 1.0
    t_min, t_max = synopsis["t_min"], synopsis["t_max"]
    span = t_max - t_min + 1
    inside_lo = t_min if lo is None else max(t_min, math.ceil(lo))
    inside_hi = t_max if hi is None else min(t_max, math.floor(hi))
    return max(0.0, (inside_hi - inside_lo + 1) / span)


def _threshold_counts(synopsis: Synopsis, tau: float) -> tuple[int, int, float]:
    """``(guaranteed, possible, estimated)`` tuples with ``p >= tau``.

    Bucket ``j`` of the probability histogram holds tuples with
    ``j/B <= p < (j+1)/B`` by *exact* float comparison (the writer
    bucketed against the same ``j/B`` values computed here), so
    ``guaranteed`` counts whole buckets at or above ``tau`` and
    ``possible`` adds the straddling bucket.  The estimate assumes the
    straddling bucket is uniformly filled.
    """
    if synopsis["prob_max"] < tau:
        return 0, 0, 0.0
    buckets = PROB_HIST_BUCKETS
    hist = synopsis["prob_hist"]
    guaranteed = possible = 0
    estimated = 0.0
    for j in range(buckets):
        lo_edge = j / buckets
        hi_edge = (j + 1) / buckets
        if lo_edge >= tau:
            guaranteed += hist[j]
            possible += hist[j]
            estimated += hist[j]
        elif j == buckets - 1 or tau < hi_edge:
            # Straddling bucket: members may sit on either side of tau.
            # (The last bucket is closed at 1.0, so it straddles whenever
            # prob_max allows — already ruled out above when it cannot.)
            possible += hist[j]
            fraction = (hi_edge - tau) * buckets
            estimated += hist[j] * _clamp(fraction, 0.0, 1.0)
    return guaranteed, possible, estimated


def _exceedance_bounds(
    synopsis: Synopsis, theta: float
) -> tuple[float, float, float]:
    """``(lower, upper, estimated)`` for ``max_t P(value > theta)``.

    Exceedance is non-increasing in ``theta``, so the sketch values at
    the grid edges bracketing ``theta`` bound the true maximum; the
    estimate interpolates linearly between them.
    """
    edges = synopsis["exc_edges"]
    values = synopsis["exc_max"]
    if theta <= edges[0]:
        # At or below the support: every range lies fully above, so the
        # per-time exceedance is exactly min(mass, 1).
        exact = min(synopsis["mass_max"], 1.0)
        return exact, exact, exact
    if theta > edges[-1]:
        return 0.0, 0.0, 0.0  # Above the support: exactly zero.
    if theta == edges[-1]:
        return values[-1], values[-1], values[-1]
    j = bisect_right(edges, theta) - 1  # edges[j] <= theta < edges[j+1]
    lower, upper = values[j + 1], values[j]
    width = edges[j + 1] - edges[j]
    if width <= 0.0:
        return lower, upper, upper
    estimated = upper + (lower - upper) * (theta - edges[j]) / width
    return lower, upper, _clamp(estimated, lower, upper)


def _estimate_threshold(
    segments: list[Synopsis],
    arguments: tuple[float, ...],
    lo: float | None,
    hi: float | None,
) -> ApproxEstimate:
    tau = arguments[0]
    lower = upper = 0
    estimated = 0.0
    for synopsis in segments:
        guaranteed, possible, segment_est = _threshold_counts(synopsis, tau)
        if _covered(synopsis, lo, hi):
            lower += guaranteed
            estimated += segment_est
        else:
            estimated += segment_est * _coverage_fraction(synopsis, lo, hi)
        upper += possible
    return ApproxEstimate(
        estimate=_clamp(estimated, float(lower), float(upper)),
        lower=float(lower),
        upper=float(upper),
    )


def _estimate_expected_value(
    segments: list[Synopsis],
    arguments: tuple[float, ...],
    lo: float | None,
    hi: float | None,
) -> ApproxEstimate:
    if not segments:
        return ApproxEstimate(0.0, 0.0, 0.0)
    lower = min(synopsis["ev_min"] for synopsis in segments)
    upper = max(synopsis["ev_max"] for synopsis in segments)
    if not any(_covered(synopsis, lo, hi) for synopsis in segments):
        # Possibly no time contributes at all: the exact score would be 0.
        lower = min(lower, 0.0)
        upper = max(upper, 0.0)
    weighted = count = 0.0
    for synopsis in segments:
        fraction = _coverage_fraction(synopsis, lo, hi)
        weighted += synopsis["ev_sum"] * fraction
        count += synopsis["times"] * fraction
    estimated = weighted / count if count > 0.0 else 0.0
    return ApproxEstimate(_clamp(estimated, lower, upper), lower, upper)


def _estimate_exceedance(
    segments: list[Synopsis],
    arguments: tuple[float, ...],
    lo: float | None,
    hi: float | None,
) -> ApproxEstimate:
    lower = upper = estimated = 0.0
    for synopsis in segments:
        seg_lower, seg_upper, seg_est = _exceedance_bounds(synopsis, arguments[0])
        if _covered(synopsis, lo, hi):
            lower = max(lower, seg_lower)
        upper = max(upper, seg_upper)
        estimated = max(estimated, seg_est)
    return ApproxEstimate(_clamp(estimated, lower, upper), lower, upper)


def _estimate_time_above(
    segments: list[Synopsis],
    arguments: tuple[float, ...],
    lo: float | None,
    hi: float | None,
) -> ApproxEstimate:
    # Bounds on the best single time's exceedance, then the window sum.
    window = int(arguments[1])
    peak = _estimate_exceedance(segments, arguments, lo, hi)
    covered_times = sum(int(s["times"]) for s in segments if _covered(s, lo, hi))
    upper = min(float(window), window * peak.upper) if segments else 0.0
    # A window sum dominates the single best time only when at least one
    # full window of guaranteed-contributing times exists.
    lower = peak.lower if covered_times >= window else 0.0
    return ApproxEstimate((lower + upper) / 2.0, lower, upper)


#: The APPROX estimator of each ``approx`` aggregate, by name.
_ESTIMATORS = {
    "threshold": _estimate_threshold,
    "expected_value": _estimate_expected_value,
    "exceedance": _estimate_exceedance,
    "time_above": _estimate_time_above,
}


def estimate_series(
    aggregate: str,
    arguments: tuple[float, ...],
    synopses: list[Synopsis],
    lo: float | None,
    hi: float | None,
) -> ApproxEstimate:
    """Estimate one series' score for ``aggregate`` from synopses alone.

    ``synopses`` must cover every segment (the executor computes missing
    ones lazily before calling).  The returned interval contains the
    exact score whenever the exact query is well-defined — ``time_above``
    raises on non-contiguous or too-short views, which no synopsis can
    detect; APPROX answers those with its interval instead of raising.
    """
    estimator = _ESTIMATORS.get(aggregate)
    if estimator is None:
        raise ValueError(f"no APPROX estimator for aggregate {aggregate!r}")
    live = [
        synopsis
        for synopsis in synopses
        if synopsis.get("rows") and _overlaps(synopsis, lo, hi)
    ]
    return estimator(live, arguments, lo, hi)
