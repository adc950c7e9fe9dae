"""Bit-exactness of the possible-worlds kernels against naive references.

``PROBABILITY OF`` and ``SIMULATE`` run as column passes over a view
(:func:`repro.db.aggregates.per_time_range_mass` and
:meth:`repro.db.worlds.WorldSampler.sample_matrix`).  Their answers are
canonical bytes and a seeded ``SIMULATE`` stream is a contract, so both
must equal the per-tuple python loops below — one ``ProbTuple`` at a time,
one scalar ``uniform()`` call per draw — with ``==``, never ``approx``:
the same floats summed in the same order, the same draws consumed in the
same order.

The last test holds sampled worlds to an exact distribution.  The number
of times in a window whose value lies in ``[a, b)`` is a sum of
independent Bernoulli variables, one per time, with success probability
the range mass at that time: a Poisson-binomial, whose PMF is the product
of ``T`` degree-1 generating polynomials (the per-tuple generating
functions of "Making massive probabilistic databases practical").
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.db.aggregates import per_time_range_mass
from repro.db.prob_view import ProbabilisticView
from repro.db.queries import range_probability_query
from repro.db.worlds import WorldSampler, conjunctive_range_query
from repro.service import CatalogQueryService
from repro.service.kernels import compute_chunk, restrict_time_range
from repro.service.planner import TaskEnvelope
from repro.store import Catalog
from repro.view.omega import OmegaGrid


# ----------------------------------------------------------------------
# Naive references: the per-tuple loops the column kernels replaced.
# ----------------------------------------------------------------------
def _ref_range_mass(view, t, low, high):
    """P(low <= value < high) at ``t``: one tuple at a time."""
    mass = 0.0
    for tup in view.tuples_at(t):
        overlap = min(high, tup.high) - max(low, tup.low)
        if overlap <= 0:
            continue
        mass += tup.probability * (overlap / (tup.high - tup.low))
    return min(mass, 1.0)


def _ref_conjunctive(view, predicates):
    probability = 1.0
    for t, (low, high) in predicates.items():
        if high == low:
            return 0.0
        probability *= _ref_range_mass(view, t, low, high)
        if probability == 0.0:
            break
    return probability


def _ref_sample(view, generator):
    """One world: per time a scalar selector draw, then a scalar
    ``uniform(low, high)`` inside the chosen range."""
    values = {}
    for t in view.times:
        tuples = view.tuples_at(t)
        cumulative = np.cumsum([tup.probability for tup in tuples])
        u = generator.uniform()
        if u >= cumulative[-1]:
            values[t] = None
            continue
        index = int(np.searchsorted(cumulative, u, side="right"))
        chosen = tuples[index]
        values[t] = float(generator.uniform(chosen.low, chosen.high))
    return values


# ----------------------------------------------------------------------
# Views and predicates.
# ----------------------------------------------------------------------
_EDGES = st.integers(0, 80)
_WEIGHTS = st.sampled_from([0.0, 0.125, 1.0]) | st.floats(1e-3, 1.0)


@st.composite
def _views(draw):
    """``from_columns`` views on a 0.25 grid (so predicates can sit on
    tuple edges), with zero-probability tuples, residual mass up to 0.5
    and times with gaps.  Either ragged — 1-24 tuples per time, tuples
    shuffled — or laid out as every pipeline-written segment is: sorted
    by time, one ``k`` for every time (the reshaped by-time layout)."""
    times = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    uniform = draw(st.booleans())
    if uniform:
        times.sort()
        width = draw(st.integers(1, 24))
    t, low, high, probability = [], [], [], []
    for time in times:
        k = width if uniform else draw(st.integers(1, 24))
        edges = sorted(draw(st.sets(_EDGES, min_size=k + 1, max_size=k + 1)))
        weights = draw(st.lists(_WEIGHTS, min_size=k, max_size=k))
        residual = draw(st.floats(0.0, 0.5))
        total = sum(weights)
        scale = (1.0 - residual) / total if total > 0.0 else 0.0
        t += [time] * k
        low += [15.0 + 0.25 * edge for edge in edges[:-1]]
        high += [15.0 + 0.25 * edge for edge in edges[1:]]
        probability += [weight * scale for weight in weights]
    order = list(range(len(t))) if uniform else draw(st.permutations(range(len(t))))
    columns = [np.array(column)[order] for column in (t, low, high, probability)]
    view = ProbabilisticView.from_columns("v", *columns)
    if uniform:
        assert view.columns.width == width
    return view


@st.composite
def _bounds(draw, view):
    """A half-open ``[a, b)``: ends on tuple edges or anywhere, maybe empty."""
    cols = view.columns
    edges = np.unique(np.concatenate([cols.low, cols.high])).tolist()
    point = st.sampled_from(edges) | st.floats(10.0, 40.0)
    a, b = sorted((draw(point), draw(point)))
    if draw(st.booleans()):
        b = a
    return a, b


def _range_mass(view, a, b):
    return per_time_range_mass(view.columns, a, b)


# ----------------------------------------------------------------------
# (a) Range probability: the core, its two query callers, the kernel.
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_range_mass_equals_reference(data):
    view = data.draw(_views())
    a, b = data.draw(_bounds(view))
    reference = [_ref_range_mass(view, t, a, b) for t in view.times]
    assert _range_mass(view, a, b).tobytes() == np.array(reference).tobytes()
    if b > a:
        assert list(range_probability_query(view, a, b).values()) == reference


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_conjunctive_range_query_equals_reference(data):
    view = data.draw(_views())
    times = data.draw(st.lists(st.sampled_from(view.times), min_size=1, unique=True))
    predicates = {t: data.draw(_bounds(view)) for t in times}
    assert conjunctive_range_query(view, predicates) == _ref_conjunctive(
        view, predicates
    )


class _Views:
    """A stand-in matrix cache holding already-built views."""

    def __init__(self, views):
        self._views = views

    def get(self, key, load):
        return self._views[key[0]]


def _envelope(series_id, arguments):
    return TaskEnvelope(
        series_id=series_id,
        directory="",
        segments=(),
        cache_key=(series_id, "", (), (), ()),
        aggregate="probability_of",
        arguments=arguments,
        time_lo=None,
        time_hi=None,
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chunk_probability_of_equals_reference(data):
    """Each series of a multi-series chunk equals the per-tuple loop."""
    views = data.draw(st.lists(_views(), min_size=2, max_size=4))
    bounds = data.draw(_bounds(views[0]))
    ids = [f"s{index}" for index in range(len(views))]
    cache = _Views(dict(zip(ids, views)))
    results = compute_chunk([_envelope(i, bounds) for i in ids], cache)
    assert [result.series_id for result in results] == ids
    for view, result in zip(views, results):
        reference = [_ref_range_mass(view, t, *bounds) for t in view.times]
        assert result.kind == "mapping"
        assert np.array_equal(result.arrays["times"], view.columns.times)
        assert result.arrays["values"].tobytes() == np.array(reference).tobytes()
        assert result.score == max(reference)


@pytest.mark.parametrize("shuffled", [False, True])
def test_signed_zero_contributions_sum_to_positive_zero(shuffled):
    """A time whose every contribution is ``0.0`` or ``-0.0`` has mass
    ``+0.0``, as ``0.0 + c`` summed from zero gives, in either layout."""
    t = np.repeat([0, 1, 2], 2)
    low = np.tile([20.0, 21.0], 3)
    high = low + 1.0
    probability = np.array([-0.0, -0.0, 0.0, -0.0, 0.5, 0.25])
    order = [4, 1, 5, 0, 3, 2] if shuffled else list(range(6))
    view = ProbabilisticView.from_columns(
        "v", t[order], low[order], high[order], probability[order]
    )
    assert view.columns.width == (0 if shuffled else 2)
    reference = [_ref_range_mass(view, time, 20.0, 22.0) for time in view.times]
    assert np.array(reference).tobytes() == np.array([0.0, 0.0, 0.75]).tobytes()
    assert _range_mass(view, 20.0, 22.0).tobytes() == np.array(reference).tobytes()
    assert repr(conjunctive_range_query(view, {0: (20.0, 22.0)})) == "0.0"
    cache = _Views({"s": view})
    (result,) = compute_chunk([_envelope("s", (20.0, 22.0))], cache)
    assert result.arrays["values"].tobytes() == np.array(reference).tobytes()


# ----------------------------------------------------------------------
# (b) Possible worlds: the same values from the same draws, no draw more.
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n_worlds=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_matrix_equals_reference_stream(data, n_worlds, seed):
    view = data.draw(_views())
    columnar = np.random.default_rng(seed)
    naive = np.random.default_rng(seed)
    matrix = WorldSampler(view).sample_matrix(n_worlds, columnar)
    expected = [
        [np.nan if v is None else v for v in _ref_sample(view, naive).values()]
        for _ in range(n_worlds)
    ]
    assert np.array_equal(matrix, expected, equal_nan=True)
    # Exact consumption: both generators stand at the same draw.
    assert columnar.random() == naive.random()


@st.composite
def _lossy_views(draw):
    """Views past ``_views``' reach, where the sampler's predicted branch
    (in range when ``sum(rho) > 0.5``) breaks often: up to 40 times, or
    none; residual in ``[0.5, 1]`` at every time, or anywhere in
    ``[0, 1]`` time by time; and times whose every tuple has mass zero,
    so every world is OUTSIDE there."""
    n_times = draw(st.integers(0, 40))
    heavy = draw(st.booleans())
    zero_share = draw(st.sampled_from([0.0, 0.25, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t, low, high, probability = [], [], [], []
    for time in range(n_times):
        k = int(rng.integers(1, 7))
        edges = 15.0 + 0.25 * np.sort(rng.choice(80, k + 1, replace=False))
        weights = rng.random(k)
        if rng.random() < zero_share:
            weights[:] = 0.0
        elif heavy:
            weights *= (1.0 - rng.uniform(0.5, 1.0)) / weights.sum()
        else:
            residual = rng.choice([0.0, 0.5, 1.0, rng.random()])
            weights *= (1.0 - residual) / weights.sum()
        t += [time] * k
        low += edges[:-1].tolist()
        high += edges[1:].tolist()
        probability += weights.tolist()
    return ProbabilisticView.from_columns(
        "v", np.array(t, dtype=np.int64), *map(np.array, (low, high, probability))
    )


def _assert_stream_equals_reference(view, n_worlds, seed):
    columnar = np.random.default_rng(seed)
    naive = np.random.default_rng(seed)
    matrix = WorldSampler(view).sample_matrix(n_worlds, columnar)
    expected = [
        [np.nan if v is None else v for v in _ref_sample(view, naive).values()]
        for _ in range(n_worlds)
    ]
    assert matrix.shape == (n_worlds, len(view.times))
    assert np.array_equal(
        matrix, np.array(expected).reshape(matrix.shape), equal_nan=True
    )
    assert columnar.random() == naive.random()
    return matrix


_EMPTY = ProbabilisticView.from_columns(
    "v", np.array([], dtype=np.int64), np.array([]), np.array([]), np.array([])
)


@settings(max_examples=25, deadline=None)
@example(view=_EMPTY, n_worlds=3, seed=0)
@given(
    view=_lossy_views(),
    n_worlds=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_matrix_equals_reference_when_predictions_break(view, n_worlds, seed):
    _assert_stream_equals_reference(view, n_worlds, seed)


@settings(max_examples=10, deadline=None)
@given(n_times=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_sample_matrix_mass_tied_with_its_draw(n_times, seed):
    """Time ``t``'s one tuple carries exactly the ``t``-th draw of the
    seeded stream as its mass.  ``u < sum(rho)`` is then false at every
    time of the first world: each is OUTSIDE and takes one draw, so each
    time reads its own tie, on either side of the 0.5 prediction."""
    ties = np.random.default_rng(seed).random(n_times)
    low = np.full(n_times, 20.0)
    view = ProbabilisticView.from_columns("v", np.arange(n_times), low, low + 1.0, ties)
    matrix = _assert_stream_equals_reference(view, 2, seed)
    assert np.isnan(matrix[0]).all()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sample_equals_reference_world(data, seed):
    view = data.draw(_views())
    sampler = WorldSampler(view)
    columnar = np.random.default_rng(seed)
    naive = np.random.default_rng(seed)
    for _ in range(3):
        assert sampler.sample(columnar).values == _ref_sample(view, naive)


# ----------------------------------------------------------------------
# (c) SIMULATE against the exact count distribution.
# ----------------------------------------------------------------------
def _poisson_binomial(probabilities):
    """PMF of a sum of independent Bernoullis: a product of ``1 - p + p z``."""
    pmf = np.array([1.0])
    for p in probabilities:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def _pooled(observed, expected, floor=5.0):
    """Merge adjacent bins, left to right, until each expects >= ``floor``."""
    pooled_observed, pooled_expected = [], []
    count, mass = 0.0, 0.0
    for o, e in zip(observed, expected):
        count, mass = count + o, mass + e
        if mass >= floor:
            pooled_observed.append(count)
            pooled_expected.append(mass)
            count, mass = 0.0, 0.0
    pooled_observed[-1] += count
    pooled_expected[-1] += mass
    return np.array(pooled_observed), np.array(pooled_expected)


def test_simulate_count_matches_poisson_binomial(tmp_path):
    catalog = Catalog(tmp_path / "catalog")
    catalog.create_series(
        "s", metric="variable_threshold", H=20, grid=OmegaGrid(0.5, n=4)
    )
    rng = np.random.default_rng(0)
    catalog.append("s", 20.0 + np.cumsum(rng.normal(0.0, 0.15, size=80)))
    lo, hi, a, b, n_worlds = 30, 59, 19.9, 20.6, 4000
    with CatalogQueryService(catalog, backend="sequential") as service:
        result = service.execute(
            f"SIMULATE {n_worlds} SEED 2011 FROM CATALOG '{catalog.root}' "
            f"WHERE t BETWEEN {lo} AND {hi}"
        )
    (entry,) = result.results
    counts = [
        sum(v is not None and a <= v < b for _t, v in world)
        for world in entry.result
    ]
    view = restrict_time_range(catalog.view("s"), lo, hi)
    pmf = _poisson_binomial(_range_mass(view, a, b))
    assert pmf.sum() == pytest.approx(1.0)
    observed = np.bincount(counts, minlength=pmf.size)
    pooled_observed, pooled_expected = _pooled(observed, n_worlds * pmf)
    assert pooled_expected.size >= 5  # The test sees the distribution's shape.
    _statistic, p_value = stats.chisquare(pooled_observed, pooled_expected)
    assert p_value > 1e-3
