"""What a stored view looks like on disk: payloads, segment names, writes.

The one module that knows the store's file formats:

* **Column payloads.**  Schema-versioned binary files holding a view's (or
  density series') column arrays directly, so saving and loading a
  million-tuple view is a handful of bulk array writes instead of a
  per-tuple Python loop, and the round trip is bit-exact (float64 in,
  float64 out).  Every payload carries ``schema`` (format version) and
  ``kind`` (payload type); loaders reject another schema version with
  :class:`~repro.exceptions.SchemaVersionError` rather than misreading
  it.  A view payload is one ``.npz`` archive — the catalog segment and
  the :func:`save_view_npz` export alike.  Older builds could also write a
  segment as a ``.v2`` directory of raw ``.npy`` columns;
  :func:`load_view_columns` still reads those (picked by suffix), nothing
  writes them.
* **Segment names.**  The catalog (:mod:`repro.store.catalog`) stores one
  view payload per ingested micro-batch; :func:`segment_name`,
  :func:`next_segment_index` and :func:`remove_segment` are all there is
  to what a segment is called and how it is deleted.
* **Atomic writes.**  :func:`write_json_atomic` (catalog and series
  metadata) and the payload writers land everything under a same-directory
  temp name that is renamed into place and cleaned up on failure.

A segment's zone-map synopsis is *computed* here
(:func:`compute_view_synopsis`, returned by :func:`save_view_columns`) but
stored only in the series' ``series.json``.  Older builds also left a copy
in a ``<segment>.synopsis.json`` sidecar (``.npz``) or a ``synopsis`` key
of a ``.v2`` segment's ``meta.json``: both are ignored on read and swept
by :func:`remove_segment`.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.db.aggregates import per_time_exceedance, per_time_expected_value
from repro.db.prob_view import ProbabilisticView
from repro.exceptions import DataError, SchemaVersionError, StoreError
from repro.metrics.base import DensityForecast, DensitySeries
from repro.distributions.gaussian import Gaussian
from repro.distributions.uniform import Uniform

__all__ = [
    "EXC_SKETCH_EDGES",
    "PROB_HIST_BUCKETS",
    "SCHEMA_VERSION",
    "SYNOPSIS_VERSION",
    "check_schema_version",
    "compute_view_synopsis",
    "load_density_series_npz",
    "load_view_columns",
    "load_view_columns_npz",
    "load_view_npz",
    "next_segment_index",
    "remove_segment",
    "save_density_series_npz",
    "save_view_columns",
    "save_view_columns_npz",
    "save_view_npz",
    "segment_name",
    "write_json_atomic",
]

#: Version written into every binary file; bump on incompatible changes.
SCHEMA_VERSION = 1

#: Version stamped into every segment synopsis; readers treat synopses of
#: a different version as absent (lazy recompute / no pruning) rather than
#: misinterpreting their fields.
SYNOPSIS_VERSION = 1

#: Probability histogram granularity: tuple probabilities are counted into
#: ``PROB_HIST_BUCKETS`` equal-width buckets over [0, 1].  Bucket ``j``
#: holds tuples with ``j/B <= p < (j+1)/B`` (the last bucket is closed at
#: 1), assigned by exact comparison against the same ``j/B`` floats a
#: reader recomputes — so bucket membership gives *rigorous* per-bucket
#: probability bounds, not merely approximate ones.
PROB_HIST_BUCKETS = 20

#: Exceedance sketch granularity: per-time exceedance maxima are recorded
#: at this many threshold grid points spanning [low_min, high_max].
EXC_SKETCH_EDGES = 9

#: Every segment is written as one ``.npz`` archive.  A ``.v2`` name is a
#: legacy segment: a *directory* of one raw ``.npy`` per column plus a
#: small ``meta.json``, read-only.  A series may hold both; the name's
#: suffix decides how each segment loads.
_SEGMENT_SUFFIX = ".npz"
_LEGACY_V2_SUFFIX = ".v2"
_SEGMENT_RE = re.compile(r"^seg-(\d{8})(?:\.npz|\.v2)$")

#: Synopsis copy older builds left beside each ``.npz`` segment; never
#: read, only swept by :func:`remove_segment`.
_STALE_SIDECAR_SUFFIX = ".synopsis.json"

_KIND_VIEW = "view_columns"
_KIND_DENSITY = "density_columns"

_V2_META = "meta.json"
_VIEW_COLUMNS = ("t", "low", "high", "probability", "label_code")

#: Density-family dictionary codes (per-row, so mixed series round-trip).
_FAMILIES = ("gaussian", "uniform")


def check_schema_version(found: int, path: str | Path) -> None:
    """Reject data written under a different schema version.

    The single place the version contract is enforced — both the npz
    payloads here and the catalog's JSON metadata route through it.
    """
    if found != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path} was written under schema version {found}; this build "
            f"reads version {SCHEMA_VERSION}",
            found=found,
            expected=SCHEMA_VERSION,
        )


def _savez_exact(path: Path, **arrays: np.ndarray) -> None:
    """``np.savez`` to the literal path (no silent ``.npz`` suffixing).

    Writing through an open handle keeps save and load symmetric for
    suffix-less paths.  The write lands in a same-directory temp file that
    is renamed over the target, so a concurrent reader (or a crash
    mid-write) never observes a truncated file — the catalog's snapshot
    readers rely on every *named* segment being complete.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_header(path: Path, header: Any, schema_key: str, kind: str) -> None:
    """Reject a payload whose schema/kind header is absent or foreign."""
    if schema_key not in header or "kind" not in header:
        raise DataError(f"{path} carries no schema/kind header")
    check_schema_version(int(header[schema_key]), path)
    found_kind = str(header["kind"])
    if found_kind != kind:
        raise DataError(
            f"{path} holds {found_kind!r} data, expected {kind!r}"
        )


def _open_npz(path: str | Path, kind: str) -> np.lib.npyio.NpzFile:
    path = Path(path)
    try:
        payload = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise StoreError(f"no such store file: {path}") from None
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        # BadZipFile (a truncated/corrupt archive) subclasses neither
        # OSError nor ValueError; without it a damaged segment would leak
        # a raw zipfile exception past the ReproError hierarchy.
        raise DataError(f"{path} is not a readable npz file: {exc}") from exc
    _check_header(path, payload, "schema", kind)
    return payload


# ----------------------------------------------------------------------
# Probabilistic views.
# ----------------------------------------------------------------------
def save_view_npz(view: ProbabilisticView, path: str | Path) -> None:
    """Persist a view's column arrays (plus its label dictionary).

    One bulk write per column — no per-tuple objects, no text formatting.
    """
    cols = view.columns
    save_view_columns_npz(
        path,
        t=cols.t,
        low=cols.low,
        high=cols.high,
        probability=cols.probability,
        label_code=cols.label_code,
        labels=cols.labels,
    )


def save_view_columns_npz(
    path: str | Path,
    *,
    t: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    probability: np.ndarray,
    label_code: np.ndarray,
    labels: tuple[str, ...],
) -> None:
    """Raw-column variant of :func:`save_view_npz` (the segment writer)."""
    _savez_exact(
        Path(path),
        schema=np.int64(SCHEMA_VERSION),
        kind=np.str_(_KIND_VIEW),
        t=np.ascontiguousarray(t, dtype=np.int64),
        low=np.ascontiguousarray(low, dtype=float),
        high=np.ascontiguousarray(high, dtype=float),
        probability=np.ascontiguousarray(probability, dtype=float),
        label_code=np.ascontiguousarray(label_code, dtype=np.int64),
        labels=np.array(labels if labels else ("",), dtype=np.str_),
    )


def load_view_columns_npz(path: str | Path) -> dict[str, np.ndarray]:
    """Load the raw column payload of one view file / catalog segment."""
    payload = _open_npz(path, _KIND_VIEW)
    return {key: payload[key] for key in (*_VIEW_COLUMNS, "labels")}


# ----------------------------------------------------------------------
# Segment synopses: zone-map metadata computed once at write time.
# ----------------------------------------------------------------------
def compute_view_synopsis(
    t: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    probability: np.ndarray,
) -> dict:
    """The zone-map synopsis of one segment's column payload.

    Everything the planner needs to *prove* a segment cannot contribute
    to a query (time range, maximum tuple probability) plus the sketches
    the APPROX estimators interpolate over:

    * per-time expected-value partial sums and extrema, computed by the
      ``expected_value`` core :func:`repro.db.aggregates.per_time_expected_value`
      (mass-normalised; degenerate groups fall back to the support
      midpoint) so the segment bounds enclose the exact per-time values;
    * a :data:`PROB_HIST_BUCKETS`-bucket histogram of tuple
      probabilities, bucketed by exact comparison against ``j/B`` so a
      reader can derive rigorous threshold-count bounds;
    * an exceedance sketch: ``max_t P(value > theta)`` at
      :data:`EXC_SKETCH_EDGES` grid thresholds spanning the segment's
      value support, through the ``exceedance`` core
      :func:`repro.db.aggregates.per_time_exceedance`.  Exceedance is
      non-increasing in ``theta``, so adjacent grid values bracket the
      true maximum at any threshold between them.

    All values are plain Python ints/floats (JSON round-trips Python
    floats exactly), keyed by :data:`SYNOPSIS_VERSION`.
    """
    t = np.ascontiguousarray(t, dtype=np.int64)
    low = np.ascontiguousarray(low, dtype=float)
    high = np.ascontiguousarray(high, dtype=float)
    probability = np.ascontiguousarray(probability, dtype=float)
    if not t.size:
        return {"version": SYNOPSIS_VERSION, "rows": 0, "times": 0}
    order = np.argsort(t, kind="stable")
    ts = t[order]
    starts = np.flatnonzero(np.concatenate(([True], ts[1:] != ts[:-1])))
    masses = np.add.reduceat(probability[order], starts)
    ev = per_time_expected_value(low, high, probability, order, starts)
    bucket_edges = np.arange(1, PROB_HIST_BUCKETS) / PROB_HIST_BUCKETS
    hist = np.bincount(
        np.searchsorted(bucket_edges, probability, side="right"),
        minlength=PROB_HIST_BUCKETS,
    )
    low_min = float(low.min())
    high_max = float(high.max())
    exc_edges = np.linspace(low_min, high_max, EXC_SKETCH_EDGES)
    exc_max = [
        float(
            per_time_exceedance(
                low, high, probability, order, starts, theta
            ).max()
        )
        for theta in exc_edges
    ]
    return {
        "version": SYNOPSIS_VERSION,
        "rows": int(t.size),
        "times": int(starts.size),
        "t_min": int(ts[0]),
        "t_max": int(ts[-1]),
        "prob_max": float(probability.max()),
        "low_min": low_min,
        "high_max": high_max,
        "mass_max": float(masses.max()),
        "ev_sum": float(ev.sum()),
        "ev_min": float(ev.min()),
        "ev_max": float(ev.max()),
        "prob_hist": [int(count) for count in hist],
        "exc_edges": [float(edge) for edge in exc_edges],
        "exc_max": exc_max,
    }


def write_json_atomic(path: Path, payload: dict) -> None:
    """Write ``payload`` so readers never observe a half-written file.

    Small-JSON sibling of ``_savez_exact``; the leading-dot temp name
    cannot collide with a series directory (ids start with a letter or
    underscore) and is removed if the write or the rename fails.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# Segment names.
# ----------------------------------------------------------------------
def segment_name(index: int) -> str:
    """The file name of segment ``index``."""
    return f"seg-{index:08d}{_SEGMENT_SUFFIX}"


def next_segment_index(existing: list[str]) -> int:
    """First segment index after ``existing`` (indices never reused)."""
    indices = [
        int(match.group(1))
        for name in existing
        if (match := _SEGMENT_RE.match(name))
    ]
    return max(indices, default=0) + 1


def remove_segment(directory: Path, name: str) -> None:
    """Delete one segment: an ``.npz`` file or a legacy ``.v2`` directory."""
    target = directory / name
    if target.is_dir():
        shutil.rmtree(target, ignore_errors=True)
    else:
        target.unlink(missing_ok=True)
        target.with_name(name + _STALE_SIDECAR_SUFFIX).unlink(
            missing_ok=True
        )


# ----------------------------------------------------------------------
# Segment I/O.
# ----------------------------------------------------------------------
def save_view_columns(
    path: str | Path,
    *,
    t: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    probability: np.ndarray,
    label_code: np.ndarray,
    labels: tuple[str, ...],
) -> dict:
    """Write one ``.npz`` segment and return its zone-map synopsis.

    The synopsis is computed from the columns being written (one extra
    vectorised pass over data already in memory); the caller records it
    in ``series.json``, its only home.
    """
    synopsis = compute_view_synopsis(t, low, high, probability)
    save_view_columns_npz(
        path,
        t=t,
        low=low,
        high=high,
        probability=probability,
        label_code=label_code,
        labels=labels,
    )
    return synopsis


def load_view_columns(path: str | Path) -> dict[str, np.ndarray]:
    """Load one segment; a ``.v2`` suffix marks a legacy directory."""
    path = Path(path)
    if path.suffix == _LEGACY_V2_SUFFIX:
        return _load_view_columns_v2(path)
    return load_view_columns_npz(path)


def _load_view_columns_v2(path: Path) -> dict[str, np.ndarray]:
    """Read one legacy ``.v2`` segment directory (nothing writes them now)."""
    try:
        meta = json.loads((path / _V2_META).read_text())
    except FileNotFoundError:
        raise StoreError(f"no such store file: {path}") from None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path} is not a readable v2 segment: {exc}") from exc
    _check_header(path, meta, "schema_version", _KIND_VIEW)
    columns: dict[str, np.ndarray] = {}
    for name in _VIEW_COLUMNS:
        column_path = path / f"{name}.npy"
        try:
            columns[name] = np.load(column_path, allow_pickle=False)
        except FileNotFoundError:
            raise DataError(f"{path} is missing column {name!r}") from None
        except (OSError, ValueError) as exc:
            raise DataError(
                f"{column_path} is not a readable npy file: {exc}"
            ) from exc
    columns["labels"] = np.array(meta.get("labels") or [""], dtype=np.str_)
    return columns


def load_view_npz(path: str | Path, name: str | None = None) -> ProbabilisticView:
    """Rebuild a view previously written by :func:`save_view_npz`.

    The view name defaults to the file stem.  Validation (range order,
    probability bounds, per-time mass) reruns as the usual vectorised pass,
    so a corrupted file fails loudly instead of producing a broken view.
    """
    path = Path(path)
    columns = load_view_columns_npz(path)
    return ProbabilisticView.from_columns(
        name or path.stem,
        columns["t"],
        columns["low"],
        columns["high"],
        columns["probability"],
        label_code=columns["label_code"],
        label_pool=tuple(str(label) for label in columns["labels"]),
    )


# ----------------------------------------------------------------------
# Density series.
# ----------------------------------------------------------------------
def _family_codes(series: DensitySeries) -> np.ndarray:
    """Per-forecast family codes; rejects non-location-scale densities.

    Series carrying a homogeneous :attr:`DensitySeries.family` tag resolve
    without materialising a single forecast; only object-built (possibly
    mixed) series fall back to inspecting the non-Gaussian rows.
    """
    if series.family in _FAMILIES:
        code = _FAMILIES.index(series.family)
        return np.full(len(series), code, dtype=np.int8)
    mask, _mu, _sigma = series.gaussian_params()
    codes = np.where(mask, 0, 1).astype(np.int8)
    for index in np.flatnonzero(~mask):
        distribution = series[int(index)].distribution
        if not isinstance(distribution, Uniform):
            raise StoreError(
                f"cannot persist distribution family "
                f"{type(distribution).__name__}; only Gaussian and Uniform "
                "are storable"
            )
    return codes


def save_density_series_npz(series: DensitySeries, path: str | Path) -> None:
    """Persist a density series through its column arrays.

    Families are dictionary-coded per row (Gaussian/Uniform), so mixed
    series survive; anything else raises
    :class:`~repro.exceptions.StoreError`.
    The exact variance column rides along when the series carries one, so
    reloaded Gaussians skip the lossy ``sqrt``/square round trip.
    """
    columns = {
        "schema": np.int64(SCHEMA_VERSION),
        "kind": np.str_(_KIND_DENSITY),
        "t": np.ascontiguousarray(series.times, dtype=np.int64),
        "mean": np.ascontiguousarray(series.means, dtype=float),
        "volatility": np.ascontiguousarray(series.volatilities, dtype=float),
        "lower": np.ascontiguousarray(series.lowers, dtype=float),
        "upper": np.ascontiguousarray(series.uppers, dtype=float),
        "family_code": _family_codes(series),
    }
    if series.variances is not None:
        columns["variance"] = np.ascontiguousarray(series.variances, dtype=float)
    _savez_exact(Path(path), **columns)


def load_density_series_npz(path: str | Path) -> DensitySeries:
    """Rebuild a density series written by :func:`save_density_series_npz`.

    Homogeneous files come back through the lazy
    :meth:`DensitySeries.from_columns` path (no per-forecast objects);
    mixed Gaussian/Uniform files materialise row by row.
    """
    payload = _open_npz(path, _KIND_DENSITY)
    codes = payload["family_code"]
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= len(_FAMILIES)):
        raise DataError(f"{path} carries unknown density family codes")
    t = payload["t"]
    mean = payload["mean"]
    volatility = payload["volatility"]
    lower = payload["lower"]
    upper = payload["upper"]
    variance = payload["variance"] if "variance" in payload else None
    distinct = np.unique(codes)
    if distinct.size <= 1:
        family = _FAMILIES[int(distinct[0])] if distinct.size else "gaussian"
        return DensitySeries.from_columns(
            t, mean, volatility, lower, upper, family=family,
            variance=variance,
        )
    forecasts = []
    for index in range(t.size):
        if int(codes[index]) == 0:
            sigma2 = (
                float(variance[index])
                if variance is not None
                else float(volatility[index]) ** 2
            )
            distribution = Gaussian(float(mean[index]), sigma2)
        else:
            distribution = Uniform(float(lower[index]), float(upper[index]))
        forecasts.append(DensityForecast(
            t=int(t[index]),
            mean=float(mean[index]),
            distribution=distribution,
            lower=float(lower[index]),
            upper=float(upper[index]),
            volatility=float(volatility[index]),
        ))
    return DensitySeries(forecasts)
