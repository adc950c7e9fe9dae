"""What a stored view looks like on disk: payloads, segment names, writes.

The one module that knows the store's file formats:

* **Segments.**  The catalog (:mod:`repro.store.catalog`) stores one view
  payload per ingested micro-batch as one ``seg-NNNNNNNN.seg`` file: a
  fixed little-endian header (magic, :data:`SCHEMA_VERSION`, a kind code,
  row count, label-block length), then the ``t`` / ``low`` / ``high`` /
  ``probability`` / ``label_code`` columns as contiguous 8-byte arrays,
  then the label pool as a UTF-8 JSON list.  A load
  (:func:`read_segment`) is one ``os.readv`` of the whole file and five
  ``np.frombuffer`` views over that buffer — no archive directory, no
  per-column header parse — and the round trip is bit-exact (float64
  in, float64 out).  Older builds wrote a segment as one ``.npz``
  archive or as a ``.v2`` directory of raw ``.npy`` columns;
  :func:`read_segment` and :func:`load_view_columns` still read both
  (picked by suffix), nothing writes them.
* **Exports.**  :func:`save_view_npz` and :func:`save_density_series_npz`
  write interchange ``.npz`` archives, not segments.
* **Versioning.**  Every payload carries its schema version and kind;
  loaders reject another schema version with
  :class:`~repro.exceptions.SchemaVersionError` and any malformed file
  with :class:`~repro.exceptions.DataError` rather than misreading it.
* **Segment names.**  :func:`segment_name`, :func:`next_segment_index`
  and :func:`remove_segment` are all there is to what a segment is
  called and how it is deleted.
* **Atomic writes.**  Every writer here lands its file under a
  same-directory temp name that is renamed into place and cleaned up on
  failure (:func:`_replace_atomically`).

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
import struct
import zipfile
from collections.abc import Callable
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.db.aggregates import per_time_exceedance, per_time_expected_value
from repro.db.prob_view import ProbabilisticView
from repro.exceptions import (
    DataError,
    InvalidParameterError,
    SchemaVersionError,
    StoreError,
)
from repro.metrics.base import DensitySeries

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
    "read_segment",
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

#: Every segment is written as one ``.seg`` file.  ``.npz`` (one archive)
#: and ``.v2`` (a *directory* of one raw ``.npy`` per column plus a small
#: ``meta.json``) are legacy segments, read-only.  A series may hold all
#: three; the name's suffix decides how each segment loads.
_SEGMENT_SUFFIX = ".seg"
_LEGACY_NPZ_SUFFIX = ".npz"
_LEGACY_V2_SUFFIX = ".v2"
_SEGMENT_RE = re.compile(r"^seg-(\d{8})(?:\.seg|\.npz|\.v2)$")

#: Synopsis copy older builds left beside each ``.npz`` segment; never
#: read, only swept by :func:`remove_segment`.
_STALE_SIDECAR_SUFFIX = ".synopsis.json"

#: The ``.seg`` header: magic, schema version, kind code, row count and
#: label-block length, little-endian; 32 bytes, so every column after it
#: starts 8-byte aligned.
_SEG_HEADER = struct.Struct("<8sIIqq")
_SEG_MAGIC = b"REPROSEG"
#: Kind codes of a ``.seg`` file.  Only view columns exist; a density
#: segment would be a second code over the same header.
_SEG_KIND_VIEW = 1
#: Column order and dtype of a view segment; every column is 8 bytes wide.
_SEG_VIEW_COLUMNS = (
    ("t", np.dtype("<i8")),
    ("low", np.dtype("<f8")),
    ("high", np.dtype("<f8")),
    ("probability", np.dtype("<f8")),
    ("label_code", np.dtype("<i8")),
)
_SEG_ROW_BYTES = sum(dtype.itemsize for _, dtype in _SEG_VIEW_COLUMNS)

_KIND_VIEW = "view_columns"
_KIND_DENSITY = "density_columns"

_V2_META = "meta.json"
_VIEW_COLUMNS = ("t", "low", "high", "probability", "label_code")


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


def _replace_atomically(path: Path, write: Callable[[IO[bytes]], None]) -> None:
    """Run ``write`` on a same-directory temp file, then rename it to ``path``.

    A concurrent reader (or a crash mid-write) never observes a truncated
    file — the catalog's snapshot readers rely on every *named* segment
    being complete.  The leading-dot temp name cannot collide with a
    series directory (ids start with a letter or underscore) and is
    removed if the write or the rename fails.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _savez_exact(path: Path, **arrays: np.ndarray) -> None:
    """``np.savez`` to the literal path (no silent ``.npz`` suffixing).

    Writing through an open handle keeps save and load symmetric for
    suffix-less paths.
    """
    _replace_atomically(path, lambda handle: np.savez(handle, **arrays))


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


def _read_npz(
    path: str | Path,
    kind: str,
    names: tuple[str, ...],
    optional: tuple[str, ...] = (),
) -> dict[str, np.ndarray]:
    """The ``names`` (and any present ``optional``) members of one ``.npz``.

    Every member is read here, inside the one ``try``, so a missing
    member, a bad CRC or a malformed ``.npy`` header raises
    :class:`~repro.exceptions.DataError` naming the file instead of a raw
    ``KeyError`` / ``zipfile.BadZipFile`` / ``ValueError``.
    """
    path = Path(path)
    member = "the archive directory"
    try:
        with np.load(path, allow_pickle=False) as payload:
            member = "its schema/kind header"
            _check_header(path, payload, "schema", kind)
            columns = {}
            for member in (*names, *(n for n in optional if n in payload)):
                columns[member] = payload[member]
    except DataError:
        raise  # A foreign kind, already named by _check_header.
    except FileNotFoundError:
        raise StoreError(f"no such store file: {path}") from None
    except KeyError:
        raise DataError(f"{path} is missing column {member!r}") from None
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        # BadZipFile (a truncated archive, a bad CRC) subclasses neither
        # OSError nor ValueError; without it a damaged segment would leak
        # a raw zipfile exception past the ReproError hierarchy.
        raise DataError(
            f"{path} is not a readable npz file ({member}): {exc}"
        ) from exc
    return columns


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
    """Raw-column variant of :func:`save_view_npz` (an export, not a segment)."""
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
    """Load the raw columns of one view export or legacy ``.npz`` segment."""
    return _read_npz(path, _KIND_VIEW, (*_VIEW_COLUMNS, "labels"))


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

    Small-JSON sibling of :func:`_replace_atomically`, with the same
    temp-name and cleanup protocol.
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
    """Delete one segment: a file, or a legacy ``.v2`` directory."""
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
    """Write one ``.seg`` segment at ``path`` and return its zone-map synopsis.

    The file lands at ``path`` whatever its suffix.  The synopsis is
    computed from the columns being written (one extra vectorised pass
    over data already in memory); the caller records it in
    ``series.json``, its only home.
    """
    arrays = [
        np.ascontiguousarray(column, dtype=dtype)
        for column, (_, dtype) in zip(
            (t, low, high, probability, label_code), _SEG_VIEW_COLUMNS
        )
    ]
    rows = arrays[0].size
    if any(array.shape != (rows,) for array in arrays):
        raise DataError(
            "segment columns must be 1-d and of one length, got shapes "
            f"{[array.shape for array in arrays]}"
        )
    synopsis = compute_view_synopsis(*arrays[:4])
    label_block = json.dumps(
        [str(label) for label in labels] or [""], separators=(",", ":")
    ).encode()
    header = _SEG_HEADER.pack(
        _SEG_MAGIC, SCHEMA_VERSION, _SEG_KIND_VIEW, rows, len(label_block)
    )

    def write(handle: IO[bytes]) -> None:
        handle.write(header)
        for array in arrays:
            handle.write(array.data)
        handle.write(label_block)

    _replace_atomically(Path(path), write)
    return synopsis


def load_view_columns(path: str | Path) -> dict[str, np.ndarray]:
    """:func:`read_segment` with the label pool as an ``np.str_`` array."""
    columns, labels = read_segment(os.fspath(path))
    columns["labels"] = np.array(labels, dtype=np.str_)
    return columns


def read_segment(path: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """One segment's five columns and its label pool, by the path's suffix.

    The catalog's per-segment read: ``path`` is a plain ``str`` and the
    pool stays a ``list[str]``, so a ``.seg`` load builds no ``Path`` and
    no string array.  A ``.seg`` file is one ``os.readv`` into one
    buffer and five writable array views over it, with the dtypes
    ``np.load`` gives for the legacy formats.  Anything but a well-formed
    file of exactly header + 40 bytes per row + label block raises
    :class:`~repro.exceptions.DataError` (or
    :class:`~repro.exceptions.SchemaVersionError`); a missing one raises
    :class:`~repro.exceptions.StoreError`.
    """
    if path.endswith(_LEGACY_V2_SUFFIX):
        columns = _load_view_columns_v2(Path(path))
    elif path.endswith(_LEGACY_NPZ_SUFFIX):
        columns = load_view_columns_npz(path)
    else:
        return _read_seg(path)
    return columns, [str(label) for label in columns.pop("labels")]


def _read_seg(path: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """:func:`read_segment` of one ``.seg`` file."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            buffer = bytearray(os.fstat(fd).st_size)
            del buffer[os.readv(fd, [buffer]):]
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise StoreError(f"no such store file: {path}") from None
    except OSError as exc:
        raise DataError(f"{path} is not a readable segment: {exc}") from exc
    if len(buffer) < _SEG_HEADER.size:
        raise DataError(f"{path} is truncated inside its header")
    magic, schema, kind, rows, label_bytes = _SEG_HEADER.unpack_from(buffer)
    if magic != _SEG_MAGIC:
        raise DataError(f"{path} is not a segment file (bad magic)")
    check_schema_version(schema, path)
    if kind != _SEG_KIND_VIEW:
        raise DataError(f"{path} holds segment kind {kind}, expected view columns")
    expected = _SEG_HEADER.size + _SEG_ROW_BYTES * rows + label_bytes
    if rows < 0 or label_bytes < 0 or len(buffer) != expected:
        raise DataError(
            f"{path} is {len(buffer)} bytes; its header ({rows} rows, "
            f"{label_bytes} label bytes) says {expected}"
        )
    columns: dict[str, np.ndarray] = {}
    offset = _SEG_HEADER.size
    for name, dtype in _SEG_VIEW_COLUMNS:
        columns[name] = np.frombuffer(buffer, dtype, rows, offset)
        offset += dtype.itemsize * rows
    try:
        labels = json.loads(buffer[offset:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path} has an unreadable label block: {exc}") from exc
    if not isinstance(labels, list) or not all(
        isinstance(label, str) for label in labels
    ):
        raise DataError(f"{path}'s label block is not a list of strings")
    return columns, labels or [""]


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
def save_density_series_npz(series: DensitySeries, path: str | Path) -> None:
    """Persist a density series through its column arrays.

    The per-row ``family_code`` column (Gaussian/uniform) is written as
    it is, so mixed series survive.  The exact variance column rides
    along when the series carries one, so reloaded Gaussians skip the
    lossy ``sqrt``/square round trip.
    """
    columns = {
        "schema": np.int64(SCHEMA_VERSION),
        "kind": np.str_(_KIND_DENSITY),
        "t": np.ascontiguousarray(series.times, dtype=np.int64),
        "mean": np.ascontiguousarray(series.means, dtype=float),
        "volatility": np.ascontiguousarray(series.volatilities, dtype=float),
        "lower": np.ascontiguousarray(series.lowers, dtype=float),
        "upper": np.ascontiguousarray(series.uppers, dtype=float),
        "family_code": np.ascontiguousarray(series.family_codes, dtype=np.int8),
    }
    if series.variances is not None:
        columns["variance"] = np.ascontiguousarray(series.variances, dtype=float)
    _savez_exact(Path(path), **columns)


def load_density_series_npz(path: str | Path) -> DensitySeries:
    """Rebuild a density series written by :func:`save_density_series_npz`.

    Every file, mixed or not, comes back through
    :meth:`DensitySeries.from_columns` with its ``family_code`` column.
    Codes or parameters a series cannot hold
    raise :class:`~repro.exceptions.DataError` naming the file.
    """
    payload = _read_npz(
        path,
        _KIND_DENSITY,
        ("family_code", "t", "mean", "volatility", "lower", "upper"),
        optional=("variance",),
    )
    try:
        return DensitySeries.from_columns(
            payload["t"],
            payload["mean"],
            payload["volatility"],
            payload["lower"],
            payload["upper"],
            family=payload["family_code"],
            variance=payload.get("variance"),
        )
    except (DataError, InvalidParameterError) as exc:
        raise DataError(f"{path}: {exc}") from exc
