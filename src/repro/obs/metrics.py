"""Zero-dependency metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` is the process-wide ledger every layer of the
stack writes into — the store counts segment reads, the cache exports its
hit/miss/byte gauges, the planner and executor record pruning counters and
per-aggregate latency histograms, the backends count fanned-out tasks, and
the server layers its request counters on top.  Reads come out two ways:

* :meth:`MetricsRegistry.snapshot` — a plain nested dict (JSON-ready),
  with streaming p50/p95/p99 estimates per histogram;
* :meth:`MetricsRegistry.exposition` — the Prometheus text exposition
  format (``# TYPE``/``# HELP`` headers, cumulative ``_bucket{le=...}``
  lines), what ``{"op": "metrics"}`` serves so any Prometheus-compatible
  scraper can consume a running server without an adapter.

Design constraints, in order:

1. **Cheap.**  Instrumentation is always on; a counter increment is one
   lock acquisition and one float add, a histogram observation adds one
   bisect over ~16 bucket edges.  The cost is measured where users pay
   it: ``benchmarks/e2e`` runs every workload with the default registry
   on, so it sits inside each gated end-to-end metric.
2. **Exact under concurrency.**  Every metric family carries its own
   lock; N threads hammering one counter lose no increments (pinned by
   ``tests/test_obs.py``).
3. **Zero dependencies.**  Stdlib only — the registry must be importable
   from the store layer and inside spawn-started worker processes.

:class:`Counter` and :class:`Gauge` are one labelled-value map (a float
per label set) that differs only in which writes it allows.  Every
write must be finite: a NaN or infinity raises ``ValueError`` at the
write, because once stored it would break every later scrape.

Quantiles are estimated from the histogram buckets Prometheus-style
(linear interpolation inside the bucket containing the target rank), so
they are streaming, mergeable, and O(buckets) to read — never a stored
sample list.  Every histogram uses :data:`DEFAULT_LATENCY_BUCKETS`.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
]

#: Every histogram's bucket upper bounds (seconds):
#: log-spaced from 100µs to 60s, the range catalog queries actually span.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Canonical, hashable form of a label set: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey, extra: str = "") -> str:
    """Render one label set as Prometheus ``{k="v",...}`` (or ``""``)."""
    parts = [
        f'{name}="{_escape_label(value)}"' for name, value in key
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _finite(metric: _Metric, value: float) -> float:
    """``value`` as a float; non-finite values raise before any write.

    One NaN or infinity would otherwise sit in the registry for good and
    break every later scrape: the exposition cannot render it as an
    integer and canonical JSON refuses it.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{metric.kind} {metric.name} got non-finite {value}")
    return value


def _format_value(value: float) -> str:
    """A float as Prometheus text: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    integral = int(value)
    return str(integral) if value == integral else repr(value)


class _Metric:
    """Shared plumbing: name/help validation, per-family lock, children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    @staticmethod
    def _check_labels(labels: dict[str, str]) -> dict[str, str]:
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        return labels


class _LabelledValue(_Metric):
    """One float per label set — what :class:`Counter` and :class:`Gauge` share.

    The map, its reads and both renderings live here; the subclasses
    only decide which writes they allow.
    """

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: dict[LabelKey, float] = {}

    def _write(self, value: float, labels: dict[str, str], *, add: bool) -> None:
        """Store (or, with ``add``, add) a finite ``value`` under ``labels``."""
        value = _finite(self, value)
        key = _label_key(self._check_labels(labels))
        with self._lock:
            if add:
                value += self._values.get(key, 0.0)
            self._values[key] = value

    def value(self, **labels: str) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _snapshot(self) -> dict[str, Any]:
        with self._lock:
            values = dict(self._values)
        snapshot: dict[str, Any] = {"type": self.kind, "help": self.help}
        if self.kind == "counter":
            snapshot["total"] = sum(values.values())
        snapshot["values"] = {
            _format_labels(key) or "": value
            for key, value in sorted(values.items())
        }
        return snapshot

    def _exposition(self) -> list[str]:
        with self._lock:
            values = dict(self._values)
        lines = _headers(self)
        if not values:
            values = {(): 0.0}
        for key, value in sorted(values.items()):
            lines.append(
                f"{self.name}{_format_labels(key)} {_format_value(value)}"
            )
        return lines


class Counter(_LabelledValue):
    """A monotonically increasing value, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._write(amount, labels, add=True)

    def total(self) -> float:
        """The sum across every label combination."""
        with self._lock:
            return sum(self._values.values())


class Gauge(_LabelledValue):
    """A point-in-time value that can move both ways (bytes, entries...)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._write(value, labels, add=False)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._write(amount, labels, add=True)


class _HistogramChild:
    """Bucket counts + sum for one label combination (lock held by parent)."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # Last slot is +Inf.
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket streaming histogram with quantile estimates.

    Buckets are cumulative in the exposition (Prometheus semantics) but
    stored per-bucket internally.  ``quantile(q)`` interpolates linearly
    inside the bucket containing the target rank — the standard
    ``histogram_quantile`` estimate, computed server-side so the CLI can
    print p50/p95/p99 without a PromQL engine.  Every histogram uses the
    :data:`DEFAULT_LATENCY_BUCKETS` edges.
    """

    kind = "histogram"
    buckets = DEFAULT_LATENCY_BUCKETS

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._children: dict[LabelKey, _HistogramChild] = {}

    def observe(self, value: float, **labels: str) -> None:
        value = _finite(self, value)
        key = _label_key(self._check_labels(labels))
        index = bisect_left(self.buckets, value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(
                    len(self.buckets)
                )
            child.counts[index] += 1
            child.total += value
            child.count += 1

    def count(self, **labels: str) -> int:
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            return child.count if child else 0

    def total_count(self) -> int:
        with self._lock:
            return sum(child.count for child in self._children.values())

    def quantile(self, q: float, **labels: str) -> float:
        """Estimated q-quantile (0 <= q <= 1) for one label combination.

        NaN when nothing was observed.  Values in the overflow (+Inf)
        bucket clamp to the largest finite edge — the estimate never
        invents a number beyond what the buckets can resolve.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return math.nan
            counts = list(child.counts)
            count = child.count
        return _estimate_quantile(self.buckets, counts, count, q)

    def _snapshot(self) -> dict[str, Any]:
        with self._lock:
            children = {
                key: (list(child.counts), child.count, child.total)
                for key, child in self._children.items()
            }
        values: dict[str, Any] = {}
        for key, (counts, count, total) in sorted(children.items()):
            quantiles = {
                label: _estimate_quantile(self.buckets, counts, count, q)
                for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
            }
            values[_format_labels(key) or ""] = {
                "count": count,
                "sum": total,
                **quantiles,
            }
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "values": values,
        }

    def _exposition(self) -> list[str]:
        with self._lock:
            children = {
                key: (list(child.counts), child.count, child.total)
                for key, child in self._children.items()
            }
        lines = _headers(self)
        if not children:
            children = {(): ([0] * (len(self.buckets) + 1), 0, 0.0)}
        for key, (counts, count, total) in sorted(children.items()):
            cumulative = 0
            for edge, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                labels = _format_labels(
                    key, f'le="{_format_value(edge)}"'
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _format_labels(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{labels} {count}")
            lines.append(
                f"{self.name}_sum{_format_labels(key)} "
                f"{_format_value(total)}"
            )
            lines.append(f"{self.name}_count{_format_labels(key)} {count}")
        return lines


def _estimate_quantile(
    edges: tuple[float, ...], counts: list[int], count: int, q: float
) -> float:
    rank = q * count
    cumulative = 0
    for index, bucket_count in enumerate(counts[:-1]):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= rank and bucket_count:
            upper = edges[index]
            lower = edges[index - 1] if index else 0.0
            fraction = (rank - previous) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return edges[-1]  # Overflow bucket: clamp to the largest edge.


def _headers(metric: _Metric) -> list[str]:
    lines = []
    if metric.help:
        lines.append(f"# HELP {metric.name} {metric.help}")
    lines.append(f"# TYPE {metric.name} {metric.kind}")
    return lines


class MetricsRegistry:
    """Named metric families plus scrape-time collectors.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family (so modules can register
    independently), asking for the same name with a different *type*
    raises — a silent type morph would corrupt the exposition.

    ``register_collector(fn)`` adds a callback invoked at the top of every
    :meth:`snapshot`/:meth:`exposition`, for values that are snapshots of
    external state rather than event streams (cache bytes, pool sizes).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Any] = []

    # ------------------------------------------------------------------
    # Factories.
    # ------------------------------------------------------------------
    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help_text)

    def _get_or_create(self, cls: type, name: str, help_text: str) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help_text)
            self._metrics[name] = metric
            return metric

    def register_collector(self, collector: Any) -> None:
        """Add a zero-argument callable run before every scrape."""
        with self._lock:
            self._collectors.append(collector)

    def unregister_collector(self, collector: Any) -> None:
        """Remove a collector (no-op when absent) — call on shutdown so a
        closed server's cache does not keep being scraped via the shared
        default registry."""
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    def _collect(self) -> list[_Metric]:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> dict[str, Any]:
        """Every metric as a JSON-ready dict (collectors run first)."""
        return {
            metric.name: metric._snapshot() for metric in self._collect()
        }

    def exposition(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for metric in self._collect():
            lines.extend(metric._exposition())
        return "\n".join(lines) + "\n" if lines else ""

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry({len(self._metrics)} metrics, "
                f"{len(self._collectors)} collectors)"
            )


#: The process-wide default registry.  The store layer's module-level
#: counters always land here; services and servers default to it too, so
#: one ``{"op": "metrics"}`` scrape sees the whole stack.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The shared process-wide registry (see module docs)."""
    return _DEFAULT
