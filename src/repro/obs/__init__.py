"""repro.obs — observability for the whole store/service/server stack.

Three small, dependency-free pieces every other layer threads through:

* :mod:`repro.obs.metrics` — a process-wide metrics registry (counters,
  gauges, histograms with streaming p50/p95/p99) with JSON snapshots and
  Prometheus text exposition.  The store counts segment reads into it,
  the cache exports its occupancy, the executor records per-aggregate
  latency histograms and pruning counters, the server its request
  counters — one scrape sees the stack.
* :mod:`repro.obs.trace` — per-query trace spans (parse → plan → prune →
  fan-out → per-series load/compute → serialize) carried on a
  :class:`~repro.obs.trace.QueryTrace` context object, with worker-side
  spans from either backend merged into the parent trace.
* :mod:`repro.obs.slowlog` — a ring-buffer slow-query log keyed off the
  trace wall time, with a configurable threshold.

Instrumentation is always on: every number ``benchmarks/e2e`` reports is
measured with the default registry enabled, so its cost is inside each
gated end-to-end metric rather than a figure of its own.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.slowlog import DEFAULT_SLOW_QUERY_MS, SlowQueryLog
from repro.obs.trace import MAX_SERIES_SPANS, QueryTrace, Span

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SLOW_QUERY_MS",
    "Gauge",
    "Histogram",
    "MAX_SERIES_SPANS",
    "MetricsRegistry",
    "QueryTrace",
    "SlowQueryLog",
    "Span",
    "default_registry",
]
