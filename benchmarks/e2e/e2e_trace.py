"""Span recorder for the traced run, and the roll-up that reads it.

Spans are recorded from the benchmark's own code, around the public calls
into each layer — nothing under ``src/`` is edited or patched.  A span is
``{"id", "name", "start", "end", "parent", "op"}``; spans of one op share
its ``op`` number.  Two kinds of child exist:

* **nested** children ran inside their parent's interval (the stepwise
  replay of one statement: parse, plan, execute_plan …);
* **attributed** children ran *outside* it: a call the parent makes
  internally (``backend.map`` inside ``execute_plan``) cannot be wrapped
  from outside, so the harness repeats that call on the same inputs and
  files the timing under the parent.

A span's self time is its duration minus its children's, clamped at zero;
spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


def clock(call: Any, *args: Any) -> tuple[Any, float]:
    """``call(*args)`` and how long it took, in milliseconds."""
    start = time.perf_counter()
    result = call(*args)
    return result, (time.perf_counter() - start) * 1e3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._ops = 0
        #: Counts read at the same boundaries the spans mark.
        self.counts: dict[str, float] = {}
        #: Non-span samples (ratios, byte sizes), medianed at roll-up.
        self.samples: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time a block; nests under whichever span is open."""
        if not self._stack:
            self._ops += 1
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._ops,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def attribute(self, name: str, parent: int, call: Any, *args: Any) -> Any:
        """Time ``call(*args)`` now, file it as a child of span ``parent``."""
        start = time.perf_counter()
        result = call(*args)
        end = time.perf_counter()
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": self.spans[parent]["op"],
            }
        )
        return result

    def last_id(self) -> int:
        return len(self.spans) - 1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    # ------------------------------------------------------------------
    # Roll-up.
    # ------------------------------------------------------------------
    def duration_ms(self, span_id: int) -> float:
        span = self.spans[span_id]
        return (span["end"] - span["start"]) * 1e3

    def rollup(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, median total ms, median self ms."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] = children.get(
                    span["parent"], 0.0
                ) + self.duration_ms(span["id"])
        totals: dict[str, list[float]] = {}
        selfs: dict[str, list[float]] = {}
        for span in self.spans:
            total = self.duration_ms(span["id"])
            totals.setdefault(span["name"], []).append(total)
            selfs.setdefault(span["name"], []).append(
                max(total - children.get(span["id"], 0.0), 0.0)
            )
        return {
            name: {
                "calls": len(values),
                "total_ms": statistics.median(values),
                "self_ms": statistics.median(selfs[name]),
            }
            for name, values in totals.items()
        }

    def median_ms(self, name: str, primary: tuple[str, ...] = ()) -> float:
        """Median duration of the spans called ``name``; 0 if none ran.

        Where some of them belong to ops of a ``primary`` class only those
        count, so a layer's figure is not a median over cheap and dear
        statement classes mixed.
        """
        roots = {
            span["op"]: span["name"]
            for span in self.spans
            if span["parent"] is None
        }
        spans = [span for span in self.spans if span["name"] == name]
        chosen = [s for s in spans if roots.get(s["op"]) in primary] or spans
        values = [self.duration_ms(span["id"]) for span in chosen]
        return statistics.median(values) if values else 0.0

    def median_sample(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0

    def op_coverage(self) -> list[float]:
        """Per op: nested children's time as a share of the op span.

        Only children that ran inside the root's interval count — an
        attributed span explains its parent, it does not fill the op.
        """
        nested: dict[int, float] = {}
        for span in self.spans:
            parent = span["parent"]
            if parent is None or self.spans[parent]["parent"] is not None:
                continue
            root = self.spans[parent]
            if span["start"] >= root["start"] and span["end"] <= root["end"]:
                nested[parent] = nested.get(parent, 0.0) + self.duration_ms(
                    span["id"]
                )
        return [
            nested.get(span["id"], 0.0) / max(self.duration_ms(span["id"]), 1e-9)
            for span in self.spans
            if span["parent"] is None
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
