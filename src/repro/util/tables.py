"""Plain-text table rendering for the experiment harness and the CLI.

The benchmark modules print the same rows/series the paper's figures report;
this module renders them as aligned ASCII tables so the output is readable in
pytest logs without any plotting dependency.  :func:`render_result` is the
one query-result renderer the CLI ``query`` verb prints through — it
consumes the serialized payload shape
(:meth:`~repro.service.executor.StatementResult.to_dict` / the wire
result), so in-process and over-the-wire results render identically.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any


def _render_cell(value: Any, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: str | None = None,
    float_format: str = ".4g",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Floats are formatted with ``float_format``; booleans print as yes/no.
    Returns the table as a single string (no trailing newline).

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  ---
    1  2.5
    """
    header_cells = [str(h) for h in headers]
    body = [[_render_cell(value, float_format) for value in row] for row in rows]
    for row in body:
        if len(row) != len(header_cells):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(header_cells)} headers"
            )
    widths = [len(cell) for cell in header_cells]
    for row in body:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def join(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(join(header_cells))
    lines.append(join(["-" * width for width in widths]))
    lines.extend(join(row) for row in body)
    return "\n".join(lines)


def render_result(payload: dict[str, Any], head: int) -> str:
    """Human-readable rendering of a serialized query result payload.

    Accepts every result ``kind`` the engine produces (``select`` — exact
    or with the ``approx`` flag —, ``multi_select``, ``simulate``,
    ``view``) in its ``to_dict()`` / wire form.  Returns the rendered
    block without a trailing newline.
    """
    lines: list[str] = []
    kind = payload.get("kind")
    if kind == "view":
        tuples = payload.get("tuples", [])
        lines.append(
            f"created view {payload.get('name')!r} ({len(tuples)} tuples)"
        )
        lines.append(format_table(
            ["t", "low", "high", "probability", "label"], tuples[:head]
        ))
        if len(tuples) > head:
            lines.append(f"... ({len(tuples) - head} more tuples)")
        return "\n".join(lines)
    if kind == "multi_select":
        return "\n\n".join(
            render_result(item, head)
            for item in payload.get("statements", [])
        )
    entries = payload.get("results", [])
    if kind == "simulate":
        lines.append(
            f"simulate({payload.get('n_worlds')} worlds, "
            f"seed {payload.get('seed')}) over "
            f"{len(payload.get('matched', []))} matched series:\n"
        )
        lines.append(format_table(
            ["series", "worlds", "times"],
            [[entry["series"],
              len(entry["worlds"]),
              len(entry["worlds"][0]) if entry["worlds"] else 0]
             for entry in entries],
        ))
        top = next(
            (e for e in entries if e["worlds"] and e["worlds"][0]), None
        )
        if top is not None:
            lines.append(f"\nhead of {top['series']!r}, world 0:")
            lines.append(format_table(
                ["t", "value"],
                [[t, "(outside)" if v is None else round(v, 6)]
                 for t, v in top["worlds"][0][:head]],
            ))
            if len(top["worlds"][0]) > head:
                lines.append(
                    f"... ({len(top['worlds'][0]) - head} more rows)"
                )
        return "\n".join(lines)
    if payload.get("approx"):
        lines.append(
            f"APPROX {payload.get('aggregate')} over "
            f"{len(payload.get('matched', []))} matched series "
            f"(answered from synopses):\n"
        )
        lines.append(format_table(
            ["series", "estimate", "error_bound", "lower", "upper"],
            [[entry["series"],
              round(entry["approx"]["estimate"], 6),
              round(entry["approx"]["error_bound"], 6),
              round(entry["approx"]["lower"], 6),
              round(entry["approx"]["upper"], 6)]
             for entry in entries],
        ))
        return "\n".join(lines)
    lines.append(
        f"{payload.get('aggregate')} over "
        f"{len(payload.get('matched', []))} "
        f"matched series ({len(entries)} returned):\n"
    )
    lines.append(format_table(
        ["series", payload.get("score_label", "score"), "rows"],
        [[entry["series"], round(entry["score"], 6), len(entry["rows"])]
         for entry in entries],
    ))
    if entries:
        top = entries[0]
        lines.append(f"\nhead of {top['series']!r}:")
        rows = top["rows"][:head]
        if rows and len(rows[0]) == 5:
            lines.append(format_table(
                ["t", "low", "high", "probability", "label"], rows
            ))
        else:
            lines.append(format_table(["t", "value"], rows))
        if len(top["rows"]) > head:
            lines.append(f"... ({len(top['rows']) - head} more rows)")
    return "\n".join(lines)


def render_pruning(pruning: dict[str, Any]) -> str:
    """The one-line pruning summary ``query --stats`` prints."""
    return (
        f"pruning: scanned {pruning.get('segments_scanned', 0)}/"
        f"{pruning.get('segments_total', 0)} segments "
        f"({pruning.get('segments_pruned', 0)} pruned), skipped "
        f"{pruning.get('series_skipped', 0)}/"
        f"{pruning.get('series_matched', 0)} series"
        + (" [approx]" if pruning.get("approx") else "")
    )
