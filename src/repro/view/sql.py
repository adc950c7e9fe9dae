"""SQL-like language for probabilistic view generation (paper Fig. 7).

The paper's offline mode lets users create probabilistic views with a
declarative query::

    CREATE VIEW prob_view AS DENSITY r OVER t
        OMEGA delta=2, n=2
        FROM raw_values
        WHERE t >= 1 AND t <= 3

This module implements a tokenizer and recursive-descent parser for that
syntax plus the natural extensions the framework needs (all optional):

* ``METRIC arma_garch (p=1, kappa=3.0)`` — which dynamic density metric to
  use and its parameters (default: ``arma_garch``);
* ``WINDOW 60``                        — sliding-window size ``H``;
* ``CACHE (distance=0.01)`` / ``CACHE (memory=32)`` — sigma-cache
  constraints (omitting the clause disables the cache);
* ``PERSIST INTO '/path/to/catalog'`` — additionally store the created
  view in the :class:`repro.store.catalog.Catalog` at that path, where it
  survives the process.

A second statement queries every stored view of a catalog at once::

    SELECT exceedance(21.0), expected_value
        FROM CATALOG '/data/catalogs/main'
        SERIES 'sensor-*'
        WHERE t BETWEEN 100 AND 500
        TOP 5

The select list holds one or more comma-separated items, each either an
aggregate — ``threshold(tau)``, ``expected_value``,
``exceedance(threshold)``, ``time_above(threshold, window)``,
``sustained_exceedance(threshold, window)``,
``windowed_expected_value(window)``, as registered with their ``TOP k``
scores in :data:`repro.db.aggregates.AGGREGATES` — or the
possible-worlds row expression ``PROBABILITY OF <column> BETWEEN a AND
b`` (the exact per-time probability that the value lies in the half-open
range ``[a, b)``, answered by the range-mass core
:func:`repro.db.aggregates.per_time_range_mass`).  ``SERIES``
glob-selects the series ids (default: all); ``TOP k`` keeps the k
highest-scoring series.  An optional ``APPROX`` modifier directly after
``SELECT`` answers a single aggregate from stored segment synopses alone
— per series an ``(estimate, error_bound)`` pair instead of exact rows,
in time independent of the stored tuple count.  An optional ``AS OF
<knowledge_time>`` clause (after WHERE, before TOP) replays the catalog
as known at that knowledge time: revisions recorded later are invisible
(see :meth:`repro.store.catalog.SeriesSnapshot.as_of`).

``SIMULATE`` samples complete possible worlds from every matched series
(the MCDB-style ``SIMULATE`` of BQL) over the same clauses, ``TOP``
excepted::

    SIMULATE 32 SEED 7 FROM CATALOG '/data/catalogs/main'
        SERIES 'sensor-*'
        WHERE t BETWEEN 100 AND 500

``SEED`` pins the deterministic per-series sampling streams (omitted: the
framework default seed); the result is bit-identical across executor
backends.  A seed is at most ``2**53``, the range in which the float the
parser reads it as is exact; a larger literal is refused rather than
rounded onto a neighbour's worlds.  A world count is at most
:data:`MAX_WORLD_CELLS` (``2**20``), the world cells (worlds × times) one
series may draw; a series with more times than that allows is refused by
its kernel before it draws.

Keywords are case-insensitive; identifiers and numbers follow Python rules.
Parsing produces an inert :class:`ViewQuery` (``CREATE VIEW``) or
:class:`CatalogQuery` (``SELECT`` and ``SIMULATE`` alike — ``SIMULATE`` is
the statement whose one item is ``simulate``).  Routing belongs to
:class:`repro.db.engine.Database`, planning and execution of catalog
statements to :mod:`repro.service`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import Any

from repro.exceptions import ParseError, QueryError
from repro.view.omega import OmegaGrid

__all__ = [
    "CatalogQuery",
    "MAX_WORLD_CELLS",
    "SelectItem",
    "ViewQuery",
    "parse_statement",
    "render_number",
    "render_statement",
    "with_as_of",
]

#: The largest ``SEED``: every integer up to it is exact as a float.
_MAX_SEED = 1 << 53

#: The most world cells (``n_worlds`` × the series' times) one series'
#: ``SIMULATE`` may draw, so the world count alone is at most this too.
MAX_WORLD_CELLS = 1 << 20

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)
  | (?P<string>'[^']*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<op><=|>=|=|,|\(|\)|<|>)
    """,
    re.VERBOSE,
)

# Reserved words rejected where an identifier is expected.  The SELECT
# statement's own keywords (select/catalog/series/top) are deliberately
# NOT in this set: they are matched positionally by the select grammar,
# so CREATE VIEW statements can keep using words like ``series`` as
# table or column names.
_KEYWORDS = {
    "create", "view", "as", "density", "over", "omega", "metric",
    "window", "cache", "from", "where", "and", "between", "persist",
    "into",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "string" | "ident" | "op" | "end"
    text: str
    position: int

    @property
    def lowered(self) -> str:
        return self.text.lower()


@dataclass
class ViewQuery:
    """Parsed form of a ``CREATE VIEW ... AS DENSITY ...`` statement."""

    view_name: str
    value_column: str
    time_column: str
    delta: float
    n: int
    table_name: str
    metric_name: str = "arma_garch"
    metric_params: dict[str, Any] = field(default_factory=dict)
    window: int | None = None
    cache_distance: float | None = None
    cache_memory: int | None = None
    time_lo: float | None = None
    time_hi: float | None = None
    persist_path: str | None = None

    @property
    def uses_cache(self) -> bool:
        return self.cache_distance is not None or self.cache_memory is not None

    def grid(self) -> OmegaGrid:
        """The ``(Delta, n)`` view parameters of the OMEGA clause.

        The engine hands this to :meth:`ViewBuilder.build_matrix` and
        ``ProbabilisticView.from_matrix`` when executing the statement
        through the columnar batch path.
        """
        return OmegaGrid(delta=self.delta, n=self.n)


@dataclass(frozen=True)
class SelectItem:
    """One entry of a SELECT list, exactly as written.

    ``name`` is the kernel the planner resolves (an aggregate name,
    ``"probability_of"`` for the ``PROBABILITY OF`` row expression, or
    ``"simulate"`` for the one item of a ``SIMULATE`` statement) and
    ``arguments`` its positional numeric arguments — validating them
    against the known kernels is the planner's job
    (:mod:`repro.service.planner`), keeping this form inert.  ``column``
    carries the value-column identifier of a ``PROBABILITY OF`` item
    (``None`` for plain aggregates).  ``SIMULATE n [SEED s]`` is
    ``simulate`` with arguments ``(n,)`` or ``(n, s)``: an omitted seed
    stays omitted here and is resolved by the planner.
    """

    name: str
    arguments: tuple[float, ...] = ()
    column: str | None = None

    def label(self) -> str:
        """This item as text: ``exceedance(21)``, ``PROBABILITY OF ...``.

        Select-list items render exactly as the grammar accepts them;
        ``simulate``, which the grammar spells as a statement head,
        renders as the ``simulate(8 worlds, seed 3)`` plans show.
        """
        if self.name == "probability_of":
            low, high = self.arguments
            column = self.column or "v"
            return (
                f"PROBABILITY OF {column} BETWEEN {render_number(low)} "
                f"AND {render_number(high)}"
            )
        if self.name == "simulate":
            n_worlds, *seed = self.arguments
            seeded = f", seed {int(seed[0])}" if seed else ""
            return f"simulate({int(n_worlds)} worlds{seeded})"
        if self.arguments:
            arguments = ", ".join(render_number(a) for a in self.arguments)
            return f"{self.name}({arguments})"
        # Zero-argument aggregates are written bare — the grammar
        # rejects an empty argument list.
        return self.name


@dataclass(frozen=True)
class CatalogQuery:
    """Parsed form of a ``SELECT`` / ``SIMULATE ... FROM CATALOG`` statement.

    ``items`` holds the select list in written order; a ``SIMULATE``
    statement is the query whose only item is ``simulate`` (it draws that
    many complete possible worlds per matched series through
    :mod:`repro.db.worlds`).
    """

    items: tuple[SelectItem, ...]
    catalog_path: str
    series_pattern: str = "*"
    time_lo: float | None = None
    time_hi: float | None = None
    top_k: int | None = None
    #: ``SELECT APPROX ...``: answer from segment synopses alone, as an
    #: ``(estimate, error_bound)`` pair per series, in sublinear time.
    approx: bool = False
    #: ``AS OF <knowledge_time>``: replay the catalog as known at that
    #: knowledge time (None: newest — every recorded revision applies).
    as_of: int | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r} at offset {position}",
                position,
            )
        if match.lastgroup != "ws":
            kind = match.lastgroup or "op"
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token plumbing -------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def expect_keyword(self, keyword: str) -> _Token:
        token = self.advance()
        if token.kind != "ident" or token.lowered != keyword:
            raise ParseError(
                f"expected keyword {keyword.upper()!r}, got {token.text!r}",
                token.position,
            )
        return token

    def accept_keyword(self, keyword: str) -> bool:
        token = self.peek()
        if token.kind == "ident" and token.lowered == keyword:
            self.advance()
            return True
        return False

    def expect_ident(self, what: str) -> str:
        token = self.advance()
        if token.kind != "ident" or token.lowered in _KEYWORDS:
            raise ParseError(
                f"expected {what}, got {token.text!r}", token.position
            )
        return token.text

    def expect_op(self, op: str) -> None:
        token = self.advance()
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r}, got {token.text!r}", token.position)

    def expect_number(self, what: str) -> float:
        token = self.advance()
        if token.kind != "number":
            raise ParseError(
                f"expected a number for {what}, got {token.text!r}", token.position
            )
        value = float(token.text)
        if not math.isfinite(value):
            raise ParseError(
                f"{what} must be a finite number, got {token.text!r}",
                token.position,
            )
        return value

    def expect_string(self, what: str) -> str:
        token = self.advance()
        if token.kind != "string":
            raise ParseError(
                f"expected a quoted string for {what}, got {token.text!r}",
                token.position,
            )
        return token.text[1:-1]

    def expect_int(self, what: str) -> int:
        value = self.expect_number(what)
        if value != int(value):
            raise ParseError(f"{what} must be an integer, got {value}")
        return int(value)

    # -- grammar --------------------------------------------------------
    def parse_statement(self) -> ViewQuery | CatalogQuery:
        """Dispatch on the leading keyword (CREATE / SELECT / SIMULATE)."""
        token = self.peek()
        if token.kind == "ident" and token.lowered == "select":
            return self.parse_select()
        if token.kind == "ident" and token.lowered == "simulate":
            return self.parse_simulate()
        return self.parse()

    def parse_select(self) -> CatalogQuery:
        self.expect_keyword("select")
        # Optional APPROX modifier: answer from synopses with error
        # bounds.  Matched positionally (like select/catalog/series/top)
        # so CREATE VIEW statements keep "approx" usable as a name.
        approx = self.accept_keyword("approx")
        items = [self._parse_select_item()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            items.append(self._parse_select_item())
        if approx and len(items) > 1:
            raise ParseError(
                "APPROX supports a single aggregate, got a select list "
                f"of {len(items)} items"
            )
        return self._parse_catalog_tail(items, approx=approx, top=True)

    def parse_simulate(self) -> CatalogQuery:
        """``SIMULATE n [SEED s] FROM CATALOG '<path>' [SERIES ...] [WHERE ...]``."""
        self.expect_keyword("simulate")
        token = self.peek()
        n_worlds = self.expect_int("SIMULATE world count")
        if n_worlds < 1:
            raise ParseError(
                f"SIMULATE world count must be >= 1, got {n_worlds}"
            )
        if n_worlds > MAX_WORLD_CELLS:
            raise ParseError(
                f"SIMULATE world count must be <= MAX_WORLD_CELLS = "
                f"{MAX_WORLD_CELLS} (world cells per series), got {token.text}",
                token.position,
            )
        arguments: tuple[float, ...] = (float(n_worlds),)
        if self.accept_keyword("seed"):
            token = self.peek()
            seed = self.expect_int("SEED value")
            if seed < 0:
                raise ParseError(f"SEED must be >= 0, got {seed}")
            # The literal, not its float: 2**53 + 1 reads as 2**53.
            if Decimal(token.text) > _MAX_SEED:
                raise ParseError(
                    f"SEED must be <= 2**53 = {_MAX_SEED}, got {token.text}",
                    token.position,
                )
            arguments += (float(seed),)
        item = SelectItem(name="simulate", arguments=arguments)
        return self._parse_catalog_tail([item], approx=False, top=False)

    def _parse_catalog_tail(
        self, items: list[SelectItem], *, approx: bool, top: bool
    ) -> CatalogQuery:
        """``FROM CATALOG '<path>' [SERIES] [WHERE] [AS OF] [TOP k]`` + end.

        The clauses every catalog statement shares; ``top`` says whether
        the statement's grammar has a ``TOP`` clause (SIMULATE does not).
        """
        self.expect_keyword("from")
        self.expect_keyword("catalog")
        catalog_path = self.expect_string("catalog path")
        series_pattern = "*"
        if self.accept_keyword("series"):
            series_pattern = self.expect_string("series pattern")
        time_lo: float | None = None
        time_hi: float | None = None
        if self.accept_keyword("where"):
            time_lo, time_hi = self._parse_where("t")
        as_of = self._parse_as_of()
        top_k: int | None = None
        if top and self.accept_keyword("top"):
            top_k = self.expect_int("TOP count")
            if top_k < 1:
                raise ParseError(f"TOP count must be >= 1, got {top_k}")
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(
                f"unexpected trailing input {tail.text!r}", tail.position
            )
        return CatalogQuery(
            items=tuple(items),
            catalog_path=catalog_path,
            series_pattern=series_pattern,
            time_lo=time_lo,
            time_hi=time_hi,
            top_k=top_k,
            approx=approx,
            as_of=as_of,
        )

    def _parse_as_of(self) -> int | None:
        """Optional ``AS OF <knowledge_time>`` clause (None when absent)."""
        if not self.accept_keyword("as"):
            return None
        self.expect_keyword("of")
        as_of = self.expect_int("AS OF knowledge time")
        if as_of < 0:
            raise ParseError(
                f"AS OF knowledge time must be >= 0, got {as_of}"
            )
        return as_of

    def _parse_select_item(self) -> SelectItem:
        """One select-list entry: an aggregate call or ``PROBABILITY OF``."""
        token = self.peek()
        if token.kind == "ident" and token.lowered == "probability":
            self.advance()
            self.expect_keyword("of")
            column = self.expect_ident("PROBABILITY OF value column")
            self.expect_keyword("between")
            low = self.expect_number("PROBABILITY OF lower value bound")
            self.expect_keyword("and")
            high = self.expect_number("PROBABILITY OF upper value bound")
            if high < low:
                raise ParseError(
                    "PROBABILITY OF range is inverted: "
                    f"[{render_number(low)}, {render_number(high)}]",
                    token.position,
                )
            return SelectItem(
                name="probability_of", arguments=(low, high), column=column
            )
        name, arguments = self._parse_aggregate()
        return SelectItem(name=name, arguments=arguments)

    def _parse_aggregate(self) -> tuple[str, tuple[float, ...]]:
        """``<name> [( number {, number} )]`` — e.g. ``time_above(21, 5)``."""
        token = self.advance()
        if token.kind != "ident" or token.lowered in _KEYWORDS:
            raise ParseError(
                f"expected an aggregate name, got {token.text!r}",
                token.position,
            )
        name = token.lowered
        if name == "simulate":
            # SIMULATE is a statement of its own; without this a select
            # list could spell the same query a second way.
            raise ParseError(
                "simulate is not a select-list aggregate; write "
                "SIMULATE n [SEED s] FROM CATALOG ...",
                token.position,
            )
        arguments: list[float] = []
        if self.peek().kind == "op" and self.peek().text == "(":
            self.advance()
            while True:
                arguments.append(self.expect_number("aggregate argument"))
                token = self.advance()
                if token.kind == "op" and token.text == ")":
                    break
                if not (token.kind == "op" and token.text == ","):
                    raise ParseError(
                        f"expected ',' or ')' in aggregate arguments, got "
                        f"{token.text!r}",
                        token.position,
                    )
        return name, tuple(arguments)

    def parse(self) -> ViewQuery:
        self.expect_keyword("create")
        self.expect_keyword("view")
        view_name = self.expect_ident("view name")
        self.expect_keyword("as")
        self.expect_keyword("density")
        value_column = self.expect_ident("value column")
        self.expect_keyword("over")
        time_column = self.expect_ident("time column")
        self.expect_keyword("omega")
        delta, n = self._parse_omega()
        metric_name, metric_params = "arma_garch", {}
        window: int | None = None
        cache_distance: float | None = None
        cache_memory: int | None = None
        while True:
            if self.accept_keyword("metric"):
                metric_name, metric_params = self._parse_metric()
            elif self.accept_keyword("window"):
                window = self.expect_int("window size")
            elif self.accept_keyword("cache"):
                cache_distance, cache_memory = self._parse_cache()
            else:
                break
        self.expect_keyword("from")
        table_name = self.expect_ident("table name")
        time_lo: float | None = None
        time_hi: float | None = None
        if self.accept_keyword("where"):
            time_lo, time_hi = self._parse_where(time_column)
        persist_path: str | None = None
        if self.accept_keyword("persist"):
            self.expect_keyword("into")
            persist_path = self.expect_string("catalog path")
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(
                f"unexpected trailing input {tail.text!r}", tail.position
            )
        return ViewQuery(
            view_name=view_name,
            value_column=value_column,
            time_column=time_column,
            delta=delta,
            n=n,
            table_name=table_name,
            metric_name=metric_name,
            metric_params=metric_params,
            window=window,
            cache_distance=cache_distance,
            cache_memory=cache_memory,
            time_lo=time_lo,
            time_hi=time_hi,
            persist_path=persist_path,
        )

    def _parse_omega(self) -> tuple[float, int]:
        """``delta=<number>, n=<int>`` in either order."""
        delta: float | None = None
        n: int | None = None
        for _ in range(2):
            name = self.expect_ident("omega parameter").lower()
            self.expect_op("=")
            if name == "delta":
                delta = self.expect_number("delta")
            elif name == "n":
                n = self.expect_int("n")
            else:
                raise ParseError(f"unknown OMEGA parameter {name!r}")
            if not (self.peek().kind == "op" and self.peek().text == ","):
                break
            self.advance()
        if delta is None or n is None:
            raise ParseError("OMEGA clause requires both delta and n")
        return delta, n

    def _parse_metric(self) -> tuple[str, dict[str, Any]]:
        """``<name> [( key = value {, key = value} )]``."""
        token = self.advance()
        if token.kind != "ident":
            raise ParseError(
                f"expected metric name, got {token.text!r}", token.position
            )
        name = token.text
        params: dict[str, Any] = {}
        if self.peek().kind == "op" and self.peek().text == "(":
            self.advance()
            while True:
                key = self.expect_ident("metric parameter name")
                self.expect_op("=")
                params[key] = self._parse_value()
                token = self.advance()
                if token.kind == "op" and token.text == ")":
                    break
                if not (token.kind == "op" and token.text == ","):
                    raise ParseError(
                        f"expected ',' or ')' in metric parameters, got "
                        f"{token.text!r}",
                        token.position,
                    )
        return name, params

    def _parse_value(self) -> Any:
        if self.peek().kind == "number":
            value = self.expect_number("metric parameter")
            return int(value) if value == int(value) else value
        token = self.advance()
        if token.kind == "ident":
            lowered = token.lowered
            if lowered in ("true", "false"):
                return lowered == "true"
            return token.text
        raise ParseError(f"expected a value, got {token.text!r}", token.position)

    def _parse_cache(self) -> tuple[float | None, int | None]:
        """``( distance = <number> | memory = <int> {, ...} )``."""
        self.expect_op("(")
        distance: float | None = None
        memory: int | None = None
        while True:
            key = self.expect_ident("cache parameter").lower()
            self.expect_op("=")
            if key == "distance":
                distance = self.expect_number("cache distance")
            elif key == "memory":
                memory = self.expect_int("cache memory")
            else:
                raise ParseError(
                    f"unknown CACHE parameter {key!r}; use distance or memory"
                )
            token = self.advance()
            if token.kind == "op" and token.text == ")":
                break
            if not (token.kind == "op" and token.text == ","):
                raise ParseError(
                    f"expected ',' or ')' in CACHE clause, got {token.text!r}",
                    token.position,
                )
        return distance, memory

    def _parse_where(self, time_column: str) -> tuple[float | None, float | None]:
        """``t >= a AND t <= b`` (either order) or ``t BETWEEN a AND b``."""
        lo: float | None = None
        hi: float | None = None
        column = self.expect_ident("time column in WHERE")
        if column != time_column:
            raise ParseError(
                f"WHERE must constrain the time column {time_column!r}, "
                f"got {column!r}"
            )
        if self.accept_keyword("between"):
            lo = self.expect_number("lower time bound")
            self.expect_keyword("and")
            hi = self.expect_number("upper time bound")
            return self._check_bounds(lo, hi)
        lo, hi = self._apply_comparison(lo, hi)
        if self.accept_keyword("and"):
            column = self.expect_ident("time column in WHERE")
            if column != time_column:
                raise ParseError(
                    f"WHERE must constrain the time column {time_column!r}, "
                    f"got {column!r}"
                )
            lo, hi = self._apply_comparison(lo, hi)
        return self._check_bounds(lo, hi)

    @staticmethod
    def _check_bounds(
        lo: float | None, hi: float | None
    ) -> tuple[float | None, float | None]:
        """Reject inverted WHERE bounds that would silently match nothing."""
        if lo is not None and hi is not None and lo > hi:
            raise ParseError(
                f"empty time range: WHERE bounds [{render_number(lo)}, "
                f"{render_number(hi)}] can never match"
            )
        return lo, hi

    def _apply_comparison(
        self, lo: float | None, hi: float | None
    ) -> tuple[float | None, float | None]:
        token = self.advance()
        if token.kind != "op" or token.text not in (">=", "<=", ">", "<"):
            raise ParseError(
                f"expected a comparison operator, got {token.text!r}",
                token.position,
            )
        if token.text in (">", "<"):
            # Bounds are applied inclusively everywhere downstream;
            # accepting the strict form would silently include the
            # boundary row.  Fail loudly instead.
            raise ParseError(
                f"strict comparison {token.text!r} is not supported; time "
                f"bounds are inclusive — use '{token.text}=' or BETWEEN",
                token.position,
            )
        value = self.expect_number("time bound")
        if token.text == ">=":
            if lo is not None:
                raise ParseError("duplicate lower time bound in WHERE")
            return value, hi
        if hi is not None:
            raise ParseError("duplicate upper time bound in WHERE")
        return lo, value


def parse_statement(text: str) -> ViewQuery | CatalogQuery:
    """Parse any statement kind, dispatching on the leading keyword.

    >>> query = parse_statement(
    ...     "CREATE VIEW prob_view AS DENSITY r OVER t "
    ...     "OMEGA delta=2, n=2 FROM raw_values WHERE t >= 1 AND t <= 3")
    >>> query.view_name, query.delta, query.n, query.time_lo, query.time_hi
    ('prob_view', 2.0, 2, 1.0, 3.0)
    >>> query = parse_statement(
    ...     "SELECT time_above(21.0, 5) FROM CATALOG '/tmp/cat' "
    ...     "SERIES 'sensor-*' WHERE t BETWEEN 10 AND 90 TOP 3")
    >>> query.items[0].name, query.items[0].arguments, query.top_k
    ('time_above', (21.0, 5.0), 3)
    """
    if not text or not text.strip():
        raise ParseError("empty query")
    return _Parser(text).parse_statement()


def render_number(value: float) -> str:
    """``value`` as statement text that parses back to exactly ``value``.

    The short ``:g`` form wherever it is exact (``21``, ``0.5``), so
    common literals render as written; otherwise ``repr``, the shortest
    text that round-trips (``20.123456789``, ``1234567.0``).
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def render_statement(query: CatalogQuery) -> str:
    """A parsed SELECT / SIMULATE back as statement text.

    Parsed queries are inert (they do not keep their source text), so
    traces, the slow log, and clients that rewrite a statement (for
    example to inject ``AS OF``) need a rendering an operator can re-run.
    The rendering round-trips: parsing it yields back an equal query
    object.
    """
    if [item.name for item in query.items] == ["simulate"]:
        n_worlds, *seed = query.items[0].arguments
        parts = [f"SIMULATE {int(n_worlds)}"]
        if seed:
            parts.append(f"SEED {int(seed[0])}")
    else:
        parts = ["SELECT"]
        if query.approx:
            parts.append("APPROX")
        parts.append(", ".join(item.label() for item in query.items))
    parts.append(f"FROM CATALOG '{query.catalog_path}'")
    if query.series_pattern != "*":
        parts.append(f"SERIES '{query.series_pattern}'")
    if query.time_lo is not None and query.time_hi is not None:
        parts.append(
            f"WHERE t BETWEEN {render_number(query.time_lo)} "
            f"AND {render_number(query.time_hi)}"
        )
    elif query.time_lo is not None:
        parts.append(f"WHERE t >= {render_number(query.time_lo)}")
    elif query.time_hi is not None:
        parts.append(f"WHERE t <= {render_number(query.time_hi)}")
    if query.as_of is not None:
        parts.append(f"AS OF {query.as_of}")
    if query.top_k is not None:
        parts.append(f"TOP {query.top_k}")
    return " ".join(parts)


def with_as_of(statement: str, as_of: int) -> str:
    """Rewrite ``statement`` to carry ``AS OF as_of``, or raise.

    The one statement-rewrite clients and the CLI share: parse with the
    same grammar the engine uses (so an accepted rewrite is an
    executable statement), set the knowledge time, render back.  A
    statement that already pins a *different* ``AS OF`` is rejected
    rather than silently overridden; only SELECT / SIMULATE carry the
    clause.
    """
    parsed = parse_statement(statement)
    if not isinstance(parsed, CatalogQuery):
        raise QueryError(
            "as_of applies to SELECT and SIMULATE statements only, "
            f"not {type(parsed).__name__}"
        )
    if parsed.as_of is not None and parsed.as_of != int(as_of):
        raise QueryError(
            f"statement already pins AS OF {parsed.as_of}; refusing to "
            f"override it with as_of={as_of}"
        )
    return render_statement(replace(parsed, as_of=int(as_of)))
