"""In-memory database substrate.

Holds the ``raw_values`` relations the paper's framework ingests, the
tuple-independent ``prob_view`` relations the Omega-view builder emits, the
engine that executes the SQL-like view-generation language end to end, and
probabilistic queries over the created views (the motivating "which room is
Alice in?" query of the paper's Fig. 1).
"""

from repro.db.engine import Database, ViewResult
from repro.db.prob_view import ProbabilisticView, ProbTuple, ViewColumns
from repro.db.queries import (
    expected_value_query,
    most_probable_range_query,
    range_probability_query,
    threshold_query,
)
from repro.db.table import Table

__all__ = [
    "Database",
    "ProbTuple",
    "ProbabilisticView",
    "Table",
    "ViewColumns",
    "ViewResult",
    "expected_value_query",
    "most_probable_range_query",
    "range_probability_query",
    "threshold_query",
]
