"""Small generic substrates shared across the library.

This subpackage deliberately contains no paper-specific logic: ASCII table
rendering used by the experiment harness, canonical JSON, seeded
random-number helpers, and argument validation utilities.
"""

from repro.util.arrays import readonly_view
from repro.util.jsonio import canonical_dumps
from repro.util.rng import ensure_rng
from repro.util.tables import format_table, render_pruning, render_result
from repro.util.validation import (
    require_finite_array,
    require_in_range,
    require_positive,
)

__all__ = [
    "canonical_dumps",
    "ensure_rng",
    "format_table",
    "render_pruning",
    "render_result",
    "readonly_view",
    "require_finite_array",
    "require_in_range",
    "require_positive",
]
