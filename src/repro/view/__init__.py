"""Omega-view builder: from inferred densities to probabilistic views.

Implements Section VI of the paper: the probability value generation query
(Definition 2) over the ranges ``Omega = {r_hat_t + lambda * Delta}``, the
SQL-like statement language (``CREATE VIEW ... AS DENSITY ...`` as a
:class:`ViewQuery`; the catalog statements ``SELECT`` and ``SIMULATE`` as
one :class:`CatalogQuery`, both through :func:`parse_statement`), and the
sigma-cache that reuses CDF computations across time steps under provable
distance and memory constraints (Theorems 1 and 2).
"""

from repro.view.builder import ProbabilityMatrix, ViewBuilder
from repro.view.hellinger import (
    hellinger_distance,
    ratio_threshold_for_distance,
    ratio_threshold_for_memory,
)
from repro.view.omega import OmegaGrid, OmegaRange
from repro.view.sigma_cache import CacheStatistics, SigmaCache
from repro.view.sql import CatalogQuery, ViewQuery, parse_statement

__all__ = [
    "CacheStatistics",
    "CatalogQuery",
    "OmegaGrid",
    "OmegaRange",
    "ProbabilityMatrix",
    "SigmaCache",
    "ViewBuilder",
    "ViewQuery",
    "hellinger_distance",
    "parse_statement",
    "ratio_threshold_for_distance",
    "ratio_threshold_for_memory",
]
