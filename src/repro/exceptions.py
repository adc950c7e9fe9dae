"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Errors that indicate a caller mistake additionally derive
from :class:`ValueError` so they behave naturally in generic code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameterError(ReproError, ValueError):
    """A caller supplied a parameter outside its documented domain."""


class EstimationError(ReproError):
    """A statistical model could not be estimated from the given data.

    Raised, for example, when a window is too short for the requested model
    order, or when an optimiser fails to produce finite parameters and no
    fallback is permitted.
    """


class NotFittedError(ReproError):
    """A model method requiring fitted parameters was called before ``fit``."""


class DataError(ReproError, ValueError):
    """Input data is malformed (NaNs, empty arrays, mismatched lengths...)."""


class QueryError(ReproError):
    """A database or view-generation query could not be executed."""


class ParseError(QueryError):
    """The SQL-like view query text could not be parsed.

    Attributes
    ----------
    position:
        Character offset into the query text where parsing failed, or ``-1``
        when the failure is not tied to a single location.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class CacheConstraintError(ReproError):
    """The distance and memory constraints of a sigma-cache are infeasible."""


class StoreError(ReproError):
    """A persistent-store (catalog / binary backend) operation failed."""


class SchemaVersionError(StoreError):
    """Persisted data was written under an incompatible schema version.

    Attributes
    ----------
    found, expected:
        The schema version read from disk and the version this build of the
        library writes.
    """

    def __init__(self, message: str, found: int, expected: int) -> None:
        super().__init__(message)
        self.found = found
        self.expected = expected


class EncodingError(ReproError, ValueError):
    """A value could not be rendered as canonical JSON (non-finite floats)."""
