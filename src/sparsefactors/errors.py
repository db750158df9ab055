"""Exception types shared across the package.

Every error the package raises on bad input derives from
:class:`SparseFactorsError`; the command line reports those with exit
status 1 and treats anything else as a bug (exit 2). Argument checks raise
:class:`InvalidArgumentError`, which is also a ``ValueError`` so callers that
catch ``ValueError`` keep working.
"""


class SparseFactorsError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(SparseFactorsError, ValueError):
    """An argument, file or configuration value is out of range or malformed."""


class PanelParseError(SparseFactorsError):
    """CSV ingestion failed; ``location`` names the offending row/column."""

    def __init__(self, message, location=None):
        super().__init__(message if location is None else f"{message} (at {location})")
        self.location = location


class TransformError(SparseFactorsError):
    """A variable transformation hit an invalid value; ``index`` points at it."""

    def __init__(self, message, index=None):
        super().__init__(message if index is None else f"{message} (index {index})")
        self.index = index


class InsufficientSampleError(SparseFactorsError):
    """Too few time periods remain after transformation/trimming."""


class DegenerateSeriesError(SparseFactorsError):
    """A series has zero variance and cannot be standardized."""
