"""Typed errors raised across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can report the error name and tests can assert on it.  Only
the file readers and writers in `formats` raise the corrupt-file error.
"""


class DiffdenError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DiffdenError):
    pass


class NotPositiveDefinite(DiffdenError):
    pass


class InvalidSize(DiffdenError):
    pass


class NegativeTime(DiffdenError):
    pass


class SingularTime(DiffdenError):
    pass


class EmptyDataset(DiffdenError):
    pass


class NoAnalyticScore(DiffdenError):
    pass


class NonFiniteState(DiffdenError):
    pass


class RejectionBudgetExceeded(DiffdenError):
    pass


class OutOfSupport(DiffdenError):
    pass


class BadPointCount(DiffdenError):
    pass


class PreconditionViolated(DiffdenError):
    pass


class DimensionTooLarge(DiffdenError):
    pass


class EmptyReport(DiffdenError):
    pass


class CorruptFile(DiffdenError, ValueError):
    """A file is truncated, over-long, malformed or not of the expected kind."""


class BadConfig(DiffdenError, ValueError):
    """A config line or an experiment setting is malformed or out of range."""

