"""Exception types shared across the package."""

from __future__ import annotations


class QsdError(Exception):
    """Base class for all errors raised by this package."""


class InvalidEnsembleError(QsdError, ValueError):
    """An ensemble failed validation.

    Carries the :class:`qsd.ensemble.ValidationReport` with every deviation.
    """

    def __init__(self, report, message: str = "ensemble failed validation"):
        super().__init__(message)
        self.report = report


class SpanDeficientError(InvalidEnsembleError):
    """The state eigenvectors do not span the full space.

    Carries the rank of the spanned subspace so callers can deflate.
    """

    def __init__(self, report):
        super().__init__(
            report,
            f"state eigenvectors span a {report.span_rank}-dimensional subspace "
            f"of a {report.dim}-dimensional space",
        )
        self.span_rank = report.span_rank
        self.dim = report.dim


class BadRanksError(QsdError):
    """Requested ranks are inconsistent with the target dimension."""


class BadPriorsError(QsdError):
    """Priors are not strictly positive or do not sum to one."""


class DimMismatchError(QsdError):
    """Operator dimensions do not agree."""


class CountMismatchError(QsdError):
    """State and measurement-operator counts do not agree."""


class NotBinaryError(QsdError):
    """Exactly two states are required."""
