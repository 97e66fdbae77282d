"""The package's one domain failure: an ensemble outside the theorem's setting.

Every other bad argument raises ``ValueError`` with a message that names it.
"""

from __future__ import annotations


class InvalidEnsembleError(ValueError):
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
