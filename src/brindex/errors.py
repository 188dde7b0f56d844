"""Exception taxonomy.

Parse errors, mathematical domain errors and resource exhaustion are kept
apart because the command line maps them to distinct exit codes.
"""

from __future__ import annotations


class BrindexError(Exception):
    """Base class for all package errors."""


class ExprParseError(BrindexError):
    """Syntax error in a polynomial / form / session expression.

    ``position`` is a 0-based offset into the offending text.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SessionError(BrindexError):
    """Malformed session file: bad statement, unknown binding, bad directive."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ComputationError(BrindexError):
    """A mathematical precondition fails; the requested value does not exist."""


class NonIsolatedError(ComputationError):
    """An ideal that must have finite colength does not."""


class InvariantCurveError(ComputationError):
    """The curve is invariant by the form, so tangency data degenerates."""


class NotTangentError(ComputationError):
    """A supplied vector field is not tangent to the hypersurface."""


class IrrationalPointError(ComputationError):
    """A required special point does not have rational coordinates."""


class UnsupportedError(ComputationError):
    """Input outside the implemented range (wrong dimension, non-ICIS, ...)."""


class ResourceLimitError(BrindexError):
    """A configured budget (normal-form reduction steps) was exhausted."""
