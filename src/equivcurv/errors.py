"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: ParseError -> 2, PreconditionError and
UnknownVertexError -> 3, ResourceCapError -> 4.
"""


class EquivCurvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EquivCurvError):
    """Malformed input text. Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownVertexError(EquivCurvError):
    """A vertex id that does not belong to the structure."""


class PreconditionError(EquivCurvError):
    """An operation was called on input violating its stated precondition."""


class ResourceCapError(EquivCurvError):
    """A configured resource cap (path length, work budget) was hit."""
