"""Exception hierarchy shared by all modules.

Each error below the base carries the CLI's exit code for it, `exit_code`:
ParseError 2, PreconditionError and UnknownVertexError 3, ResourceCapError 4.
"""


class EquivCurvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EquivCurvError):
    """Malformed input text. Carries the 1-based line number."""

    exit_code = 2

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownVertexError(EquivCurvError):
    """A vertex id that does not belong to the structure."""

    exit_code = 3


class PreconditionError(EquivCurvError):
    """An operation was called on input violating its stated precondition."""

    exit_code = 3


class ResourceCapError(EquivCurvError):
    """A configured resource cap (path length, work budget) was hit.

    `cap` names the cap: a work budget's kind ("path", "walk", "removal-set")
    or "path length". `limit` is the cap's value and `used` the amount asked
    for when it fired: the units spent, or the path length n.
    """

    exit_code = 4

    def __init__(self, message, cap=None, limit=None, used=None):
        self.cap, self.limit, self.used = cap, limit, used
        super().__init__(message)
