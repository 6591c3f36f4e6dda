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
    """An enumeration spent more than its work budget (`core.Budget`).

    `cap` names the budget's kind: "path" (simple paths and cycles), "walk"
    (nb and walk neighbourhoods) or "removal-set". `limit` is the budget and
    `used` the units spent when it fired, so `used > limit`.
    """

    exit_code = 4

    def __init__(self, message, cap, limit, used):
        self.cap, self.limit, self.used = cap, limit, used
        super().__init__(message)
