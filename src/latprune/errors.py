"""Exception types and command-line exit codes shared across the package."""

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


class LatPruneError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LatPruneError):
    """An input document is malformed or uses an unknown schema."""


class ValidationError(LatPruneError):
    """A parsed object violates a structural invariant."""


class SolveError(LatPruneError):
    """A solve cannot be attempted (guard tripped, bad configuration)."""
