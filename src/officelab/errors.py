"""Exception types shared across the package.

ValidationError and ParseError map to CLI exit code 1; everything else
derived from OfficeLabError maps to exit code 2.
"""


class OfficeLabError(Exception):
    pass


class ParseError(OfficeLabError):
    """Config document is not structurally readable."""


class ValidationError(OfficeLabError):
    """A type invariant is violated; message names the first violation."""


class NoPathError(OfficeLabError):
    """Two locations are not connected (excluded by validation, defended against)."""


class ConvergenceError(OfficeLabError):
    """Iterative solve did not converge within its iteration cap."""


class AllPathsZeroError(OfficeLabError):
    """No location sequence has positive probability under kernel and evidence."""


class InstanceTooLargeError(OfficeLabError):
    """Exhaustive enumeration was asked for an instance beyond its size cap."""


class SupportViolationError(OfficeLabError):
    """A day distribution puts mass where the baseline has none."""
