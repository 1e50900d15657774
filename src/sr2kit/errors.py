"""Exception types shared across the package."""


class SR2Error(Exception):
    """Base class for all package-specific errors."""


class InfeasibleAnchorError(SR2Error, ValueError):
    """The anchor point has infinite regularizer value; the shifted
    proximal subproblem is not well-posed there."""


class UnsupportedRegularizerError(SR2Error, ValueError):
    """The solver does not handle this regularizer (e.g. a nonconvex
    penalty passed to a convex-only method)."""


class UnsupportedMetricError(SR2Error, ValueError):
    """The requested metric does not apply to this problem (e.g.
    classification accuracy on a regression instance)."""


class ParseError(SR2Error, ValueError):
    """A data or config file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
