"""Exception types shared across the package.

Everything user-facing raises one of these so callers (and the CLI exit-code
mapping) can tell bad parameters apart from bad kernels and from numerical
trouble.
"""


class RcmError(Exception):
    """Base class for all package errors."""


class ParameterError(RcmError, ValueError):
    """A numeric argument is outside its admissible range.

    Examples: density/offset combinations with log(rho) + b <= 0, points
    outside the unit cell, connection scales too large for the torus.
    """


class ModelError(RcmError, ValueError):
    """A connection kernel violates a structural requirement.

    Examples: non-integrable radial profile, table knots out of order,
    a table that starts at or below the truncation epsilon.
    """


class QuadratureError(RcmError, RuntimeError):
    """A fixed-panel rule still missed its tolerance at the largest order.

    Carries the achieved error estimate so the caller can decide whether
    the value is still usable.
    """

    def __init__(self, message: str, estimate: float | None = None):
        if estimate is not None:
            message = f"{message} (achieved error estimate {estimate:.3e})"
        super().__init__(message)
        self.estimate = estimate


class ConfigError(RcmError, ValueError):
    """A campaign configuration document is malformed."""
