"""Exception types shared across the package, and the finiteness rule for inputs."""

import math


class DomainError(ValueError):
    """Input violates a precondition (invalid set, pole evaluation, ...)."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the last residual norm so callers can report it.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def finite(field, value):
    """``value`` as a float; DomainError naming ``field`` if it is NaN or infinite."""
    x = float(value)
    if not math.isfinite(x):
        raise DomainError(f"{field} must be finite")
    return x
