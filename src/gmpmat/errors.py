"""Exception types shared across the package, and the rules for input values."""

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
    """``value`` as a float; DomainError naming ``field`` if it is no number, NaN or infinite."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{field} must be a number") from None
    if not math.isfinite(x):
        raise DomainError(f"{field} must be finite")
    return x


def sequence(field, value, length=None):
    """``value`` as a tuple; DomainError naming ``field`` unless it is a list
    (of ``length`` entries, when given)."""
    if not isinstance(value, (list, tuple)) or length is not None and len(value) != length:
        raise DomainError(f"{field} must be a list" + (f" of {length} numbers" if length else ""))
    return tuple(value)
