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
    except OverflowError:  # an int beyond the float range
        raise DomainError(f"{field} must be finite") from None
    if not math.isfinite(x):
        raise DomainError(f"{field} must be finite")
    return x


def count(field, n, low, most, what):
    """``n``, or DomainError naming ``field`` unless low <= n <= most; ``most``
    is the largest n whose ``what`` has fewer bytes than an index can count."""
    if n < low:
        raise DomainError(f"{field} must be >= {low}")
    if n > most:
        raise DomainError(f"{field} must be <= {most}: a larger {what} has more bytes "
                          "than an index can count")
    return n


def sequence(field, value, length=None):
    """``value`` as a tuple; DomainError naming ``field`` unless it is a list
    (of ``length`` entries, when given)."""
    if not isinstance(value, (list, tuple)) or length is not None and len(value) != length:
        raise DomainError(f"{field} must be a list" + (f" of {length} numbers" if length else ""))
    return tuple(value)


def number(field, value):
    """``value``, or DomainError naming ``field`` unless it is a JSON number.

    json reads every number as an int or a float; a string, a boolean or
    null is no number, although ``float`` would take the first two.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{field} must be a number")
    return value


def numbers(field, value):
    """``sequence(field, value)`` whose entries are JSON numbers."""
    return tuple(number(field, v) for v in sequence(field, value))
