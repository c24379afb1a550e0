"""Exception types shared across the package, the rules for input values,
and the base of the package's frozen records."""

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


class _Record:
    """Base of a frozen record whose fields are the names its class body
    annotates, in order, with the defaults it assigns.

    ``__init__`` takes the fields as a function of those parameters would,
    stores them and calls ``__post_init__`` where the class defines one,
    which may replace a field with ``object.__setattr__``.  ``vars`` returns
    the fields in order.  ==, hash and repr read them as a frozen dataclass
    does, and assigning or deleting an attribute raises AttributeError.
    The ``dataclasses`` module, with the ``inspect`` it imports, is not
    loaded.
    """

    def __init_subclass__(cls):
        names = tuple(cls.__annotations__)
        params = ", ".join(f"{n}=cls.{n}" if n in cls.__dict__ else n for n in names)
        body = "".join(f"\n    fields[{n!r}] = {n}" for n in names)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        scope = {}
        exec(f"def __init__(self, {params}):\n    fields = self.__dict__{body}{post}",
             {"cls": cls}, scope)
        scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = scope["__init__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))
