"""Exception types, and the base of the immutable value classes, shared
across the package."""

from __future__ import annotations


class MonodynError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MonodynError):
    """Malformed graph, matrix, config, or presentation text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ShapeError(MonodynError):
    """Matrix or vector dimensions incompatible with the operation."""


class FiringError(MonodynError):
    """Firing a stable vertex, a sink, or an unknown vertex."""


class BudgetExceededError(MonodynError):
    """Stabilization did not finish within the firing budget.

    Carries the partial configuration and odometer reached when the
    budget ran out, so callers can report how far the run got.
    """

    def __init__(self, message: str, config=None, odometer=None, fired: int = 0):
        super().__init__(message)
        self.config = config
        self.odometer = odometer
        self.fired = fired


class CapExceededError(MonodynError):
    """An enumeration would produce more elements than the configured cap."""


class Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__`` in declaration order, sets
    them in ``__init__`` through ``object.__setattr__`` and compares and
    hashes them in its own ``__eq__`` and ``__hash__``.  Once built, an
    instance refuses every assignment and deletion.  Instances can be weakly
    referenced, copied and pickled; a copy is built by ``__init__`` from the
    fields.
    """

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> list[str]:
        return [name for name in self.__slots__ if name != "__dict__"]

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields())
