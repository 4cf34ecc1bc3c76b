"""Exception types, and the base of the immutable value classes, shared
across the package."""

from __future__ import annotations

from operator import attrgetter


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

    A subclass lists its fields in ``__slots__`` in declaration order; the
    base records them once per class in ``_fields``.  ``__init__`` sets the
    fields by position, then by name, and raises ``TypeError`` for a missing,
    unknown or repeated field; a subclass that checks its arguments or gives
    defaults keeps its own signature and ends in ``super().__init__(...)``.
    Two instances are equal when they are of the same class and their keys
    are equal, and an instance hashes as its key.  The key is the tuple of
    every field, less those the class names in ``_not_in_key`` (a
    ``ChipConfig``'s ``absorbed``), so a one-field key is the 1-tuple.  A
    class that defines ``__eq__`` or ``__hash__`` in its body keeps its own:
    ``SearchExhausted`` and ``CompareVerdict`` set ``__hash__ = None``, since
    they carry a dict.  Once built, an instance refuses every assignment and
    deletion.  Instances can be weakly referenced, copied and pickled; a copy
    is built by ``__init__`` from the fields.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()
    _not_in_key: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in slots if name != "__dict__")
        names = [name for name in cls._fields if name not in cls._not_in_key]
        if len(names) == 1:  # attrgetter of one name gives the bare value, not the 1-tuple
            get = attrgetter(names[0])

            def key(self):
                return (get(self),)
        else:
            key = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        if "__eq__" not in cls.__dict__:
            cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = __hash__

    def __init__(self, *values, **named):
        fields, bound = self._fields, values
        if named:
            rest = fields[len(values):]
            if named.keys() != set(rest):
                raise self._misfit(values, named)
            bound += tuple(map(named.__getitem__, rest))
        if len(bound) != len(fields):
            raise self._misfit(values, named)
        for field, value in zip(fields, bound):
            object.__setattr__(self, field, value)

    def _misfit(self, values: tuple, named: dict) -> TypeError:
        """The error a plain signature would raise for these arguments."""
        fields, name = self._fields, type(self).__qualname__
        if len(values) > len(fields):
            return TypeError(f"{name}() takes {len(fields)} fields but {len(values)} were given")
        for field in named:
            if field not in fields:
                return TypeError(f"{name}() got an unexpected field {field!r}")
            if field in fields[:len(values)]:
                return TypeError(f"{name}() got multiple values for field {field!r}")
        missing = ", ".join(repr(field) for field in fields[len(values):] if field not in named)
        return TypeError(f"{name}() missing fields {missing}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
