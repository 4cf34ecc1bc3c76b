"""Exception types, the two readers of every text input (its records and
its integers), the base of the immutable value classes, and ``Stopped``."""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator


class MonodynError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MonodynError):
    """Malformed graph, matrix, config, or presentation text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def records(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, content)`` of each line of ``text`` that holds more
    than a ``#`` comment; the content is what precedes it, stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def integer(text: str, message: str, line: int | None = None) -> int:
    """``int(text)``, or a ``ParseError`` with ``message`` and ``line`` when
    ``text`` is not an integer or has more digits than Python converts."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(message, line=line) from None


class ShapeError(MonodynError):
    """Matrix or vector dimensions incompatible with the operation."""


class FiringError(MonodynError):
    """Firing a stable vertex, a sink, or an unknown vertex."""


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
    class that defines ``__eq__`` or ``__hash__`` in its body keeps its own.
    Once built, an instance refuses every assignment and deletion.
    Instances can be weakly referenced, copied and pickled; a copy is built
    by ``__init__`` from the fields.
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


class Stopped(Frozen, MonodynError):
    """Every bounded procedure that runs out of a bound raises this record,
    or returns a result that carries it.

    - ``by``: the ``config.Bounds`` field that ran out; "infinite" when the
      object being built has no end; None for a search, which tried every
      candidate within all of ``bounds``.
    - ``bound``: the value of ``by``, or None.
    - ``work``: the count, in the unit of ``by``, that the run had reached:
      firings, node units charged (the refused charge included), elements,
      or powers tried; None for the rest.
    - ``bounds``: (name, value) pairs, from a dict or pairs, of the bounds
      the run's report lists, with the internal caps that cut a search.
    - ``config``, ``odometer``: the state a stabilizer reached.
    """

    __slots__ = ("by", "bound", "work", "bounds", "config", "odometer")

    def __init__(self, by, bound=None, work=None, bounds=(), config=None, odometer=None):
        super().__init__(by, bound, work, tuple(dict(bounds).items()), config, odometer)

    def __str__(self) -> str:
        if self.by == "firing_budget":
            return f"did not stabilize within budget of {self.bound} firings"
        return f"count {self.work} exceeds {self.by} {self.bound}"
