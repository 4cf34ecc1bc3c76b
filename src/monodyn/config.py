"""Centralized default bounds, overridable by CLI flags or a key/value
config file (``key = value`` per line, ``#`` comments)."""

from __future__ import annotations

from .errors import Frozen, ParseError, integer, records


class Bounds(Frozen):
    __slots__ = (
        "search_depth",  # SSE search only; named so that bounds files keep parsing
        "max_elements",
        "max_power",
        "firing_budget",
        "max_inner_dim",
        "max_lag",
        "coeff_bound",
        "node_budget",
    )

    def __init__(
        self,
        search_depth: int = 6,
        max_elements: int = 10_000,
        max_power: int = 64,
        firing_budget: int = 10**9,
        max_inner_dim: int = 3,
        max_lag: int = 4,
        coeff_bound: int = 2,
        node_budget: int = 200_000,
    ):
        values = (
            search_depth, max_elements, max_power, firing_budget,
            max_inner_dim, max_lag, coeff_bound, node_budget,
        )
        for name, value in zip(self._fields, values):
            if value < 0:
                raise ParseError(f"bound {name!r} must be nonnegative")
        super().__init__(*values)

    def replace(self, **changes: int) -> "Bounds":
        """These bounds with the named fields changed, checked as in
        ``__init__``."""
        return Bounds(**{name: getattr(self, name) for name in self._fields} | changes)


DEFAULT_BOUNDS = Bounds()


def parse_bounds(text: str) -> Bounds:
    overrides = {}
    for lineno, line in records(text):
        if "=" not in line:
            raise ParseError("config line must be 'key = value'", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in Bounds._fields:
            raise ParseError(f"unknown bound {key!r}", line=lineno)
        overrides[key] = integer(value, f"bound {key!r} needs an integer, got {value!r}", lineno)
    return DEFAULT_BOUNDS.replace(**overrides)


def load_bounds(path: str) -> Bounds:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_bounds(fh.read())
