"""Centralized default bounds, overridable by CLI flags or a key/value
config file (``key = value`` per line, ``#`` comments)."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ParseError


@dataclass(frozen=True)
class Bounds:
    search_depth: int = 6  # SSE search only; named so that bounds files keep parsing
    max_elements: int = 10_000
    max_power: int = 64
    firing_budget: int = 10**9
    max_inner_dim: int = 3
    max_lag: int = 4
    coeff_bound: int = 2
    node_budget: int = 200_000

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ParseError(f"bound {f.name!r} must be nonnegative")


DEFAULT_BOUNDS = Bounds()

_FIELD_NAMES = {f.name for f in fields(Bounds)}


def parse_bounds(text: str, base: Bounds = DEFAULT_BOUNDS) -> Bounds:
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("config line must be 'key = value'", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _FIELD_NAMES:
            raise ParseError(f"unknown bound {key!r}", line=lineno)
        try:
            parsed = int(value)
        except ValueError:
            raise ParseError(f"bound {key!r} needs an integer, got {value!r}", line=lineno) from None
        overrides[key] = parsed
    return replace(base, **overrides)


def load_bounds(path: str, base: Bounds = DEFAULT_BOUNDS) -> Bounds:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_bounds(fh.read(), base)
