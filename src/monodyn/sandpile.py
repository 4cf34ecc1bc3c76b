"""Chip-firing dynamics on directed graphs.

A configuration stores one count per non-sink vertex (declaration order) plus
a tally of chips that fell into sinks.  A vertex is unstable when its count
reaches its outdegree; firing sends one chip along every outgoing edge.
``_firing_rule`` alone derives that rule, the rows of the reduced Laplacian,
and the sink tally follows from chip conservation.  The stable result and
the per-vertex firing counts do not depend on the firing order, which is
what makes the randomized scheduler below a legitimate cross-check of the
deterministic one.

Config file format: lines ``<vertex> <count>``, absent vertices mean 0,
``#`` starts a comment.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from random import Random
from typing import TYPE_CHECKING, Mapping

from .config import DEFAULT_BOUNDS
from .errors import FiringError, Frozen, ParseError, Stopped, integer, records

if TYPE_CHECKING:
    from .graph import Graph
    from .monoid import MonoidTable


class ChipConfig(Frozen):
    """Chip counts over the non-sink vertices of an ambient graph.

    ``absorbed`` tallies chips that entered a sink; it is bookkeeping for
    conservation checks and deliberately excluded from equality.
    """

    __slots__ = ("counts", "absorbed")
    _not_in_key = ("absorbed",)

    def __init__(self, counts: tuple[int, ...], absorbed: int = 0):
        if counts and min(counts) < 0:
            raise FiringError("negative chip count")
        super().__init__(counts, absorbed)

    @staticmethod
    def from_mapping(g: Graph, counts: Mapping[str, int], absorbed: int = 0) -> "ChipConfig":
        out = [0] * len(g.nonsink_vertices)
        for name, c in counts.items():
            try:
                i = g.nonsink_position(name)
            except KeyError:
                raise FiringError(f"unknown vertex {name!r}") from None
            if i is None:
                raise FiringError(f"vertex {name!r} is a sink and carries no count")
            out[i] = c
        return ChipConfig(tuple(out), absorbed)

    @staticmethod
    def zero(g: Graph) -> "ChipConfig":
        return ChipConfig((0,) * len(g.nonsink_vertices))

    def to_mapping(self, g: Graph) -> dict[str, int]:
        return dict(zip(g.nonsink_vertices, self.counts))

    def total(self) -> int:
        return sum(self.counts)


class Odometer(Frozen):
    """Per-vertex firing counts over the non-sink vertices."""

    __slots__ = ("firings",)

    def to_mapping(self, g: Graph) -> dict[str, int]:
        return dict(zip(g.nonsink_vertices, self.firings))

    def total(self) -> int:
        return sum(self.firings)


def parse_config(g: Graph, text: str) -> ChipConfig:
    """The configuration a config file gives on ``g``, a graph or anything
    with its ``nonsink_vertices`` and ``nonsink_position`` such as
    ``grid.GridVertices``; a cell named twice gets the sum."""
    counts = [0] * len(g.nonsink_vertices)
    for lineno, line in records(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("config line must be '<vertex> <count>'", line=lineno)
        name = parts[0]
        c = integer(parts[1], f"bad count {parts[1]!r}", lineno)
        if c < 0:
            raise ParseError(f"negative count for {name!r}", line=lineno)
        try:
            i = g.nonsink_position(name)
        except KeyError:
            raise ParseError(f"unknown vertex {name!r}", line=lineno) from None
        if i is None:
            raise ParseError(f"vertex {name!r} is a sink and carries no count", line=lineno)
        counts[i] += c
    return ChipConfig(tuple(counts))


def serialize_config(g: Graph, c: ChipConfig) -> str:
    """One ``<vertex> <count>`` line per vertex holding chips; names are read
    only for those."""
    names = g.nonsink_vertices
    lines = [f"{names[i]} {n}" for i, n in enumerate(c.counts) if n]
    return "\n".join(lines) + ("\n" if lines else "")


def _firing_rule(g: Graph, *configs: ChipConfig) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The rows of the reduced Laplacian of ``g``: for each non-sink
    position k, its outdegree d_k and the (non-sink position, multiplicity)
    pairs that one firing of k sends chips to, loops included.  The chips
    one firing sends to sinks are d_k less those.  Raises FiringError when
    one of ``configs`` does not hold one count per non-sink vertex."""
    nonsink = g.nonsink_vertices
    for c in configs:
        if len(c.counts) != len(nonsink):
            raise FiringError(
                f"config has {len(c.counts)} counts but graph has "
                f"{len(nonsink)} non-sink vertices"
            )
    pos = {v: k for k, v in enumerate(nonsink)}
    degree = list(map(g.outdegrees.__getitem__, nonsink))
    return degree, [[(pos[dst], m) for dst, m in g.out_adj[v] if dst in pos] for v in nonsink]


def fire(g: Graph, c: ChipConfig, v: str) -> ChipConfig:
    """Fire a single unstable vertex once."""
    try:
        i = g.nonsink_position(v)
    except KeyError:
        raise FiringError(f"unknown vertex {v!r}") from None
    if i is None:
        raise FiringError(f"cannot fire sink vertex {v!r}")
    degree, targets = _firing_rule(g, c)
    counts = list(c.counts)
    if counts[i] < degree[i]:
        raise FiringError(f"vertex {v!r} holds {counts[i]} chips, fewer than outdegree {degree[i]}")
    counts[i] -= degree[i]
    for j, mult in targets[i]:
        counts[j] += mult
    return ChipConfig(tuple(counts), c.absorbed + c.total() - sum(counts))


def stabilize(
    g: Graph,
    c: ChipConfig,
    *,
    budget: int = DEFAULT_BOUNDS.firing_budget,
    rng: Random | None = None,
    trace_to: list[ChipConfig] | None = None,
) -> tuple[ChipConfig, Odometer]:
    """Fire until no vertex is unstable.

    Firing follows the rows of ``_firing_rule``.  One work queue holds
    unstable vertices, each at most once, seeded in declaration order.  The
    default schedule pops the front vertex and fires it maximally
    (floor(count / outdegree) single firings at once).  Passing ``rng``
    fires a uniformly random queued vertex once instead, so that tests can
    confirm order independence.  ``trace_to`` collects a snapshot after
    every single firing.  No firing counts sink chips: by conservation, a
    state's ``absorbed`` is the start's chips less those its counts hold.

    Raises ``Stopped`` by ``firing_budget`` when the budget runs out, which
    can happen on chip-heavy closed grids but never on sandpile graphs.  It
    stops at exactly ``work == budget`` firings: the last batch is cut to
    fit, and its config and odometer are the state after that many single
    firings.
    """
    degree, targets = _firing_rule(g, c)
    counts = list(c.counts)
    chips = c.absorbed + c.total()
    odometer = [0] * len(counts)
    fired = 0

    def state() -> ChipConfig:
        return ChipConfig(tuple(counts), chips - sum(counts))

    # Every queued vertex is unstable: a vertex only gains chips until it is
    # popped, and after a whole batch it is unstable only through a loop,
    # which queues it as its own target.  A cut batch leaves it queued.
    queued = [x >= d for x, d in zip(counts, degree)]
    queue = deque(i for i, q in enumerate(queued) if q)
    while queue:
        if fired == budget:
            raise Stopped("firing_budget", budget, fired, (), state(), Odometer(tuple(odometer)))
        if rng is not None:
            queue.rotate(-rng.randrange(len(queue)))
        i = queue[0]
        d, row = degree[i], targets[i]
        whole = counts[i] // d
        batch = min(1 if rng is not None else whole, budget - fired)
        for times in (batch,) if trace_to is None else itertools.repeat(1, batch):
            counts[i] -= times * d
            for j, mult in row:
                counts[j] += times * mult
            if trace_to is not None:
                trace_to.append(state())
        odometer[i] += batch
        fired += batch
        if batch < whole:
            continue
        queue.popleft()
        queued[i] = False
        for j, _ in row:
            if not queued[j] and counts[j] >= degree[j]:
                queue.append(j)
                queued[j] = True
    return state(), Odometer(tuple(odometer))


def is_stable(g: Graph, c: ChipConfig) -> bool:
    degree, _ = _firing_rule(g, c)
    return all(x < d for x, d in zip(c.counts, degree))


def stable_add(
    g: Graph, a: ChipConfig, b: ChipConfig, *, budget: int = DEFAULT_BOUNDS.firing_budget
) -> ChipConfig:
    """Pointwise sum followed by stabilization: the monoid operation on
    stable configurations."""
    for name, cfg in (("first", a), ("second", b)):
        if not is_stable(g, cfg):
            raise FiringError(f"{name} summand is not stable")
    merged = ChipConfig(
        tuple(x + y for x, y in zip(a.counts, b.counts)),
        a.absorbed + b.absorbed,
    )
    config, _ = stabilize(g, merged, budget=budget)
    return config


def sandpile_monoid(g: Graph, *, max_elements: int = DEFAULT_BOUNDS.max_elements) -> MonoidTable:
    """All stable configurations under stabilized addition, as a Cayley table.

    The element count is the product of the outdegrees d_k of the non-sink
    vertices; elements are listed in lexicographic count order so index 0 is
    the zero configuration.  The table comes from the generator action, the
    class of a + e_k, without calling ``stabilize``: it is the box of
    ``monoid._box_action`` with radix d_k and the rows of ``_firing_rule``,
    since firing k once turns d_k e_k into one chip on each non-sink
    out-neighbour of k, counted with multiplicity.  The presentation
    enumeration builds its table with the same builder.  A chip added to k
    at its threshold is a chip added to k in the configuration with one
    chip fewer on another vertex j, and then a chip added to j: two table
    lookups, and each threshold block after the first is one pass through a
    finished column.  Only the n configurations (d_k - 1) e_k fire, k once
    each, and fold its chips in by lookups, so the build needs no firing
    budget.
    """
    from .monoid import MonoidTable, _box_action

    if g.sandpile_sink is None:
        raise FiringError("sandpile monoid requires a graph with a unique reachable sink")
    outdeg, chips = _firing_rule(g)
    size = math.prod(outdeg)
    if size > max_elements:
        raise Stopped("max_elements", max_elements, size, {"max_elements": max_elements})
    action, parents = _box_action(outdeg, chips)
    elements = itertools.product(*(range(d) for d in outdeg))
    return MonoidTable.from_generator_action(g.nonsink_vertices, tuple(elements), action, 0, parents)


def format_config_terms(g: Graph, configs: list[ChipConfig]) -> list[str]:
    """Render configurations in additive notation, e.g. ``6v+u``.

    Term order is first-appearance order across the sequence: the vertices
    holding chips in the first configuration come first (declaration order
    breaking ties), then vertices in order of when they first hold a chip.
    The zero configuration renders as ``0``.
    """
    order: list[int] = []
    seen: set[int] = set()
    for cfg in configs:
        for i, count in enumerate(cfg.counts):
            if count and i not in seen:
                seen.add(i)
                order.append(i)
    names = g.nonsink_vertices
    out = []
    for cfg in configs:
        terms = []
        for i in order:
            count = cfg.counts[i]
            if count == 0:
                continue
            terms.append(names[i] if count == 1 else f"{count}{names[i]}")
        out.append("+".join(terms) if terms else "0")
    return out
