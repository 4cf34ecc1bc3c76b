"""Chip-firing dynamics on directed graphs.

A configuration stores one count per non-sink vertex (declaration order) plus
a tally of chips that fell into sinks.  A vertex is unstable when its count
reaches its outdegree; firing sends one chip along every outgoing edge.  The
stable result and the per-vertex firing counts do not depend on the firing
order, which is what makes the randomized scheduler below a legitimate
cross-check of the deterministic one.

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
from .errors import BudgetExceededError, CapExceededError, FiringError, Frozen, ParseError

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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("config line must be '<vertex> <count>'", line=lineno)
        name = parts[0]
        try:
            c = int(parts[1])
        except ValueError:
            raise ParseError(f"bad count {parts[1]!r}", line=lineno) from None
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


class _Arena:
    """Mutable firing state shared by the schedulers."""

    def __init__(self, g: Graph, c: ChipConfig):
        self.g = g
        self.nonsink = g.nonsink_vertices
        if len(c.counts) != len(self.nonsink):
            raise FiringError(
                f"config has {len(c.counts)} counts but graph has "
                f"{len(self.nonsink)} non-sink vertices"
            )
        self.outdeg = [g.outdegree(v) for v in self.nonsink]
        # (target position or None-for-sink, multiplicity) per vertex
        self.targets: list[list[tuple[int | None, int]]] = []
        for v in self.nonsink:
            row = []
            for dst, mult in g.out_adj[v]:
                row.append((g.nonsink_position(dst), mult))
            self.targets.append(row)
        self.counts = list(c.counts)
        self.absorbed = c.absorbed
        self.odometer = [0] * len(self.nonsink)
        self.fired = 0

    def unstable(self, i: int) -> bool:
        return self.counts[i] >= self.outdeg[i]

    def fire(self, i: int, times: int = 1):
        self.counts[i] -= times * self.outdeg[i]
        for j, mult in self.targets[i]:
            if j is None:
                self.absorbed += times * mult
            else:
                self.counts[j] += times * mult
        self.odometer[i] += times
        self.fired += times

    def snapshot(self) -> ChipConfig:
        return ChipConfig(tuple(self.counts), self.absorbed)

    def result(self) -> tuple[ChipConfig, Odometer]:
        return self.snapshot(), Odometer(tuple(self.odometer))

    def budget_error(self, budget: int) -> BudgetExceededError:
        config, odo = self.result()
        return BudgetExceededError(
            f"did not stabilize within budget of {budget} firings",
            config=config,
            odometer=odo,
            fired=self.fired,
        )


def fire(g: Graph, c: ChipConfig, v: str) -> ChipConfig:
    """Fire a single unstable vertex once."""
    try:
        i = g.nonsink_position(v)
    except KeyError:
        raise FiringError(f"unknown vertex {v!r}") from None
    if i is None:
        raise FiringError(f"cannot fire sink vertex {v!r}")
    arena = _Arena(g, c)
    if not arena.unstable(i):
        raise FiringError(
            f"vertex {v!r} holds {arena.counts[i]} chips, fewer than outdegree {arena.outdeg[i]}"
        )
    arena.fire(i)
    return arena.snapshot()


def stabilize(
    g: Graph,
    c: ChipConfig,
    *,
    budget: int | None = None,
    rng: Random | None = None,
    trace_to: list[ChipConfig] | None = None,
) -> tuple[ChipConfig, Odometer]:
    """Fire until no vertex is unstable.

    The default scheduler pops a FIFO work queue seeded in declaration order
    and fires the popped vertex maximally (floor(count / outdegree) single
    firings at once).  Passing ``rng`` switches to single random firings,
    which exists so tests can confirm order independence.  ``trace_to``
    collects a snapshot after every single firing.

    Raises BudgetExceededError when the budget runs out, which can happen on
    chip-heavy closed grids but never on sandpile graphs.  The error stops at
    exactly ``fired == budget``: the last batch is cut to fit, and its config
    and odometer are the state after that many single firings.
    """
    if budget is None:
        budget = DEFAULT_BOUNDS.firing_budget
    arena = _Arena(g, c)
    n = len(arena.counts)

    if rng is not None:
        while True:
            unstable = [i for i in range(n) if arena.unstable(i)]
            if not unstable:
                return arena.result()
            if arena.fired >= budget:
                raise arena.budget_error(budget)
            i = rng.choice(unstable)
            arena.fire(i)
            if trace_to is not None:
                trace_to.append(arena.snapshot())

    queue = deque(i for i in range(n) if arena.unstable(i))
    queued = [arena.unstable(i) for i in range(n)]
    while queue:
        i = queue.popleft()
        queued[i] = False
        if not arena.unstable(i):
            continue
        batch = min(arena.counts[i] // arena.outdeg[i], budget - arena.fired)
        if trace_to is not None:
            for _ in range(batch):
                arena.fire(i)
                trace_to.append(arena.snapshot())
        else:
            arena.fire(i, batch)
        if arena.fired == budget and arena.unstable(i):
            raise arena.budget_error(budget)
        for j, _ in arena.targets[i]:
            if j is not None and not queued[j] and arena.unstable(j):
                queue.append(j)
                queued[j] = True
        if not queued[i] and arena.unstable(i):
            queue.append(i)
            queued[i] = True
    return arena.result()


def is_stable(g: Graph, c: ChipConfig) -> bool:
    return all(
        count < g.outdegree(v) for v, count in zip(g.nonsink_vertices, c.counts)
    )


def stable_add(g: Graph, a: ChipConfig, b: ChipConfig, *, budget: int | None = None) -> ChipConfig:
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
    ``monoid._box_action`` with radix d_k, since firing k once turns
    d_k e_k into one chip on each non-sink out-neighbour of k, counted with
    multiplicity.  The presentation enumeration builds its table with the
    same builder.  Every threshold entry is resolved once, so the build
    fires at most n times per element (n non-sink vertices) and needs no
    firing budget.
    """
    from .monoid import MonoidTable, _box_action

    if g.sandpile_sink is None:
        raise FiringError("sandpile monoid requires a graph with a unique reachable sink")
    nonsink = g.nonsink_vertices
    outdeg = [g.outdegree(v) for v in nonsink]
    size = math.prod(outdeg)
    if size > max_elements:
        raise CapExceededError(
            f"stable configuration count {size} exceeds max_elements {max_elements}"
        )
    pos = {v: k for k, v in enumerate(nonsink)}
    # The non-sink chips that one firing of k sends out, with multiplicity.
    chips = [[(pos[dst], mult) for dst, mult in g.out_adj[v] if dst in pos] for v in nonsink]
    action, parents = _box_action(outdeg, chips)
    elements = itertools.product(*(range(d) for d in outdeg))
    return MonoidTable.from_generator_action(nonsink, tuple(elements), action, 0, parents)


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
