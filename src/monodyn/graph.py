"""Finite directed multigraphs with ordered vertices.

Vertex order is declaration order and every derived object (adjacency
matrices, reports, serializations, chip configurations) indexes by it.
Parallel edges are stored as a multiplicity on the (source, target) pair.

File format, one record per line, ``#`` starts a comment::

    v <name>              declare a vertex
    e <src> <dst> [mult]  declare edge(s), default multiplicity 1
    w <name> <int>        optional vertex weight
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import Frozen, ParseError, ShapeError, integer, records

if TYPE_CHECKING:
    from .matrix import IntMatrix


class Graph(Frozen):
    # (source, target, multiplicity) edges in canonical order; the instance
    # dict holds the cached properties.
    __slots__ = ("vertices", "edges", "weights", "__dict__")

    def __init__(
        self,
        vertices: tuple[str, ...],
        edges: tuple[tuple[str, str, int], ...],
        weights: tuple[int, ...] | None = None,
    ):
        super().__init__(vertices, edges, weights)

    @staticmethod
    def build(
        vertices: Sequence[str],
        edges: Iterable[tuple[str, str] | tuple[str, str, int]] = (),
        weights: Mapping[str, int] | None = None,
    ) -> "Graph":
        """Validate and canonicalize: multiplicities aggregated, edges sorted
        by (source index, target index)."""
        verts = tuple(vertices)
        seen = set()
        for name in verts:
            if name in seen:
                raise ParseError(f"duplicate vertex {name!r}")
            seen.add(name)
        index = {name: i for i, name in enumerate(verts)}
        mult: dict[tuple[str, str], int] = {}
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge  # type: ignore[misc]
                m = 1
            else:
                src, dst, m = edge  # type: ignore[misc]
            if src not in index:
                raise ParseError(f"edge references undeclared vertex {src!r}")
            if dst not in index:
                raise ParseError(f"edge references undeclared vertex {dst!r}")
            if m < 1:
                raise ParseError(f"edge multiplicity must be >= 1, got {m}")
            mult[(src, dst)] = mult.get((src, dst), 0) + m
        canon = tuple(
            (src, dst, mult[(src, dst)])
            for src, dst in sorted(mult, key=lambda e: (index[e[0]], index[e[1]]))
        )
        wtuple = None
        if weights is not None:
            missing = [v for v in verts if v not in weights]
            if missing:
                raise ParseError(f"weight map missing vertices: {', '.join(missing)}")
            for v in verts:
                if weights[v] < 0:
                    raise ParseError(f"negative weight for vertex {v!r}")
            wtuple = tuple(weights[v] for v in verts)
        return Graph(verts, canon, wtuple)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.vertices)}

    @cached_property
    def out_adj(self) -> dict[str, tuple[tuple[str, int], ...]]:
        adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for src, dst, m in self.edges:
            adj[src].append((dst, m))
        return {v: tuple(lst) for v, lst in adj.items()}

    @cached_property
    def in_adj(self) -> dict[str, list[tuple[str, int]]]:
        """``out_adj`` reversed: (source, multiplicity) pairs per target."""
        adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.vertices}
        for src, dst, m in self.edges:
            adj[dst].append((src, m))
        return adj

    @cached_property
    def outdegrees(self) -> dict[str, int]:
        """Each vertex's out-edges counted with multiplicity, in declaration
        order."""
        return {v: sum(m for _, m in row) for v, row in self.out_adj.items()}

    def outdegree(self, v: str) -> int:
        return self.outdegrees[v]

    @cached_property
    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v, d in self.outdegrees.items() if d == 0)

    @cached_property
    def nonsink_vertices(self) -> tuple[str, ...]:
        return tuple(v for v, d in self.outdegrees.items() if d)

    @cached_property
    def _nonsink_positions(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.nonsink_vertices)}

    def nonsink_position(self, v: str) -> int | None:
        """v's position among the non-sink vertices, the index of its count
        in a configuration; None when v is a sink, KeyError when the graph
        has no vertex v."""
        i = self._nonsink_positions.get(v)
        if i is None and v not in self.index:
            raise KeyError(v)
        return i

    @cached_property
    def sandpile_sink(self) -> str | None:
        """The unique sink when every vertex has a directed path to it (the
        graph is then a sandpile graph), else None."""
        if len(self.sinks) != 1:
            return None
        (s,) = self.sinks
        back = {s}
        frontier = [s]
        while frontier:
            for src, _ in self.in_adj[frontier.pop()]:
                if src not in back:
                    back.add(src)
                    frontier.append(src)
        return s if len(back) == len(self.vertices) else None

    def vertex_weight(self, v: str) -> int:
        """Declared weight, defaulting to the outdegree (vertex weighting)."""
        if self.weights is not None:
            return self.weights[self.index[v]]
        return self.outdegrees[v]

    @cached_property
    def _finished(self) -> list[list[str]]:
        """Strongly connected components by Kosaraju's algorithm (Sharir 1981),
        so ordered that an edge leaving a component enters an earlier one.  No
        edge from another unplaced component enters that of the unplaced vertex
        a depth-first search finishes last, so a search back from it through
        unplaced vertices collects its component; the list is then reversed."""
        out_adj, in_adj = self.out_adj, self.in_adj
        seen: set[str] = set()
        order: list[str] = []
        for root in self.vertices:
            if root in seen:
                continue
            seen.add(root)
            work = [(root, iter(out_adj[root]))]
            while work:
                v, it = work[-1]
                for dst, _ in it:
                    if dst not in seen:
                        seen.add(dst)
                        work.append((dst, iter(out_adj[dst])))
                        break
                else:
                    work.pop()
                    order.append(v)
        placed: set[str] = set()
        components: list[list[str]] = []
        for root in reversed(order):
            if root in placed:
                continue
            placed.add(root)
            comp = [root]
            for v in comp:  # comp grows while it is read
                for src, _ in in_adj[v]:
                    if src not in placed:
                        placed.add(src)
                        comp.append(src)
            components.append(comp)
        components.reverse()
        return components

    @cached_property
    def components(self) -> tuple[tuple[str, ...], ...]:
        """The strongly connected components, listed by their smallest vertex
        index; vertices within a component keep declaration order."""
        idx = self.index
        ordered = [tuple(sorted(c, key=idx.__getitem__)) for c in self._finished]
        ordered.sort(key=lambda c: idx[c[0]])
        return tuple(ordered)

    def reached(self, targets: Sequence[str]) -> dict[str, int]:
        """Per vertex, the mask of the distinct ``targets`` it reaches: bit i
        is set when a path, possibly empty, leads to ``targets[i]``.  One pass
        over ``_finished``, since an edge leaving a component enters one whose
        mask is done, and a component's vertices reach the same targets."""
        bits = {t: 1 << i for i, t in enumerate(targets)}
        masks: dict[str, int] = {}
        for comp in self._finished:
            m = 0
            for v in comp:
                m |= bits.get(v, 0)
                for dst, _ in self.out_adj[v]:
                    m |= masks.get(dst, 0)  # 0 inside comp, not yet done
            masks.update(dict.fromkeys(comp, m))
        return masks

    @cached_property
    def cyclic_components(self) -> tuple[tuple[str, ...], ...]:
        """The components holding a cycle: more than one vertex, or a loop."""
        return tuple(
            comp for comp in self.components
            if len(comp) > 1 or any(dst == comp[0] for dst, _ in self.out_adj[comp[0]])
        )

    @cached_property
    def exitless_cycle(self) -> tuple[str, ...] | None:
        """The first exit-less cycle in declaration order, or None.  A cycle
        is exit-less exactly when each of its vertices has total outdegree 1,
        so it suffices to walk the functional subgraph of outdegree-1
        vertices and look for cycles there."""
        nxt = {v: self.out_adj[v][0][0] for v, d in self.outdegrees.items() if d == 1}
        color: dict[str, int] = {}  # 1 = on current walk, 2 = finished
        for start in self.vertices:
            if start not in nxt or color.get(start):
                continue
            path = []
            v = start
            while v in nxt and color.get(v, 0) == 0:
                color[v] = 1
                path.append(v)
                v = nxt[v]
            if v in nxt and color.get(v) == 1:
                return tuple(path[path.index(v):])
            for u in path:
                color[u] = 2
        return None


class StructureReport(Frozen):
    __slots__ = (
        "sinks", "strongly_connected", "scc_partition", "sandpile", "sink_name",
        "outdegrees", "indegrees",
    )


def parse_graph(text: str) -> Graph:
    vertices: list[str] = []
    edges: list[tuple[str, str, int]] = []
    weights: dict[str, int] = {}
    declared: set[str] = set()
    for lineno, line in records(text):
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) != 2:
                raise ParseError("vertex line must be 'v <name>'", line=lineno)
            name = parts[1]
            if name in declared:
                raise ParseError(f"duplicate vertex {name!r}", line=lineno)
            declared.add(name)
            vertices.append(name)
        elif kind == "e":
            if len(parts) not in (3, 4):
                raise ParseError("edge line must be 'e <src> <dst> [mult]'", line=lineno)
            src, dst = parts[1], parts[2]
            for endpoint in (src, dst):
                if endpoint not in declared:
                    raise ParseError(f"undeclared vertex {endpoint!r} in edge", line=lineno)
            mult = 1
            if len(parts) == 4:
                mult = integer(parts[3], f"bad multiplicity {parts[3]!r}", lineno)
                if mult < 1:
                    raise ParseError(f"multiplicity must be >= 1, got {mult}", line=lineno)
            edges.append((src, dst, mult))
        elif kind == "w":
            if len(parts) != 3:
                raise ParseError("weight line must be 'w <name> <int>'", line=lineno)
            name = parts[1]
            if name not in declared:
                raise ParseError(f"weight for undeclared vertex {name!r}", line=lineno)
            weights[name] = integer(parts[2], f"bad weight {parts[2]!r}", lineno)
        else:
            raise ParseError(f"unknown record {kind!r}", line=lineno)
    if not vertices:
        raise ParseError("graph file declares no vertices")
    if weights:
        missing = [v for v in vertices if v not in weights]
        if missing:
            raise ParseError(f"weights declared but missing for: {', '.join(missing)}")
    return Graph.build(vertices, edges, weights or None)


def serialize_graph(g: Graph) -> str:
    lines = [f"v {name}" for name in g.vertices]
    for src, dst, mult in g.edges:
        lines.append(f"e {src} {dst}" if mult == 1 else f"e {src} {dst} {mult}")
    if g.weights is not None:
        for name, w in zip(g.vertices, g.weights):
            lines.append(f"w {name} {w}")
    return "\n".join(lines) + "\n"


def adjacency_matrix(g: Graph) -> IntMatrix:
    """Entry (i, j) counts edges from vertex i to vertex j, declaration order."""
    from .matrix import IntMatrix

    n = len(g.vertices)
    entries = [0] * (n * n)
    idx = g.index
    for src, dst, mult in g.edges:
        entries[idx[src] * n + idx[dst]] = mult
    return IntMatrix(n, n, tuple(entries))


def graph_from_matrix(a: IntMatrix) -> Graph:
    """Inverse of adjacency_matrix, vertices auto-named v1..vn."""
    if not a.is_square:
        raise ShapeError(f"adjacency matrix must be square, got {a.rows}x{a.cols}")
    for i in range(a.rows):
        for j in range(a.cols):
            if a.at(i, j) < 0:
                raise ShapeError(f"negative entry at ({i + 1},{j + 1})")
    names = [f"v{i + 1}" for i in range(a.rows)]
    edges = [
        (names[i], names[j], a.at(i, j))
        for i in range(a.rows)
        for j in range(a.cols)
        if a.at(i, j) > 0
    ]
    return Graph.build(names, edges)


def structure_report(g: Graph) -> StructureReport:
    sccs = g.components
    in_adj, multiplicity = g.in_adj, itemgetter(1)
    return StructureReport(
        sinks=g.sinks,
        strongly_connected=len(sccs) == 1,
        scc_partition=sccs,
        sandpile=g.sandpile_sink is not None,
        sink_name=g.sandpile_sink,
        outdegrees=tuple(g.outdegrees.values()),
        indegrees=tuple([sum(map(multiplicity, in_adj[v])) for v in g.vertices]),
    )
