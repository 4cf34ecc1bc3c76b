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

    def outdegree(self, v: str) -> int:
        return sum(m for _, m in self.out_adj[v])

    def is_sink(self, v: str) -> bool:
        return self.outdegree(v) == 0

    @cached_property
    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if self.is_sink(v))

    @cached_property
    def nonsink_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self.is_sink(v))

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
        # Reverse reachability: all vertices must have a directed path to s.
        incoming: dict[str, list[str]] = {v: [] for v in self.vertices}
        for src, dst, _ in self.edges:
            incoming[dst].append(src)
        back = {s}
        frontier = [s]
        while frontier:
            for src in incoming[frontier.pop()]:
                if src not in back:
                    back.add(src)
                    frontier.append(src)
        return s if len(back) == len(self.vertices) else None

    def vertex_weight(self, v: str) -> int:
        """Declared weight, defaulting to the outdegree (vertex weighting)."""
        if self.weights is not None:
            return self.weights[self.index[v]]
        return self.outdegree(v)

    @cached_property
    def _finished(self) -> list[list[str]]:
        """Strongly connected components by Tarjan's algorithm, iterative,
        in the order it finishes them: an edge that leaves a component enters
        one finished earlier."""
        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        components: list[list[str]] = []

        for root in self.vertices:
            if root in index_of:
                continue
            work = [(root, iter(self.out_adj[root]))]
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for dst, _ in it:
                    if dst not in index_of:
                        index_of[dst] = lowlink[dst] = counter
                        counter += 1
                        stack.append(dst)
                        on_stack.add(dst)
                        work.append((dst, iter(self.out_adj[dst])))
                        advanced = True
                        break
                    if dst in on_stack:
                        lowlink[v] = min(lowlink[v], index_of[dst])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
        return components

    @cached_property
    def components(self) -> tuple[tuple[str, ...], ...]:
        """The strongly connected components, listed by their smallest vertex
        index; vertices within a component keep declaration order."""
        idx = self.index
        ordered = [tuple(sorted(c, key=idx.__getitem__)) for c in self._finished]
        ordered.sort(key=lambda c: idx[c[0]])
        return tuple(ordered)

    @cached_property
    def _reach(self) -> tuple[dict[str, int], list[int]]:
        """Each vertex's position in ``_finished``, and per component the
        bitmask of the positions it reaches, its own among them: one pass,
        as an edge out of a component enters one whose mask is done."""
        position: dict[str, int] = {}
        masks: list[int] = []
        for k, comp in enumerate(self._finished):
            position.update(dict.fromkeys(comp, k))
            masks.append(1 << k)
            for v in comp:
                for dst, _ in self.out_adj[v]:
                    masks[k] |= masks[position[dst]]
        return position, masks

    def reaches(self, u: str, v: str) -> bool:
        """Whether a directed path, possibly empty, leads from u to v."""
        position, masks = self._reach
        return masks[position[u]] >> position[v] & 1 == 1

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
        nxt = {}
        for v in self.vertices:
            if self.outdegree(v) == 1:
                nxt[v] = self.out_adj[v][0][0]
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
    indegrees = dict.fromkeys(g.vertices, 0)
    for _, dst, m in g.edges:
        indegrees[dst] += m
    return StructureReport(
        sinks=g.sinks,
        strongly_connected=len(sccs) == 1,
        scc_partition=sccs,
        sandpile=g.sandpile_sink is not None,
        sink_name=g.sandpile_sink,
        outdegrees=tuple(g.outdegree(v) for v in g.vertices),
        indegrees=tuple(indegrees.values()),
    )
