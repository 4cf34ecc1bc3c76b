import itertools
import random

import pytest
from hypothesis import given, settings

from monodyn.errors import ParseError, ShapeError
from monodyn.graph import (
    Graph,
    adjacency_matrix,
    graph_from_matrix,
    parse_graph,
    serialize_graph,
    structure_report,
)
from monodyn.matrix import IntMatrix

from conftest import FOUR_VERTEX_SANDPILE_TEXT, digraphs, reachable_from, rose_graph


def test_parse_four_vertex_sandpile():
    g = parse_graph(FOUR_VERTEX_SANDPILE_TEXT)
    assert g.vertices == ("u", "v", "z", "s")
    assert sum(m for _, _, m in g.edges) == 9
    assert g.sinks == ("s",)
    assert g.outdegree("u") == g.outdegree("v") == g.outdegree("z") == 3


def test_parse_single_vertex():
    g = parse_graph("v a\n")
    assert g.vertices == ("a",)
    assert g.edges == ()
    assert g.sinks == ("a",)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("v a\ne a b\n")
    assert "b" in str(err.value) and "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_graph("v a\nv a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_graph("v a\nq a\n")
    with pytest.raises(ParseError):
        parse_graph("v a\ne a a 0\n")
    with pytest.raises(ParseError):
        parse_graph("v a\nv b\nw a 1\n")  # weight must cover every vertex


@pytest.mark.parametrize(
    "text, message",
    [
        ("# a comment\n\nv a b\n", "line 3: vertex line must be 'v <name>'"),
        ("v a\ne a\n", "line 2: edge line must be 'e <src> <dst> [mult]'"),
        ("v a\ne a a 1 2\n", "line 2: edge line must be 'e <src> <dst> [mult]'"),
        ("v a\ne a a x\n", "line 2: bad multiplicity 'x'"),
        ("v a\nw a\n", "line 2: weight line must be 'w <name> <int>'"),
        ("v a\nw b 1\n", "line 2: weight for undeclared vertex 'b'"),
        ("v a  # w a x\nw a x\n", "line 2: bad weight 'x'"),
    ],
)
def test_parse_graph_names_each_bad_record(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "vertices, edges, weights, message",
    [
        (["a", "a"], [], None, "duplicate vertex 'a'"),
        (["a"], [("a", "b")], None, "edge references undeclared vertex 'b'"),
        (["a"], [("b", "a")], None, "edge references undeclared vertex 'b'"),
        (["a"], [("a", "a", 0)], None, "edge multiplicity must be >= 1, got 0"),
        (["a", "b", "c"], [], {"b": 1}, "weight map missing vertices: a, c"),
        (["a"], [], {"a": -1}, "negative weight for vertex 'a'"),
    ],
)
def test_build_names_each_bad_argument(vertices, edges, weights, message):
    with pytest.raises(ParseError) as err:
        Graph.build(vertices, edges, weights)
    assert str(err.value) == message


def test_multiplicity_aggregation():
    g = parse_graph("v a\nv b\ne a b\ne a b\ne a b 2\n")
    assert g.edges == (("a", "b", 4),)
    assert g.outdegree("a") == 4


def test_serialize_roundtrip():
    for text in (FOUR_VERTEX_SANDPILE_TEXT, "v a\n", "v a\nv b\ne a b 3\nw a 2\nw b 0\n"):
        g = parse_graph(text)
        assert parse_graph(serialize_graph(g)) == g


def test_adjacency_known(graph_two_cycle_loop):
    m = adjacency_matrix(graph_two_cycle_loop)
    assert m.to_rows() == [[1, 1], [1, 0]]
    assert adjacency_matrix(rose_graph(3)).to_rows() == [[3]]
    edgeless = Graph.build(["a", "b", "c"])
    assert adjacency_matrix(edgeless) == IntMatrix.zeros(3, 3)


def test_graph_from_matrix():
    g = graph_from_matrix(IntMatrix.from_rows([[1, 1], [1, 1]]))
    assert g.vertices == ("v1", "v2")
    assert sum(m for _, _, m in g.edges) == 4
    assert graph_from_matrix(IntMatrix.from_rows([[2]])).edges == (("v1", "v1", 2),)
    with pytest.raises(ShapeError) as err:
        graph_from_matrix(IntMatrix.from_rows([[1, -1], [0, 0]]))
    assert "negative entry at (1,2)" in str(err.value)
    with pytest.raises(ShapeError):
        graph_from_matrix(IntMatrix.from_rows([[1, 2, 3]]))


def test_matrix_roundtrip_random():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = IntMatrix(n, n, tuple(rng.randint(0, 3) for _ in range(n * n)))
        assert adjacency_matrix(graph_from_matrix(m)) == m


def test_structure_report_graph_e(four_vertex_sandpile):
    rep = structure_report(four_vertex_sandpile)
    assert rep.sandpile and rep.sink_name == "s"
    assert rep.sinks == ("s",)
    assert not rep.strongly_connected
    assert rep.outdegrees == (3, 3, 3, 0)
    assert rep.indegrees == (2, 2, 2, 3)


def test_structure_report_rose_and_cycle(graph_two_cycle_loop):
    rep = structure_report(rose_graph(2))
    assert not rep.sandpile and rep.sinks == () and rep.strongly_connected
    assert structure_report(graph_two_cycle_loop).strongly_connected


def test_sandpile_flag_matches_bfs():
    # Independent check: sandpile iff exactly one sink and BFS from every
    # vertex reaches it.
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(1, 5)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for _ in range(rng.randint(0, 2 * n)):
            edges.append((rng.choice(names), rng.choice(names)))
        g = Graph.build(names, edges)
        rep = structure_report(g)
        expected = len(g.sinks) == 1 and all(
            g.sinks[0] in reachable_from(g, v) for v in g.vertices
        )
        assert rep.sandpile == expected
        assert rep.indegrees == tuple(sum(m for _, dst, m in g.edges if dst == v) for v in g.vertices)
        assert g.sandpile_sink == rep.sink_name == (g.sinks[0] if expected else None)


def test_scc_partition():
    g = Graph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")])
    sccs = g.components
    assert set(map(frozenset, sccs)) == {frozenset({"a", "b"}), frozenset({"c"}), frozenset({"d"})}
    assert sccs[0] == ("a", "b")
    assert g.cyclic_components == (("a", "b"),)


@settings(max_examples=300, deadline=None)
@given(g=digraphs())
def test_components_are_the_mutual_reachability_classes(g):
    reach = {v: reachable_from(g, v) for v in g.vertices}
    comps = g.components
    # A partition of the vertices ...
    assert sorted(v for comp in comps for v in comp) == sorted(g.vertices)
    # ... whose blocks are the mutual reachability classes ...
    block = {v: i for i, comp in enumerate(comps) for v in comp}
    masks = g.reached(g.vertices)
    for u in g.vertices:
        for i, v in enumerate(g.vertices):
            assert (block[u] == block[v]) == (v in reach[u] and u in reach[v])
            assert masks[u] >> i & 1 == (v in reach[u])
    # Every edge of the finishing order enters an earlier or the same component.
    finished = {v: k for k, comp in enumerate(g._finished) for v in comp}
    assert sorted(map(sorted, g._finished)) == sorted(map(sorted, comps))
    for src, dst, _ in g.edges:
        assert finished[dst] <= finished[src]
    # ... listed by smallest vertex index, each in declaration order.
    idx = g.index
    firsts = [idx[comp[0]] for comp in comps]
    assert firsts == sorted(firsts)
    for comp in comps:
        assert [idx[v] for v in comp] == sorted(idx[v] for v in comp)
    # A component holds a cycle when one of its vertices returns to itself.
    returns = {v for v in g.vertices if any(v in reach[dst] for dst, _ in g.out_adj[v])}
    assert g.cyclic_components == tuple(comp for comp in comps if returns & set(comp))


def test_every_cycle_has_exit_basics(graph_two_cycle_loop, simplicity_trio):
    assert Graph.build(["v"], [("v", "v")]).exitless_cycle == ("v",)
    assert graph_two_cycle_loop.exitless_cycle is None
    left, middle, right = simplicity_trio
    assert set(left.exitless_cycle) == {"u", "v"}
    assert middle.exitless_cycle is None
    assert right.exitless_cycle is None
    assert rose_graph(2).exitless_cycle is None  # parallel loop is its own exit


def brute_force_cycle_exits(g: Graph) -> tuple[bool, tuple[str, ...] | None]:
    """Enumerate all simple cycles; a cycle has an exit iff some vertex on it
    emits more than one edge (counting multiplicity)."""
    cycles = []

    def extend(path):
        v = path[-1]
        for dst, _ in g.out_adj[v]:
            if dst == path[0]:
                cycles.append(tuple(path))
            elif dst not in path:
                extend(path + [dst])

    for start in g.vertices:
        extend([start])
    # Deduplicate rotations.
    seen = set()
    unique = []
    for cyc in cycles:
        key = frozenset(cyc)
        rotations = {cyc[i:] + cyc[:i] for i in range(len(cyc))}
        if not rotations & seen:
            seen.update(rotations)
            unique.append(cyc)
    for cyc in unique:
        if all(g.outdegree(v) == 1 for v in cyc):
            return False, cyc
    return True, None


def test_cycle_exit_exhaustive_small():
    # All graphs on <= 3 vertices with entrywise multiplicities <= 2.
    names = ["a", "b", "c"]
    for n in (1, 2, 3):
        cells = n * n
        for assignment in itertools.product(range(3), repeat=cells):
            edges = []
            for k, m in enumerate(assignment):
                if m:
                    edges.append((names[k // n], names[k % n], m))
            g = Graph.build(names[:n], edges)
            assert (g.exitless_cycle is None) == brute_force_cycle_exits(g)[0]


def test_cycle_exit_random_larger():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(4, 5)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for src in names:
            for dst in names:
                m = rng.choice((0, 0, 0, 1, 1, 2))
                if m:
                    edges.append((src, dst, m))
        g = Graph.build(names, edges)
        witness = g.exitless_cycle
        assert (witness is None) == brute_force_cycle_exits(g)[0]
        if witness is not None:
            # Witness must be a genuine exit-less cycle.
            assert all(g.outdegree(v) == 1 for v in witness)
            for i, v in enumerate(witness):
                nxt = witness[(i + 1) % len(witness)]
                assert g.out_adj[v] == ((nxt, 1),)


def test_vertex_weight_defaults(four_vertex_sandpile):
    assert four_vertex_sandpile.vertex_weight("u") == 3
    g = parse_graph("v a\nv b\ne a b\nw a 7\nw b 0\n")
    assert g.vertex_weight("a") == 7
