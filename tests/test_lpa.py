import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings

from monodyn.errors import ShapeError
from monodyn.graph import Graph, structure_report
from monodyn.grid import GridSpec, make_grid
from monodyn.lpa import (
    SimplicityVerdict,
    higman_thompson_iso,
    kp_compare,
    lpa_simple,
    lpa_zorn,
    matrix_leavitt_iso,
)
from monodyn.shifteq import verify_se

from conftest import digraphs, reachable_from, rose_graph


def test_simplicity_trio(simplicity_trio):
    left, middle, right = simplicity_trio
    v_left = lpa_simple(left)
    assert not v_left.simple and v_left.failure == "exitless_cycle"
    assert set(v_left.witness_cycle) == {"u", "v"}
    v_middle = lpa_simple(middle)
    assert not v_middle.simple and v_middle.failure == "cofinality"
    assert v_middle.witness_vertex == "w"  # the sink cannot reach the cycle
    assert set(v_middle.witness_target) == {"u", "v"}
    v_right = lpa_simple(right)
    assert v_right.simple and v_right.failure is None


def test_simplicity_rose_and_loop():
    assert lpa_simple(rose_graph(2)).simple
    single_loop = lpa_simple(rose_graph(1))
    assert not single_loop.simple and single_loop.failure == "exitless_cycle"
    assert single_loop.witness_cycle == ("v",)


def test_zorn(graph_two_cycle_loop):
    assert lpa_zorn(graph_two_cycle_loop)
    assert not lpa_zorn(rose_graph(1))
    acyclic = Graph.build(["a", "b"], [("a", "b")])
    assert lpa_zorn(acyclic)


def brute_simple(g: Graph) -> bool:
    reach = {v: reachable_from(g, v) for v in g.vertices}
    sinks = [v for v in g.vertices if g.outdegree(v) == 0]
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
    for v in g.vertices:
        for s in sinks:
            if s not in reach[v]:
                return False
        for cyc in cycles:
            if not any(u in reach[v] for u in cyc):
                return False
    for cyc in cycles:
        if all(g.outdegree(u) == 1 for u in cyc):
            return False
    return True


def test_simple_and_zorn_against_brute_force():
    rng = random.Random(21)
    for _ in range(250):
        n = rng.randint(1, 5)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for src in names:
            for dst in names:
                m = rng.choice((0, 0, 0, 1, 1, 2))
                if m:
                    edges.append((src, dst, m))
        g = Graph.build(names, edges)
        assert lpa_simple(g).simple == brute_simple(g)
        assert lpa_zorn(g) == (reference_exitless_cycle(g) is None)


def reference_exitless_cycle(g: Graph) -> tuple[str, ...] | None:
    """Reference exit walk: follow the outdegree-1 vertices from each start
    in declaration order and return the first cycle closed."""
    nxt = {}
    for v in g.vertices:
        if g.outdegree(v) == 1:
            nxt[v] = g.out_adj[v][0][0]
    color: dict[str, int] = {}  # 1 = on current walk, 2 = finished
    for start in g.vertices:
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


def reference_simple(g: Graph) -> SimplicityVerdict:
    """Reference verdict: one reachability search per vertex, checked against
    the sinks and then the cycle-holding components, then the exit walk.  The
    components are the mutual reachability classes, listed by their first
    vertex, each in declaration order."""
    reach = {v: reachable_from(g, v) for v in g.vertices}
    comps: list[tuple[str, ...]] = []
    for v in g.vertices:
        if not any(v in comp for comp in comps):
            comps.append(tuple(u for u in g.vertices if u in reach[v] and v in reach[u]))
    cycles = [
        comp for comp in comps
        if len(comp) > 1 or any(dst == comp[0] for dst, _ in g.out_adj[comp[0]])
    ]
    for v in g.vertices:
        for s in g.sinks:
            if s not in reach[v]:
                return SimplicityVerdict(False, "cofinality", witness_vertex=v, witness_target=(s,))
        for comp in cycles:
            if not any(u in reach[v] for u in comp):
                return SimplicityVerdict(False, "cofinality", witness_vertex=v, witness_target=comp)
    cycle = reference_exitless_cycle(g)
    if cycle is not None:
        return SimplicityVerdict(False, "exitless_cycle", witness_cycle=cycle)
    return SimplicityVerdict(True)


@settings(max_examples=400, deadline=None)
@given(g=digraphs())
def test_simple_matches_the_per_vertex_reference(g):
    got, want = lpa_simple(g), reference_simple(g)
    for field in SimplicityVerdict.__slots__:
        assert getattr(got, field) == getattr(want, field), field
    assert got.simple == brute_simple(g)


def _open_grid() -> Graph:
    return make_grid(GridSpec(100, 100, "open"))


def _open_grid_and_loop() -> Graph:
    g = _open_grid()
    return Graph.build(g.vertices + ("x",), g.edges + (("x", "x", 1),))


# The open 100x100 grid: every cell reaches the sink, which reaches no cell,
# so the witness is the sink, declared last, missing the grid's component.
# With an isolated looped vertex x declared after the sink, the first cell
# already misses x.  Each answer takes a linear pass, where one reachability
# search per vertex would make 10 001 searches over about 40 000 edges, and
# one scan of the edges per indegree 10 001 scans.
@pytest.mark.parametrize("looped", [False, True], ids=["grid", "grid-and-loop"])
def test_large_grid_in_linear_time(looped):
    build = _open_grid_and_loop if looped else _open_grid
    cells = tuple(f"r{r}c{c}" for r in range(100) for c in range(100))
    outdegrees = (4,) * len(cells) + (0,)
    indegrees = tuple((r > 0) + (r < 99) + (c > 0) + (c < 99) for r in range(100) for c in range(100))
    indegrees += (400,)  # the sink: four edges from each of the 100 boundary positions
    if looped:
        verdict = SimplicityVerdict(False, "cofinality", witness_vertex="r0c0", witness_target=("x",))
        partition = (cells, ("sink",), ("x",))
        outdegrees, indegrees = outdegrees + (1,), indegrees + (1,)
    else:
        verdict = SimplicityVerdict(False, "cofinality", witness_vertex="sink", witness_target=cells)
        partition = (cells, ("sink",))

    g = build()
    start = time.perf_counter()
    assert lpa_simple(g) == verdict
    assert time.perf_counter() - start < 2.0

    g = build()
    start = time.perf_counter()
    rep = structure_report(g)
    assert time.perf_counter() - start < 2.0
    assert rep.sinks == ("sink",)
    assert not rep.strongly_connected
    assert rep.scc_partition == partition
    assert rep.sandpile is not looped
    assert rep.sink_name == (None if looped else "sink")
    assert rep.outdegrees == outdegrees
    assert rep.indegrees == indegrees


def _chain_into_two_loops(k: int) -> Graph:
    chain = [f"v{i}" for i in range(k)]
    edges = list(zip(chain, chain[1:])) + [(chain[-1], "a"), (chain[-1], "b"), ("a", "a"), ("b", "b")]
    return Graph.build(chain + ["a", "b"], edges)


# A chain v0 -> ... -> v(k-1) feeding two looped vertices a and b: every
# chain vertex reaches both loops, and a is the first vertex to miss one.
# One reachability search per component would take time quadratic in k.
def test_long_chain_witness_without_a_search_per_component():
    g = _chain_into_two_loops(20_000)
    start = time.perf_counter()
    verdict = lpa_simple(g)
    assert time.perf_counter() - start < 2.0
    assert verdict == SimplicityVerdict(False, "cofinality", witness_vertex="a", witness_target=("b",))


# The same chain in memory linear in k: one mask per vertex, over the two
# targets.  A mask per component over all components, as the reachability
# cache once kept, peaks at about 35 MB under tracemalloc (Python 3.11),
# against about 13 MB for the whole answer now.
def test_long_chain_witness_in_linear_memory():
    g = _chain_into_two_loops(20_000)
    tracemalloc.start()
    try:
        verdict = lpa_simple(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.witness_vertex == "a"
    assert peak < 20_000_000


def test_gcd_examples():
    assert matrix_leavitt_iso(2, 1, 2, 3)
    assert not matrix_leavitt_iso(2, 1, 3, 1)
    assert matrix_leavitt_iso(5, 2, 5, 6)  # gcd(2,4) = gcd(6,4) = 2
    assert higman_thompson_iso(2, 1, 2, 3)
    assert not higman_thompson_iso(4, 3, 4, 5)  # gcd(3,3) = 3, gcd(5,3) = 1
    assert higman_thompson_iso(7, 4, 7, 4)


def test_gcd_range_validation():
    with pytest.raises(ShapeError):
        matrix_leavitt_iso(1, 1, 2, 1)
    with pytest.raises(ShapeError):
        higman_thompson_iso(2, 0, 2, 1)


def test_gcd_theorems_agree_and_match_direct_condition():
    for n, m in itertools.product(range(2, 7), repeat=2):
        for r, s in itertools.product(range(1, 11), repeat=2):
            a = matrix_leavitt_iso(n, r, m, s)
            b = higman_thompson_iso(n, r, m, s)
            direct = (m == n) and math.gcd(r, n - 1) == math.gcd(s, n - 1)
            assert a == b == direct


def test_gcd_reflexive_symmetric():
    for n, m in itertools.product(range(2, 7), repeat=2):
        for r, s in itertools.product(range(1, 11), repeat=2):
            assert matrix_leavitt_iso(n, r, n, r)
            assert matrix_leavitt_iso(n, r, m, s) == matrix_leavitt_iso(m, s, n, r)


def test_kp_compare_reflexive(graph_two_cycle_loop):
    verdict = kp_compare(graph_two_cycle_loop, graph_two_cycle_loop)
    assert verdict.kind == "iso_witness"
    assert verdict.generator_images is not None


def test_kp_compare_two_cycle_vs_rose(graph_two_cycle_loop):
    verdict = kp_compare(graph_two_cycle_loop, rose_graph(2))
    assert verdict.kind == "iso_witness"


def test_kp_compare_witness_replays(graph_two_cycle_loop):
    """An iso witness must replay: the generator images induce a bijective
    homomorphism matching the order units."""
    from monodyn.monoid import enumerate_monoid, graph_monoid_presentation

    src, dst = graph_two_cycle_loop, rose_graph(2)
    verdict = kp_compare(src, dst)
    images = verdict.generator_images
    p1 = graph_monoid_presentation(src)
    t1 = enumerate_monoid(p1, 10)
    t2 = enumerate_monoid(graph_monoid_presentation(dst), 10)

    def phi(vec):
        acc = t2.identity
        for coeff, img in zip(vec, images):
            for _ in range(coeff):
                acc = t2.add[acc][img]
        return acc

    mapped = [phi(rep) for rep in t1.elements]
    assert sorted(mapped) == list(range(t2.size))
    for i in range(t1.size):
        for j in range(t1.size):
            summed = tuple(a + b for a, b in zip(t1.elements[i], t1.elements[j]))
            assert phi(summed) == t2.add[mapped[i]][mapped[j]]
    assert mapped[t1.unit_class()] == t2.unit_class()


def test_kp_compare_size_mismatch(two_cycle_loop_sink, four_vertex_sandpile):
    verdict = kp_compare(two_cycle_loop_sink, four_vertex_sandpile, presentation="sandpile")
    assert verdict.kind == "not_iso"
    assert "4" in verdict.detail and "27" in verdict.detail


def test_kp_compare_unknown_when_infinite(two_cycle_loop_sink):
    # The unweighted monoid of this graph has a free sink generator, so
    # enumeration cannot close and the honest verdict is unknown.
    verdict = kp_compare(two_cycle_loop_sink, two_cycle_loop_sink, presentation="unweighted")
    assert verdict.kind == "unknown"


def test_kp_compare_graded_reflexive(graph_two_cycle_loop):
    verdict = kp_compare(graph_two_cycle_loop, graph_two_cycle_loop, mode="graded")
    assert verdict.kind == "iso_witness"
    assert verdict.se_witness is not None


def test_kp_compare_graded_obstruction():
    from monodyn.graph import graph_from_matrix
    from monodyn.matrix import IntMatrix

    double_loop = graph_from_matrix(IntMatrix.from_rows([[2]]))
    triple_loop = graph_from_matrix(IntMatrix.from_rows([[3]]))
    verdict = kp_compare(double_loop, triple_loop, mode="graded")
    assert verdict.kind == "not_iso"
    assert verdict.invariants is not None


def test_kp_compare_graded_witness_verifies(graph_two_cycle_loop):
    from monodyn.graph import adjacency_matrix, graph_from_matrix

    a = adjacency_matrix(graph_two_cycle_loop)
    g = graph_from_matrix(a)
    verdict = kp_compare(g, g, mode="graded")
    assert verdict.kind == "iso_witness"
    assert verify_se(a, a, verdict.se_witness)


def test_kp_compare_graded_computes_invariants_once(monkeypatch):
    import monodyn.shifteq as shifteq
    from monodyn.graph import graph_from_matrix
    from monodyn.matrix import IntMatrix

    calls = []

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    original = shifteq.invariants_report
    monkeypatch.setattr(shifteq, "invariants_report", counted)
    for left, right, kind in (
        ([[2]], [[3]], "not_iso"),
        ([[1, 1], [1, 0]], [[1, 1], [1, 0]], "iso_witness"),
        ([[3, 0], [0, 0]], [[0, 0], [0, 3]], "unknown"),
    ):
        calls.clear()
        first = graph_from_matrix(IntMatrix.from_rows(left))
        second = graph_from_matrix(IntMatrix.from_rows(right))
        assert kp_compare(first, second, mode="graded").kind == kind
        assert len(calls) == 1
