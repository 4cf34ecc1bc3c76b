import functools
import hashlib
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monodyn.corpus import random_sandpile_graph, sandpile_corpus
from monodyn.errors import FiringError, ParseError, Stopped
from monodyn.graph import Graph, adjacency_matrix
from monodyn.grid import GridSpec, grid_config, make_grid
from monodyn.matrix import IntMatrix, det
from monodyn.monoid import MonoidTable, enumerate_monoid, graph_monoid_presentation
from monodyn.smith import invariant_factors
from monodyn.sandpile import (
    ChipConfig,
    fire,
    format_config_terms,
    is_stable,
    parse_config,
    sandpile_monoid,
    serialize_config,
    stabilize,
    stable_add,
)

from conftest import digraphs, rose_graph


def test_fire_single(four_vertex_sandpile):
    c = ChipConfig.from_mapping(four_vertex_sandpile, {"v": 8})
    after = fire(four_vertex_sandpile, c, "v")
    assert after.to_mapping(four_vertex_sandpile) == {"u": 1, "v": 6, "z": 0}
    assert after.absorbed == 1


def test_fire_errors(four_vertex_sandpile):
    c = ChipConfig.from_mapping(four_vertex_sandpile, {"v": 8})
    with pytest.raises(FiringError):
        fire(four_vertex_sandpile, c, "u")  # holds 0 chips
    with pytest.raises(FiringError):
        fire(four_vertex_sandpile, c, "s")  # sink
    with pytest.raises(FiringError):
        fire(four_vertex_sandpile, c, "nope")


def test_stabilize_eight_chips_trace(four_vertex_sandpile):
    start = ChipConfig.from_mapping(four_vertex_sandpile, {"v": 8})
    trace: list[ChipConfig] = []
    config, odometer = stabilize(four_vertex_sandpile, start, trace_to=trace)
    assert config.to_mapping(four_vertex_sandpile) == {"u": 1, "v": 1, "z": 1}
    assert config.absorbed == 5
    assert odometer.to_mapping(four_vertex_sandpile) == {"u": 1, "v": 4, "z": 0}
    rendered = format_config_terms(four_vertex_sandpile, [start] + trace)
    assert rendered == ["8v", "6v+u", "4v+2u", "2v+3u", "3v+z", "v+u+z"]


def test_stabilize_already_stable(four_vertex_sandpile):
    zero = ChipConfig.zero(four_vertex_sandpile)
    config, odometer = stabilize(four_vertex_sandpile, zero)
    assert config == zero and odometer.total() == 0


def test_stability_bound(four_vertex_sandpile):
    rng = random.Random(0)
    for _ in range(30):
        c = ChipConfig.from_mapping(
            four_vertex_sandpile, {v: rng.randint(0, 15) for v in ("u", "v", "z")}
        )
        config, _ = stabilize(four_vertex_sandpile, c)
        assert is_stable(four_vertex_sandpile, config)


def test_conservation(four_vertex_sandpile):
    rng = random.Random(1)
    for _ in range(30):
        c = ChipConfig.from_mapping(
            four_vertex_sandpile, {v: rng.randint(0, 20) for v in ("u", "v", "z")}
        )
        config, _ = stabilize(four_vertex_sandpile, c)
        assert config.total() + config.absorbed == c.total() + c.absorbed


def test_abelian_property_random_orders(four_vertex_sandpile):
    rng = random.Random(2)
    for trial in range(40):
        c = ChipConfig.from_mapping(
            four_vertex_sandpile, {v: rng.randint(0, 12) for v in ("u", "v", "z")}
        )
        a = stabilize(four_vertex_sandpile, c, rng=random.Random(1000 + trial))
        b = stabilize(four_vertex_sandpile, c, rng=random.Random(2000 + trial))
        det = stabilize(four_vertex_sandpile, c)
        assert a[0] == b[0] == det[0]
        assert a[1] == b[1] == det[1]
        assert a[0].absorbed == b[0].absorbed == det[0].absorbed


def test_budget_guard_on_closed_cycle():
    # Two vertices chasing a chip forever: no sink, never stabilizes.
    g = Graph.build(["a", "b"], [("a", "b"), ("b", "a")])
    c = ChipConfig.from_mapping(g, {"a": 1})
    with pytest.raises(Stopped) as err:
        stabilize(g, c, budget=100)
    assert (err.value.by, err.value.bound, err.value.work) == ("firing_budget", 100, 100)
    assert err.value.config.total() == 1  # chips conserved even on abort


def test_budget_cut_is_one_bulk_step():
    # 2^40 chips need far more than 10^7 firings; the cut batch is fired at
    # once, not one firing at a time.
    spec = GridSpec(3, 3, "open")
    g = make_grid(spec)
    c = grid_config(spec, {(1, 1): 2**40})
    t0 = time.perf_counter()
    with pytest.raises(Stopped) as err:
        stabilize(g, c, budget=10**7)
    assert time.perf_counter() - t0 < 1.0
    assert err.value.work == 10**7 == err.value.odometer.total()
    assert err.value.config.total() + err.value.config.absorbed == 2**40


@pytest.mark.parametrize("budget", [0, 1, 5, 17, 100, 1001])
def test_budget_cut_matches_traced_run(budget):
    spec = GridSpec(3, 3, "open")
    g = make_grid(spec)
    c = grid_config(spec, {(1, 1): 2**40, (0, 2): 7})
    with pytest.raises(Stopped) as bulk:
        stabilize(g, c, budget=budget)
    trace: list[ChipConfig] = []
    with pytest.raises(Stopped) as traced:
        stabilize(g, c, budget=budget, trace_to=trace)
    assert len(trace) == budget == bulk.value.work == traced.value.work
    assert bulk.value.config == traced.value.config == (trace[-1] if trace else c)
    assert bulk.value.config.absorbed == traced.value.config.absorbed
    assert bulk.value.odometer == traced.value.odometer


def test_budget_cut_matches_traced_run_through_loops(four_vertex_sandpile):
    # v and z carry loops, so a vertex can be unstable again after its batch.
    g = four_vertex_sandpile
    start = ChipConfig.from_mapping(g, {"v": 40, "z": 9})
    _, odometer = stabilize(g, start)
    for budget in range(odometer.total()):
        with pytest.raises(Stopped) as bulk:
            stabilize(g, start, budget=budget)
        trace: list[ChipConfig] = []
        with pytest.raises(Stopped) as traced:
            stabilize(g, start, budget=budget, trace_to=trace)
        assert len(trace) == budget == bulk.value.work == traced.value.work
        assert bulk.value.config == traced.value.config == (trace[-1] if trace else start)
        assert bulk.value.odometer == traced.value.odometer


@pytest.mark.parametrize("budget", [0, 1, 17, 1001])
def test_random_schedule_stops_at_the_budget(budget):
    spec = GridSpec(3, 3, "open")
    g = make_grid(spec)
    c = grid_config(spec, {(1, 1): 2**40, (0, 2): 7})
    with pytest.raises(Stopped) as err:
        stabilize(g, c, budget=budget, rng=random.Random(budget))
    assert err.value.work == budget == err.value.odometer.total()
    assert err.value.config.total() + err.value.config.absorbed == c.total()


def test_stable_add_monoid_relation(two_cycle_loop_sink):
    x = ChipConfig.from_mapping(two_cycle_loop_sink, {"v": 1})
    two_x = stable_add(two_cycle_loop_sink, x, x)
    assert two_x.to_mapping(two_cycle_loop_sink) == {"u": 1, "v": 0}
    three_x = stable_add(two_cycle_loop_sink, two_x, x)
    assert three_x.to_mapping(two_cycle_loop_sink) == {"u": 1, "v": 1}
    four_x = stable_add(two_cycle_loop_sink, three_x, x)
    assert four_x == three_x


def test_stable_add_identity_and_commutativity(two_cycle_loop_sink):
    rng = random.Random(3)
    zero = ChipConfig.zero(two_cycle_loop_sink)
    for _ in range(20):
        a = ChipConfig((rng.randint(0, 1), rng.randint(0, 1)))
        b = ChipConfig((rng.randint(0, 1), rng.randint(0, 1)))
        assert stable_add(two_cycle_loop_sink, a, zero) == a
        assert stable_add(two_cycle_loop_sink, a, b) == stable_add(two_cycle_loop_sink, b, a)


def test_stable_add_requires_stable_inputs(two_cycle_loop_sink):
    with pytest.raises(FiringError):
        stable_add(two_cycle_loop_sink, ChipConfig((5, 0)), ChipConfig.zero(two_cycle_loop_sink))


LENGTH_CHECKED = {
    "is_stable": is_stable,
    "stable_add first": lambda g, c: stable_add(g, c, ChipConfig.zero(g)),
    "stable_add second": lambda g, c: stable_add(g, ChipConfig.zero(g), c),
    "fire": lambda g, c: fire(g, c, "u"),
    "stabilize": stabilize,
}


@pytest.mark.parametrize("entry", LENGTH_CHECKED)
@pytest.mark.parametrize("counts", [(0, 0, 5), (1,)], ids=["long", "short"])
def test_wrong_length_config_is_refused(two_cycle_loop_sink, entry, counts):
    # u and v are the two non-sink vertices.  stable_add's pointwise sum
    # would drop the chips of a count past them.
    message = f"config has {len(counts)} counts but graph has 2 non-sink vertices"
    with pytest.raises(FiringError, match=message):
        LENGTH_CHECKED[entry](two_cycle_loop_sink, ChipConfig(counts))


@st.composite
def firing_games(draw):
    g = draw(digraphs())
    counts = tuple(draw(st.integers(0, 12)) for _ in g.nonsink_vertices)
    return g, ChipConfig(counts, draw(st.integers(0, 3)))


@settings(max_examples=150, deadline=None)
@given(
    game=firing_games(),
    budget=st.integers(0, 40),
    seed=st.none() | st.integers(0, 2**16),
    traced=st.booleans(),
)
def test_absorbed_is_what_the_odometer_sends_to_sinks(game, budget, seed, traced):
    # Read from the edge list alone: the chips each firing of v drops into
    # sinks, the vertices no edge leaves.
    g, start = game
    sources = {src for src, _, _ in g.edges}
    into_sinks = {v: 0 for v in g.nonsink_vertices}
    for src, dst, m in g.edges:
        if dst not in sources:
            into_sinks[src] += m
    trace: list[ChipConfig] | None = [] if traced else None
    rng = None if seed is None else random.Random(seed)
    try:
        config, odometer = stabilize(g, start, budget=budget, rng=rng, trace_to=trace)
    except Stopped as err:
        config, odometer = err.config, err.odometer
    fired = odometer.to_mapping(g)
    assert config.absorbed == start.absorbed + sum(fired[v] * into_sinks[v] for v in fired)
    assert config.total() + config.absorbed == start.total() + start.absorbed
    if traced:
        assert len(trace) == odometer.total()
    if trace:
        assert trace[-1] == config and trace[-1].absorbed == config.absorbed


def test_sandpile_monoid_of_f(two_cycle_loop_sink):
    t = sandpile_monoid(two_cycle_loop_sink)
    assert t.size == 4
    t.check_laws()
    x = t.generator_classes[1]  # class of a single chip on v
    chain = [t.identity]
    for _ in range(4):
        chain.append(t.add[chain[-1]][x])
    assert len(set(chain[:4])) == 4  # 0, x, 2x, 3x all distinct
    assert chain[4] == chain[3]  # 4x = 3x
    assert all(e in chain[:4] for e in range(4))  # generated by x


def test_sandpile_monoid_trivial():
    g = Graph.build(["v", "s"], [("v", "s")])
    t = sandpile_monoid(g)
    assert t.size == 1 and t.identity == 0


def test_sandpile_monoid_element_count(four_vertex_sandpile):
    t = sandpile_monoid(four_vertex_sandpile)
    assert t.size == 27
    t.check_laws()


def test_sandpile_monoid_cap(four_vertex_sandpile):
    with pytest.raises(Stopped, match="count 27 exceeds max_elements 10") as err:
        sandpile_monoid(four_vertex_sandpile, max_elements=10)
    assert err.value.by == "max_elements" and err.value.bounds == (("max_elements", 10),)


def test_sandpile_monoid_rejects_non_sandpile():
    with pytest.raises(FiringError):
        sandpile_monoid(rose_graph(2))


def definitional_table(g: Graph) -> MonoidTable:
    """The sandpile monoid straight from its definition: stable_add on every
    pair of stable configurations, listed in lexicographic order."""
    nonsink = g.nonsink_vertices
    elements = list(itertools.product(*(range(g.outdegree(v)) for v in nonsink)))
    index = {e: i for i, e in enumerate(elements)}
    add = tuple(
        tuple(index[stable_add(g, ChipConfig(a), ChipConfig(b)).counts] for b in elements)
        for a in elements
    )
    units = [tuple(int(i == k) for i in range(len(nonsink))) for k in range(len(nonsink))]
    generator_classes = tuple(index[stabilize(g, ChipConfig(e))[0].counts] for e in units)
    return MonoidTable(
        tuple(nonsink), tuple(elements), add, index[(0,) * len(nonsink)], generator_classes
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(3, 4), (4, 4), (5, 2), (6, 2), (5, 3), (5, 4), (6, 3), (6, 4)]),
)
def test_sandpile_monoid_matches_definition(seed, shape):
    max_vertices, max_outdegree = shape
    g = random_sandpile_graph(random.Random(seed), max_vertices, max_outdegree)
    assume(math.prod(g.outdegree(v) for v in g.nonsink_vertices) <= 64)
    assert sandpile_monoid(g) == definitional_table(g)


def cycle_with_loops(k: int) -> Graph:
    """k-cycle with a loop and two sink edges at every vertex: outdegree 4
    everywhere, so 4**k stable configurations."""
    names = [f"c{i}" for i in range(k)] + ["s"]
    edges = []
    for i in range(k):
        edges += [(names[i], names[(i + 1) % k]), (names[i], names[i]), (names[i], "s", 2)]
    return Graph.build(names, edges)


def reduced_laplacian(g: Graph) -> IntMatrix:
    a = adjacency_matrix(g)
    keep = [g.index[v] for v in g.nonsink_vertices]
    return IntMatrix.from_rows(
        [[g.outdegree(g.vertices[i]) * (i == j) - a.at(i, j) for j in keep] for i in keep]
    )


def recurrent_count(g: Graph) -> int:
    """The recurrent configurations are the minimal ideal of the sandpile
    monoid, which is the orbit of the maximal stable configuration."""
    t = sandpile_monoid(g)
    top = t.elements.index(tuple(g.outdegree(v) - 1 for v in g.nonsink_vertices))
    return len(set(t.add[top]))


def test_recurrent_count_is_det_of_reduced_laplacian():
    for g in sandpile_corpus(11, 40, max_vertices=5, max_outdegree=3):
        assert recurrent_count(g) == det(reduced_laplacian(g))


def test_recurrent_count_1024_element_cycle():
    g = cycle_with_loops(5)
    assert math.prod(g.outdegree(v) for v in g.nonsink_vertices) == 1024
    assert recurrent_count(g) == det(reduced_laplacian(g)) == 3**5 - 1


def table_digest(t: MonoidTable) -> str:
    return hashlib.sha256(json.dumps(t.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_sandpile_tables_are_pinned():
    # Digests of the tables the stabilize-per-threshold-sum builder gave.
    weighted = Graph.build(
        ["a", "b", "c", "s"],
        [
            ("a", "s", 2), ("a", "a", 2), ("a", "b"),
            ("b", "c", 3), ("b", "b"), ("b", "s"),
            ("c", "a", 2), ("c", "c", 2), ("c", "s", 3),
        ],
    )
    cycle = sandpile_monoid(cycle_with_loops(5))
    assert cycle.size == 1024
    assert table_digest(cycle) == "72fb11041cc2841a7dfcdd7d18bb98aefb686b124eed40d147ca86af85afc8d9"
    table = sandpile_monoid(weighted)
    assert table.size == 175
    assert table_digest(table) == "2ab42e8c58216aeb56a65433bfed80feb310f0300d54b1b7b5832641ca6b11ae"


def test_sandpile_monoid_never_stabilizes(four_vertex_sandpile, monkeypatch):
    expected = definitional_table(four_vertex_sandpile)

    def refuse(*args, **kwargs):
        raise AssertionError("sandpile_monoid called stabilize")

    monkeypatch.setattr("monodyn.sandpile.stabilize", refuse)
    t = sandpile_monoid(four_vertex_sandpile)
    assert t.size == 27 and t == expected


def minimal_ideal_torsion(t: MonoidTable) -> tuple[int, dict[int, int]]:
    """Order of the minimal ideal of a finite commutative monoid, and for
    every m dividing it the number of elements x with m x = e.

    The sum of all elements is the largest element (every element divides
    it), so it lies in the minimal ideal, which is its orbit.  The ideal must
    be an abelian group: one idempotent e, neutral on the ideal, and an
    inverse for every element."""
    top = functools.reduce(lambda x, y: t.add[x][y], range(t.size), t.identity)
    ideal = set(t.add[top])
    (e,) = [x for x in ideal if t.add[x][x] == x]
    assert all(t.add[e][x] == x for x in ideal)
    assert all(any(t.add[x][y] == e for y in ideal) for x in ideal)
    orders = []
    for x in ideal:
        k, y = 1, x
        while y != e:
            k, y = k + 1, t.add[y][x]
        orders.append(k)
    n = len(ideal)
    return n, {m: sum(m % k == 0 for k in orders) for m in range(1, n + 1) if n % m == 0}


def expected_torsion(n: int, factors: tuple[int, ...]) -> dict[int, int]:
    """m-torsion counts of the group with these (nonzero) invariant factors."""
    return {m: math.prod(math.gcd(m, d) for d in factors) for m in range(1, n + 1) if n % m == 0}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(3, 4), (4, 4), (5, 3), (5, 4), (6, 3), (6, 4)]),
)
def test_minimal_ideal_is_the_group_completion(seed, shape):
    """Both builders' minimal ideals are the sandpile group: Z^n modulo the
    reduced Laplacian on the sandpile side, Z^n modulo the relation
    differences on the presentation side."""
    max_vertices, max_outdegree = shape
    g = random_sandpile_graph(random.Random(seed), max_vertices, max_outdegree)
    assume(math.prod(g.outdegree(v) for v in g.nonsink_vertices) <= 64)
    laplacian = tuple(abs(d) for d in invariant_factors(reduced_laplacian(g)))
    n, torsion = minimal_ideal_torsion(sandpile_monoid(g))
    assert n == math.prod(laplacian) and torsion == expected_torsion(n, laplacian)

    p = graph_monoid_presentation(g, weighted=True, sink_zero=True)
    differences = IntMatrix.from_rows(
        [[x - y for x, y in zip(lhs, rhs)] for lhs, rhs in p.relations]
    )
    factors = tuple(abs(d) for d in invariant_factors(differences))
    assert len(factors) == len(p.generators) and 0 not in factors  # free rank 0
    table = enumerate_monoid(p)
    assert table is not None
    n, torsion = minimal_ideal_torsion(table)
    assert n == math.prod(factors) and torsion == expected_torsion(n, factors)


def test_from_generator_action_rejects_parent_not_below_child():
    # The three-element monoid 0, x, 2x = 3x on one generator.
    elements = ((0,), (1,), (2,))
    action = [[1, 2, 2]]  # one column: x sends 0, x, 2x to x, 2x, 2x
    t = MonoidTable.from_generator_action(("x",), elements, action, 0, [None, (0, 0), (1, 0)])
    assert t.add == ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    t.check_laws()
    for parents in ([None, (2, 0), (1, 0)], [None, (0, 0), (2, 0)], [None, None, (1, 0)]):
        with pytest.raises(ValueError):
            MonoidTable.from_generator_action(("x",), elements, action, 0, parents)


def test_from_generator_action_rejects_a_column_count_or_entry_off_the_classes():
    # Z/2 on one generator: x + x = 0.
    elements, parents = ((0,), (1,)), [None, (0, 0)]
    t = MonoidTable.from_generator_action(("x",), elements, [[1, 0]], 0, parents)
    assert t.add == ((0, 1), (1, 0)) and t.generator_classes == (1,)
    bad = [
        (("x", "y"), [[1, 0]]),  # two generators, one column
        (("x",), [[1, 0], [1, 0]]),  # one generator, two columns
        (("x",), [[1, -1]]),  # -1 would land in the table as class -1
        (("x",), [[1, 2]]),  # 2 is no class of a two-element monoid
    ]
    for generators, action in bad:
        with pytest.raises(ValueError):
            MonoidTable.from_generator_action(generators, elements, action, 0, parents)


def test_from_generator_action_rejects_a_parent_generator_off_the_list():
    # The Klein four-group on x and y: x + x = y + y = 0.
    elements = ((0, 0), (1, 0), (0, 1), (1, 1))
    action = [[1, 0, 3, 2], [2, 3, 0, 1]]
    parents = [None, (0, 0), (0, 1), (1, 1)]
    t = MonoidTable.from_generator_action(("x", "y"), elements, action, 0, parents)
    assert t.add[3] == (3, 2, 1, 0)
    t.check_laws()
    # Generator -1 would read the last column, and 2 lies past the columns.
    for g in (-1, 2):
        bad = [None, (0, 0), (0, g), (1, 1)]
        with pytest.raises(ValueError, match="parent of class 2 must name one of the generators"):
            MonoidTable.from_generator_action(("x", "y"), elements, action, 0, bad)


def test_monoid_vs_presentation_oracle(two_cycle_loop_sink):
    """The stable-configuration table and the presentation enumeration are
    the same monoid; the stabilization map is the isomorphism."""
    p = graph_monoid_presentation(two_cycle_loop_sink, weighted=True, sink_zero=True)
    t_pres = enumerate_monoid(p, max_elements=50)
    t_conf = sandpile_monoid(two_cycle_loop_sink)
    assert t_pres is not None and t_pres.size == t_conf.size

    def to_config_class(vec):
        config, _ = stabilize(two_cycle_loop_sink, ChipConfig(vec))
        return t_conf.elements.index(config.counts)

    mapping = [to_config_class(rep) for rep in t_pres.elements]
    assert sorted(mapping) == list(range(t_conf.size))
    for i in range(t_pres.size):
        for j in range(t_pres.size):
            assert mapping[t_pres.add[i][j]] == t_conf.add[mapping[i]][mapping[j]]


def test_config_parse_serialize(four_vertex_sandpile):
    c = parse_config(four_vertex_sandpile, "v 8\n# comment\nu 0\n")
    assert c.to_mapping(four_vertex_sandpile) == {"u": 0, "v": 8, "z": 0}
    text = serialize_config(four_vertex_sandpile, c)
    assert parse_config(four_vertex_sandpile, text) == c
    with pytest.raises(ParseError):
        parse_config(four_vertex_sandpile, "q 1\n")
    with pytest.raises(ParseError):
        parse_config(four_vertex_sandpile, "s 1\n")  # sink carries no count
    with pytest.raises(ParseError):
        parse_config(four_vertex_sandpile, "v -1\n")


def test_format_config_terms_zero(four_vertex_sandpile):
    zero = ChipConfig.zero(four_vertex_sandpile)
    assert format_config_terms(four_vertex_sandpile, [zero]) == ["0"]
