import gc
import hashlib
import itertools
import json
import math
import random
import time
import weakref

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monodyn.corpus import random_sandpile_graph, sandpile_corpus
from monodyn.dimension import talented_window
from monodyn.errors import ParseError, Stopped
from monodyn.graph import Graph
from monodyn.cli import run
from monodyn.monoid import (
    MonoidPresentation,
    MonoidTable,
    congruent_difference_possible,
    enumerate_monoid,
    find_unit_isomorphism,
    graph_monoid_presentation,
    order_unit,
    parse_element,
    parse_presentation,
    replay_path,
    serialize_presentation,
    words_equal,
    _box_action,
    _enumerate_monoid,
    _grevlex_above,
    _normal_form,
    _rewriting_rules,
    _walk,
)
from monodyn.sandpile import ChipConfig, _firing_rule, sandpile_monoid, stabilize

from conftest import rose_graph


def two_cycle_presentation():
    # generators (u, v); relations u = u+v and v = u
    return MonoidPresentation(
        ("u", "v"),
        (((1, 0), (1, 1)), ((0, 1), (1, 0))),
    )


def test_presentation_from_two_cycle_loop(graph_two_cycle_loop):
    p = graph_monoid_presentation(graph_two_cycle_loop)
    assert p.generators == ("u", "v")
    assert set(p.relations) == {((1, 0), (1, 1)), ((0, 1), (1, 0))}


def test_presentation_weighted_sink_zero(two_cycle_loop_sink):
    p = graph_monoid_presentation(two_cycle_loop_sink, weighted=True, sink_zero=True)
    assert p.generators == ("u", "v")
    # 2u = u+v and 2v = u (the sink coordinate is erased)
    assert set(p.relations) == {((2, 0), (1, 1)), ((0, 2), (1, 0))}


def test_presentation_trivial_relation_dropped():
    # A lone loop gives v = v unweighted, which is dropped rather than stored.
    g = rose_graph(1)
    p = graph_monoid_presentation(g)
    assert p.relations == ()


def test_presentation_single_vertex():
    g = Graph.build(["a"])
    p = graph_monoid_presentation(g)
    assert p.generators == ("a",) and p.relations == ()


def test_sink_zero_requires_sandpile():
    with pytest.raises(ParseError):
        graph_monoid_presentation(rose_graph(2), sink_zero=True)


def test_words_equal_reflexive():
    p = two_cycle_presentation()
    res = words_equal(p, (2, 3), (2, 3))
    assert res.verdict == "yes" and res.path == ((2, 3),)


def test_words_equal_u_equals_v():
    p = two_cycle_presentation()
    res = words_equal(p, (1, 0), (0, 1))
    assert res.verdict == "yes"
    assert replay_path(p, res.path)
    assert res.path[0] == (1, 0) and res.path[-1] == (0, 1)


def test_replay_path_refuses_steps_that_apply_no_relation():
    # One relation, a + c = b + c: its difference moves one a to b.
    p = MonoidPresentation(("a", "b", "c"), (((1, 0, 1), (0, 1, 1)),))
    assert replay_path(p, [(1, 0, 1), (0, 1, 1), (1, 0, 1)])
    assert replay_path(p, [(2, 0, 0)])
    # A step by no relation's difference.
    assert not replay_path(p, [(1, 0, 1), (0, 0, 1)])
    # The relation's difference, but its replaced side a + c is not in a,
    # nor, backwards, is b + c in b.
    assert not replay_path(p, [(1, 0, 0), (0, 1, 0)])
    assert not replay_path(p, [(0, 1, 0), (1, 0, 0)])


def test_words_equal_zero_vs_u_is_no():
    # The class of 0 is just {0}: no relation side embeds in the zero vector.
    p = two_cycle_presentation()
    assert words_equal(p, (0, 0), (1, 0)).verdict == "no"


def test_words_equal_unknown_on_bound():
    p = MonoidPresentation(("a",), (((1,), (2,)),))
    # class of a is {a, 2a, 3a, ...}; 0 is alone, so that's still a no:
    assert words_equal(p, (0,), (1,)).verdict == "no"
    # Two separate infinite chains a = 2a and b = 2b: the normal forms a and
    # b differ, a certified no that no bounded search could give.
    p2 = MonoidPresentation(("a", "b"), (((1, 0), (2, 0)), ((0, 1), (0, 2))))
    res = words_equal(p2, (1, 0), (0, 1))
    assert res.verdict == "no" and res.stopped is None
    # Running out of node budget is the one source of unknown.  a = a+b and
    # b = a need a completion (a is in its own tail, and a < a+b in grevlex),
    # which does not fit in a budget of 1.  a - b is a relation difference,
    # so the coset certificate cannot answer; c is outside the lattice, so 0
    # against c is still a certified no.
    p3 = MonoidPresentation(("a", "b", "c"), (((1, 0, 0), (1, 1, 0)), ((0, 1, 0), (1, 0, 0))))
    res = words_equal(p3, (1, 0, 0), (0, 1, 0), node_budget=1)
    assert res.verdict == "unknown" and res.stopped.by == "node_budget" and res.path is None
    assert (res.stopped.bound, res.stopped.work) == (1, 2)
    res = words_equal(p3, (0, 0, 0), (0, 0, 1), node_budget=1)
    assert res.verdict == "no" and res.stopped is None
    assert words_equal(p3, (1, 0, 0), (0, 1, 0)).verdict == "yes"


def test_words_equal_budget_pays_for_the_path():
    # 2a = b is its own basis, and 10^12 a and 5*10^11 b have the same normal
    # form, but the path between them has 5*10^11 steps: unknown, at once.
    p = MonoidPresentation(("a", "b"), (((2, 0), (0, 1)),))
    start = time.perf_counter()
    res = words_equal(p, (10**12, 0), (0, 5 * 10**11))
    assert time.perf_counter() - start < 1
    assert res.verdict == "unknown" and res.stopped.by == "node_budget"
    # Rewriting 8a and 4b examines the one rule 3 times; with the 4 steps of
    # the path that is a budget of 7.
    res = words_equal(p, (8, 0), (0, 4), node_budget=7)
    assert res.verdict == "yes" and len(res.path) == 5 and replay_path(p, res.path)
    assert words_equal(p, (8, 0), (0, 4), node_budget=6).verdict == "unknown"


NODE_BUDGETS = (0, 1, 2, 5, 10, 100, 200_000)


@st.composite
def word_queries(draw):
    """A presentation with two of its elements, entries up to 3."""
    p = draw(st.one_of(presentations(), pure_power_presentations()))
    element = st.tuples(*[st.integers(0, 3)] * len(p.generators))
    return p, draw(element), draw(element)


@settings(max_examples=100, deadline=None)
@given(query=word_queries())
# The relations of the two-cycle need a completion, and their differences
# span all of Z^2, so no coset certificate answers before it finishes.
@example(query=(two_cycle_presentation(), (0, 0), (1, 0)))
@example(query=(two_cycle_presentation(), (1, 0), (0, 1)))
@example(query=(two_cycle_presentation(), (2, 1), (0, 3)))
@example(query=(two_cycle_presentation(), (3, 0), (0, 0)))
def test_words_equal_monotone_in_node_budget(query):
    p, x, y = query
    results = [words_equal(p, x, y, node_budget=b) for b in NODE_BUDGETS]
    for res in results:
        assert (res.verdict == "unknown") == (res.stopped is not None and res.stopped.by == "node_budget")
    # Once decided, a larger budget gives the same verdict.
    verdicts = [res.verdict for res in results]
    decided = [v for v in verdicts if v != "unknown"]
    assert verdicts[len(verdicts) - len(decided):] == decided
    assert len(set(decided)) <= 1
    if p == two_cycle_presentation():
        assert decided and verdicts[:4] == ["unknown"] * 4
    # Enumeration either runs out of its budget or finishes as with the
    # default one.
    expected = _table_or_stop(p, 500, 200_000)
    for b in NODE_BUDGETS:
        assert _table_or_stop(p, 500, b) in ("node_budget", expected)


def test_words_equal_translation_invariance():
    p = two_cycle_presentation()
    rng = random.Random(5)
    for _ in range(30):
        x = tuple(rng.randint(0, 2) for _ in range(2))
        y = tuple(rng.randint(0, 2) for _ in range(2))
        if words_equal(p, x, y).verdict != "yes":
            continue
        z = tuple(rng.randint(0, 2) for _ in range(2))
        xz = tuple(a + b for a, b in zip(x, z))
        yz = tuple(a + b for a, b in zip(y, z))
        assert words_equal(p, xz, yz).verdict == "yes"


def test_path_soundness_random():
    p = two_cycle_presentation()
    rng = random.Random(9)
    for _ in range(50):
        x = tuple(rng.randint(0, 3) for _ in range(2))
        y = tuple(rng.randint(0, 3) for _ in range(2))
        res = words_equal(p, x, y)
        if res.verdict == "yes":
            assert res.path[0] == x and res.path[-1] == y
            assert replay_path(p, res.path)


def test_enumerate_two_cycle_is_zero_x(graph_two_cycle_loop):
    p = graph_monoid_presentation(graph_two_cycle_loop)
    t = enumerate_monoid(p, max_elements=10)
    assert t is not None
    assert t.size == 2
    x = 1 - t.identity
    assert t.add[x][x] == x
    t.check_laws()


def test_enumerate_sandpile_f(two_cycle_loop_sink):
    p = graph_monoid_presentation(two_cycle_loop_sink, weighted=True, sink_zero=True)
    t = enumerate_monoid(p, max_elements=50)
    assert t is not None
    assert t.size == 4
    t.check_laws()
    # Single generator chain 0, x, 2x, 3x with 4x = 3x.
    x = t.generator_classes[1]  # class of v
    chain = [t.identity]
    for _ in range(4):
        chain.append(t.add[chain[-1]][x])
    assert len(set(chain[:4])) == 4
    assert chain[4] == chain[3]


def test_enumerate_three_vertex_collapse():
    # Triangle with loops where every vertex reaches the others: all nonzero
    # elements collapse to a single idempotent class.
    g = Graph.build(
        ["t", "l", "r"],
        [("t", "t"), ("t", "r"), ("l", "l"), ("l", "r"), ("l", "t"), ("r", "l"), ("r", "r")],
    )
    p = graph_monoid_presentation(g)
    t = enumerate_monoid(p, max_elements=10)
    assert t is not None and t.size == 2
    x = 1 - t.identity
    assert t.add[x][x] == x


def test_enumerate_free_presentation_unknown():
    p = MonoidPresentation(("a", "b"), ())
    assert enumerate_monoid(p, max_elements=10) is None


def test_enumerate_27_element_sandpile(four_vertex_sandpile):
    p = graph_monoid_presentation(four_vertex_sandpile, weighted=True, sink_zero=True)
    t = enumerate_monoid(p, max_elements=100)
    assert t is not None and t.size == 27
    t.check_laws()


def test_order_unit(two_cycle_loop_sink, four_vertex_sandpile):
    p = graph_monoid_presentation(two_cycle_loop_sink, weighted=True, sink_zero=True)
    assert order_unit(p) == (1, 1)
    assert order_unit(graph_monoid_presentation(four_vertex_sandpile)) == (1, 1, 1, 1)
    assert order_unit(MonoidPresentation(("a", "b"), ())) == (1, 1)


def test_serialize_parse_roundtrip(two_cycle_loop_sink):
    p = graph_monoid_presentation(two_cycle_loop_sink, weighted=True, sink_zero=True)
    text = serialize_presentation(p)
    assert parse_presentation(text) == p
    # Relation with an empty side survives the round trip.
    q = MonoidPresentation(("a",), (((2,), (0,)),))
    assert parse_presentation(serialize_presentation(q)) == q


def test_parse_element_syntax():
    p = MonoidPresentation(("a", "b"), ())
    assert parse_element(p, "2a+b") == (2, 1)
    assert parse_element(p, "0") == (0, 0)
    assert parse_element(p, "b") == (0, 1)
    with pytest.raises(ParseError):
        parse_element(p, "2c")


def test_unit_isomorphism_found(graph_two_cycle_loop):
    p1 = graph_monoid_presentation(graph_two_cycle_loop)
    t1 = enumerate_monoid(p1, 10)
    p2 = graph_monoid_presentation(rose_graph(2))
    t2 = enumerate_monoid(p2, 10)
    images = find_unit_isomorphism(p1, t1, t2)
    assert images is not None
    # Both generators of the first monoid land on the nonzero idempotent.
    nonzero = 1 - t2.identity
    assert images == (nonzero, nonzero)


def test_unit_isomorphism_rejects_size_mismatch(graph_two_cycle_loop, two_cycle_loop_sink):
    p1 = graph_monoid_presentation(graph_two_cycle_loop)
    t1 = enumerate_monoid(p1, 10)
    p2 = graph_monoid_presentation(two_cycle_loop_sink, weighted=True, sink_zero=True)
    t2 = enumerate_monoid(p2, 50)
    assert find_unit_isomorphism(p1, t1, t2) is None


def test_radius_two_window_decided_without_completion():
    # The window's relations already are a Gröbner basis, so the rules
    # builder runs no completion and spends no node budget; a query's budget
    # then pays only for its rewriting and its path.
    p = radius_two_window()
    budget = [0, 0]
    _rewriting_rules(p, budget)
    assert budget == [0, 0]
    rng = random.Random(11)
    seen = set()
    for _ in range(60):
        x = tuple(rng.randint(0, 1) for _ in p.generators)
        lhs, rhs = rng.choice(p.relations)
        for y in (tuple(a + l - r for a, l, r in zip(x, rhs, lhs)), tuple(rng.randint(0, 1) for _ in x)):
            if min(y) < 0:
                continue
            res = words_equal(p, x, y)
            assert res.verdict != "unknown"
            if res.verdict == "yes":
                assert res.path[0] == x and res.path[-1] == y and replay_path(p, res.path)
            seen.add(res.verdict)
    assert seen == {"yes", "no"}


def test_words_equal_does_not_keep_presentation_alive():
    p = MonoidPresentation(("a", "b"), (((2, 0), (0, 1)),))
    ref = weakref.ref(p)
    assert words_equal(p, (2, 0), (0, 1)).verdict == "yes"
    del p
    gc.collect()
    assert ref() is None


def test_enumerate_27_element_table_is_pinned(four_vertex_sandpile):
    # The README's `monoid enumerate e.pres` table, field for field.
    p = graph_monoid_presentation(four_vertex_sandpile, weighted=True, sink_zero=True)
    blob = json.dumps(enumerate_monoid(p).to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "f6246ce31c8488751bf8127a57a0303ef32b27bb819cd32ae2898eafd1de5cf5"
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_enumerate_matches_sandpile_monoid(seed):
    """On every sandpile graph the sink-eliminated weighted presentation
    enumerates to the stable-configuration monoid, and stabilization is the
    isomorphism."""
    g = random_sandpile_graph(random.Random(seed), 6, 4)
    p = graph_monoid_presentation(g, weighted=True, sink_zero=True)
    table = enumerate_monoid(p)
    assert table is not None
    assert table.size == math.prod(g.outdegree(v) for v in g.nonsink_vertices)
    oracle = sandpile_monoid(g)
    mapping = [
        oracle.elements.index(stabilize(g, ChipConfig(rep))[0].counts) for rep in table.elements
    ]
    assert sorted(mapping) == list(range(oracle.size))
    for i, row in enumerate(table.add):
        image_row = oracle.add[mapping[i]]
        assert [mapping[c] for c in row] == [image_row[m] for m in mapping]


def _sympy_element_count(p):
    """Number of standard monomials of the presentation's binomial ideal,
    from sympy's Gröbner basis; None when the quotient is infinite."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{len(p.generators)}")

    def monomial(v):
        return sympy.Mul(*[x**e for x, e in zip(xs, v)])

    basis = sympy.groebner([monomial(l) - monomial(r) for l, r in p.relations], *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    powers = [
        min((m[i] for m in leads if m[i] and sum(m) == m[i]), default=None) for i in range(len(xs))
    ]
    if None in powers:
        return None
    return sum(
        not any(all(a >= c for a, c in zip(v, m)) for m in leads)
        for v in itertools.product(*(range(e) for e in powers))
    )


@st.composite
def presentations(draw):
    k = draw(st.integers(1, 3))
    lhs = st.tuples(*[st.integers(0, 3)] * k)
    rhs = st.tuples(*[st.integers(0, 2)] * k)
    relations = draw(
        st.lists(st.tuples(lhs, rhs).filter(lambda r: r[0] != r[1]), min_size=1, max_size=3)
    )
    return MonoidPresentation(tuple("abc"[:k]), tuple(relations))


@settings(max_examples=100, deadline=None)
@given(p=presentations())
def test_enumerate_size_matches_sympy_groebner(p):
    table = enumerate_monoid(p, max_elements=500)
    expected = _sympy_element_count(p)
    if expected is not None and expected > 500:
        expected = None
    assert (table.size if table is not None else None) == expected
    if table is not None:
        table.check_laws()


@st.composite
def acyclic_presentations(draw):
    """Relations d*h = tail with distinct heads h and each tail supported
    below its head in a drawn order: oriented, they already are a Gröbner
    basis.  A tail that is not a single generator may stand on the left."""
    k = draw(st.integers(1, 3))
    order = draw(st.permutations(range(k)))
    relations = []
    for h in draw(st.lists(st.integers(0, k - 1), unique=True, min_size=1, max_size=k)):
        lead = tuple(draw(st.integers(1, 3)) if g == h else 0 for g in range(k))
        below = order[order.index(h) + 1:]
        tail = tuple(draw(st.integers(0, 2)) if g in below else 0 for g in range(k))
        swap = tail.count(0) != k - 1 and draw(st.booleans())
        relations.append((tail, lead) if swap else (lead, tail))
    return MonoidPresentation(tuple("abc"[:k]), tuple(relations))


def _sympy_congruent(p, x, y):
    """Whether the binomial of x and y lies in the ideal of the relations,
    by sympy's Gröbner basis."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{len(p.generators)}")

    def monomial(v):
        return sympy.Mul(*[s**e for s, e in zip(xs, v)])

    basis = sympy.groebner([monomial(l) - monomial(r) for l, r in p.relations], *xs, order="grevlex")
    return basis.contains(monomial(x) - monomial(y))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_words_equal_matches_sympy_groebner(data):
    acyclic = data.draw(st.booleans())
    p = data.draw(acyclic_presentations() if acyclic else presentations())
    k = len(p.generators)
    x = data.draw(st.tuples(*[st.integers(0, 3)] * k))
    if data.draw(st.booleans()):
        y = data.draw(st.tuples(*[st.integers(0, 3)] * k))
    else:  # a walk of relation steps from x
        y = x
        for _ in range(data.draw(st.integers(1, 4))):
            lhs, rhs = data.draw(st.sampled_from(p.relations))
            if data.draw(st.booleans()):
                lhs, rhs = rhs, lhs
            if all(a >= b for a, b in zip(y, lhs)):
                y = tuple(a - b + c for a, b, c in zip(y, lhs, rhs))
    res = words_equal(p, x, y)
    assert res.verdict == ("yes" if _sympy_congruent(p, x, y) else "no")
    if res.verdict == "yes":
        assert res.path[0] == x and res.path[-1] == y and replay_path(p, res.path)
    if acyclic:  # no completion runs, so the rules cost no budget
        budget = [0, 0]
        _rewriting_rules(p, budget)
        assert budget == [0, 0]


def _sympy_lattice_shape(rows):
    """Rank and index (product of the nonzero invariant factors) of the
    lattice spanned by ``rows``, from sympy's Smith normal form."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    d = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    diag = [d[i, i] for i in range(min(d.shape)) if d[i, i] != 0]
    return len(diag), abs(math.prod(diag))


@settings(max_examples=100, deadline=None)
@given(p=presentations(), data=st.data())
def test_coset_certificate_matches_sympy_smith(p, data):
    # x - y lies in the relation-difference lattice exactly when adjoining it
    # changes neither the rank nor the index of the lattice.
    k = len(p.generators)
    x = data.draw(st.tuples(*[st.integers(0, 5)] * k))
    y = data.draw(st.tuples(*[st.integers(0, 5)] * k))
    diffs = [tuple(a - b for a, b in zip(lhs, rhs)) for lhs, rhs in p.relations]
    d = tuple(a - b for a, b in zip(x, y))
    expected = _sympy_lattice_shape(diffs) == _sympy_lattice_shape(diffs + [d])
    assert congruent_difference_possible(p, x, y) == expected


def radius_two_window():
    # v1(t) = 2v2(t+1)+s(t+1), v2(t) = v2(t+1)+2v3(t+1), v3(t) = v3(t+1)+s(t+1)
    g = Graph.build(
        ["v1", "v2", "v3", "s"],
        [("v1", "v2", 2), ("v1", "s"), ("v2", "v2"), ("v2", "v3", 2), ("v3", "v3"), ("v3", "s")],
    )
    p = talented_window(g, 2).presentation
    assert len(p.generators) == 20 and len(p.relations) == 12
    return p


def test_enumerate_window_stops_within_budget():
    p = radius_two_window()
    t0 = time.perf_counter()
    table = enumerate_monoid(p)
    elapsed = time.perf_counter() - t0
    assert table is None
    assert elapsed < 3.0, f"window enumeration took {elapsed:.2f}s"


def test_enumerate_window_node_budget_one():
    assert enumerate_monoid(radius_two_window(), node_budget=1) is None


def test_enumerate_free_sink_generator_is_infinite(two_cycle_loop_sink):
    # Unweighted, the sink is a generator no relation touches: no element
    # cap is small enough to matter, the monoid is infinite.
    p = graph_monoid_presentation(two_cycle_loop_sink)
    t0 = time.perf_counter()
    table = enumerate_monoid(p, max_elements=10**9)
    elapsed = time.perf_counter() - t0
    assert table is None
    assert elapsed < 3.0, f"infinite enumeration took {elapsed:.2f}s"


# --- tables pinned before the threshold-fold builder ------------------------
# Every digest below was captured from the per-(class, generator) normal-form
# enumeration and the sandpile-only fold that the shared builder replaced.


def _digest(results) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def _table_or_stop(p, max_elements=10_000, node_budget=200_000):
    """``_enumerate_monoid``'s table, or what stopped it."""
    try:
        return _enumerate_monoid(p, max_elements, node_budget)
    except Stopped as stop:
        return stop.by


def _enumerated(p, max_elements=10_000, node_budget=200_000):
    """``_enumerate_monoid``'s table as JSON, or what stopped it."""
    result = _table_or_stop(p, max_elements, node_budget)
    return result if isinstance(result, str) else result.to_json_dict()


def _multigraphs(seed: int, count: int) -> list[Graph]:
    """Corpus graphs with every edge multiplicity scaled by 1-3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_sandpile_graph(rng, 5, 3)
        g = Graph.build(g.vertices, [(s, d, m * rng.randint(1, 3)) for s, d, m in g.edges])
        if math.prod(g.outdegree(v) for v in g.nonsink_vertices) <= 300:
            out.append(g)
    return out


def _random_presentation(rng: random.Random) -> MonoidPresentation:
    k = rng.randint(1, 3)
    relations = []
    while len(relations) < rng.randint(1, 3):
        lhs = tuple(rng.randint(0, 3) for _ in range(k))
        rhs = tuple(rng.randint(0, 2) for _ in range(k))
        if lhs != rhs:
            relations.append((lhs, rhs))
    return MonoidPresentation(tuple("abc"[:k]), tuple(relations))


def _lead_kind(p: MonoidPresentation) -> str:
    """"pure" when every rule's lead is a pure power, else "mixed"."""
    rules = _rewriting_rules(p, [0, 200_000])
    return "pure" if all(len(support) == 1 for _, _, support, _, _ in rules) else "mixed"


# 2a = b, a + b = 2c, 3c = a: a finite monoid whose basis has a mixed lead.
MIXED_LEAD = MonoidPresentation(
    ("a", "b", "c"), (((2, 0, 0), (0, 1, 0)), ((1, 1, 0), (0, 0, 2)), ((0, 0, 3), (1, 0, 0)))
)


def test_graph_tables_are_pinned():
    """Sandpile and enumerated tables of 70 corpus graphs, 53 of them with an
    edge multiplicity above 1: the weighted sink-eliminated presentation
    (pure-power leads) and the unweighted one (leads of one generator)."""
    graphs = list(sandpile_corpus(2024, 40, max_vertices=5, max_outdegree=4)) + _multigraphs(7, 30)
    assert sum(any(m > 1 for *_, m in g.edges) for g in graphs) == 53
    results = []
    for g in graphs:
        results.append(sandpile_monoid(g).to_json_dict())
        results.append(_enumerated(graph_monoid_presentation(g, weighted=True, sink_zero=True)))
        results.append(_enumerated(graph_monoid_presentation(g, sink_zero=True)))
    assert _digest(results) == "b2ca39e54b7ba7e6d08297c2f33daef5b2346b285d57d86191731e1548453d8a"


def test_window_verdicts_are_pinned():
    windows = [
        _enumerated(talented_window(g, r).presentation, node_budget=20_000)
        for g in sandpile_corpus(5, 6, max_vertices=4, max_outdegree=3)
        for r in range(3)
    ]
    assert windows == ["infinite"] * 18  # the last stage's generators are free
    assert _digest(windows) == "e2c47adfecf2721025d230c7931a64e5440fec02aef69a9e8368448e5be4c8de"


def test_random_presentation_tables_are_pinned():
    rng = random.Random(99)
    presentations = [_random_presentation(rng) for _ in range(300)]
    kinds = [_lead_kind(p) for p in presentations]
    results = [_enumerated(p, max_elements=500) for p in presentations]
    finite = [not isinstance(r, str) for r in results]
    assert kinds.count("pure") == 152 and kinds.count("mixed") == 148
    assert sum(f for f, k in zip(finite, kinds) if k == "pure") == 134
    assert sum(f for f, k in zip(finite, kinds) if k == "mixed") == 11
    assert _digest(results) == "3267d47ac44d1968b03fd6a85f39248bd63afa273942d7f2a0d599b27a2fbb55"


def test_enumeration_stops_are_pinned(four_vertex_sandpile):
    p27 = graph_monoid_presentation(four_vertex_sandpile, weighted=True, sink_zero=True)
    cases = [
        _enumerated(p27, max_elements=26),
        _enumerated(p27, max_elements=27),
        _enumerated(MIXED_LEAD, max_elements=2),
        _enumerated(MonoidPresentation(("a", "b"), ())),
        _enumerated(MonoidPresentation(("a", "b"), (((2, 0), (0, 1)),))),
        _enumerated(MIXED_LEAD, node_budget=1),
        _enumerated(MIXED_LEAD, node_budget=10),
        _enumerated(MonoidPresentation(("a", "b"), (((2, 0), (0, 1000)), ((0, 2), (0, 0))))),
        _enumerated(
            MonoidPresentation(
                ("a", "b", "c"),
                (((3, 0, 0), (0, 1, 1)), ((0, 3, 0), (1, 0, 1)), ((0, 0, 3), (1, 1, 0))),
            )
        ),
        _enumerated(MIXED_LEAD),
    ]
    sizes = [c if isinstance(c, str) else len(c["elements"]) for c in cases]
    assert sizes == [
        "max_elements", 27, "max_elements", "infinite", "infinite",
        "node_budget", "node_budget", 4, 27, 9,
    ]
    assert _lead_kind(MIXED_LEAD) == "mixed"
    assert _digest(cases) == "9b1aadd3573e887261dd10494c1bb66c543a2e4eddd520f0027ef26367ae1108"


# --- the box builder against the normal-form search it replaced ------------


def _reference_enumeration(p, max_elements, node_budget):
    """Breadth-first search from 0 that classifies every (class, generator)
    step by its Gröbner normal form: the enumeration before the box builder."""
    k = len(p.generators)
    try:
        rules = _rewriting_rules(p, [0, node_budget])
    except Stopped:
        return "node_budget"
    if len({support[0][0] for _, _, support, _, _ in rules if len(support) == 1}) < k:
        return "infinite"
    zero = (0,) * k
    anchors, labels, normal_forms, parents = [zero], [zero], [zero], [None]
    nf2class = {zero: 0}
    action = [[] for _ in range(k)]
    ci = 0
    while ci < len(anchors):
        base, base_nf = anchors[ci], normal_forms[ci]
        for gi in range(k):
            y = base[:gi] + (base[gi] + 1,) + base[gi + 1:]
            nf = _normal_form(base_nf[:gi] + (base_nf[gi] + 1,) + base_nf[gi + 1:], rules)
            cls = nf2class.get(nf)
            if cls is None:
                cls = len(anchors)
                if cls >= max_elements:
                    return "max_elements"
                anchors.append(y)
                labels.append(y)
                normal_forms.append(nf)
                parents.append((ci, gi))
                nf2class[nf] = cls
            elif y < labels[cls]:
                labels[cls] = y
            action[gi].append(cls)
        ci += 1
    return MonoidTable.from_generator_action(p.generators, labels, action, 0, parents)


@st.composite
def pure_power_presentations(draw):
    """One relation c_g g = tail per generator g.  Acyclic: each tail lies
    below its head in a drawn order, with coefficients up to 10^6.
    Otherwise the tail has any support and degree at most c_g, so grevlex
    orients most of them and the rest are completed."""
    k = draw(st.integers(1, 3))
    acyclic = draw(st.booleans())
    order = draw(st.permutations(range(k)))
    relations = []
    for h in range(k):
        c = draw(st.integers(1, 4))
        lead = tuple(c if g == h else 0 for g in range(k))
        tail = [0] * k
        if acyclic:
            coefficient = st.one_of(st.integers(0, 3), st.integers(0, 10**6))
            for g in order[order.index(h) + 1:]:
                tail[g] = draw(coefficient)
        else:
            for _ in range(draw(st.integers(0, c))):
                tail[draw(st.integers(0, k - 1))] += 1
        if tuple(tail) != lead:
            relations.append((lead, tuple(tail)))
    return MonoidPresentation(tuple("abc"[:k]), tuple(relations))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_enumerate_matches_reference_bfs(data):
    p = data.draw(st.one_of(pure_power_presentations(), presentations()))
    max_elements = data.draw(st.sampled_from([4, 30, 500]))
    expected = _reference_enumeration(p, max_elements, 200_000)
    assert _table_or_stop(p, max_elements, 200_000) == expected


@st.composite
def vector_pairs(draw):
    """Two nonnegative vectors of one length, often of equal degree."""
    n = draw(st.integers(0, 5))
    a = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    b = draw(st.one_of(st.permutations(a), st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return tuple(a), tuple(b)


@settings(max_examples=300)
@given(pair=vector_pairs())
@example(pair=((), ()))
@example(pair=((1, 2, 0), (1, 2, 0)))
@example(pair=((2, 0, 1), (0, 3, 0)))
@example(pair=((0, 3, 0), (2, 0, 1)))
@example(pair=((1, 0, 1), (0, 2, 0)))
def test_grevlex_above_agrees_with_the_key_order(pair):
    def key(v):  # degree, then the negated entries read from the last
        return sum(v), tuple(-x for x in reversed(v))

    a, b = pair
    assert _grevlex_above(a, b) == (key(a) > key(b))
    assert _grevlex_above(b, a) == (key(b) > key(a))


# --- the threshold-block builder against the fold builder it replaced -------


def _reference_box_action(radix, tails):
    """``_box_action`` as it was before threshold blocks: every threshold
    entry folds its rule's tail through the table being built."""
    k = len(radix)
    size = math.prod(radix)
    stride = [math.prod(radix[g + 1:]) for g in range(k)]
    action = []
    parents = [None] * size
    for g, (r, s) in enumerate(zip(radix, stride)):
        block = r * s
        col = list(range(s, size + s))
        for b in range(block - s, size, block):
            col[b:b + s] = itertools.repeat(None, s)
        action.append(col)
        for j in range(1, r):
            parents[j * s::block] = zip(range((j - 1) * s, size, block), itertools.repeat(g))
    for h, (r, s) in enumerate(zip(radix, stride)):
        for b in range((r - 1) * s, size, r * s):
            for x in range(b, b + s):
                if action[h][x] is not None:
                    continue
                stack = [(x, h, x - (r - 1) * s, 0, None, None)]
                while stack:
                    e, g, y, pos, left, seen = stack.pop()
                    tail = tails[g]
                    while pos < len(tail):
                        t, m = tail[pos]
                        if left is None:
                            left, seen = m, None
                        st_, rt = stride[t], radix[t]
                        while left > (room := rt - 1 - y // st_ % rt):
                            y += room * st_
                            left -= room
                            z = action[t][y]
                            if z is None:
                                break
                            if seen is None:
                                seen = {}
                            elif y in seen:
                                left %= seen[y] - left
                                if not left:
                                    continue
                            seen[y] = left
                            y, left = z, left - 1
                        else:
                            y += left * st_
                            pos, left = pos + 1, None
                            continue
                        stack.append((e, g, y, pos, left, seen))
                        stack.append((y, t, y - (rt - 1) * st_, 0, None, None))
                        break
                    else:
                        action[g][e] = y
    return action, parents


@st.composite
def acyclic_boxes(draw):
    """Radix and tails of a basis c_g g = tail_g whose tails lie below their
    heads in a drawn order: radix 1 allowed, k = 0 included, multiplicities
    up to 10^6."""
    k = draw(st.integers(0, 4))
    radix = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    order = draw(st.permutations(range(k)))
    coefficient = st.one_of(st.integers(0, 3), st.integers(0, 10**6))
    tails = []
    for h in range(k):
        tail = [(g, draw(coefficient)) for g in order[order.index(h) + 1:]]
        tails.append(sorted((g, m) for g, m in tail if m))
    return radix, tails


@st.composite
def firing_rules(draw):
    """Outdegrees and firing rows of a random sandpile digraph, its vertex
    order shuffled."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_sandpile_graph(rng, 6, 4)
    order = list(g.vertices)
    rng.shuffle(order)
    return _firing_rule(Graph.build(order, g.edges))


@st.composite
def presentation_boxes(draw):
    """Radix and tails of the box basis of a pure-power presentation, whose
    tails may reach 10^6 and may be completed into the basis."""
    p = draw(pure_power_presentations())
    rules = _rewriting_rules(p, [0, 200_000])
    k = len(p.generators)
    powers = {support[0][0]: (lead, tail) for lead, tail, support, _, _ in rules if len(support) == 1}
    assume(len(powers) == len(rules) == k)
    radix = [powers[g][0][g] for g in range(k)]
    return radix, [[(t, m) for t, m in enumerate(powers[g][1]) if m] for g in range(k)]


@settings(max_examples=300, deadline=None)
@given(box=st.one_of(firing_rules(), presentation_boxes(), acyclic_boxes()))
@example(box=([], []))
@example(box=([1, 3, 1], [[(1, 10**6), (2, 2)], [(2, 5)], []]))
def test_box_action_matches_the_fold_builder(box):
    radix, tails = box
    assert _box_action(radix, tails) == _reference_box_action(radix, tails)


def test_box_action_matches_the_fold_builder_on_8000_elements():
    # The acyclic basis 20a = (10^6 + 1) b + 999 999 c, 20b = 999 983 c,
    # 20c = 0, whose multiplicities are no multiples of the orbit periods.
    radix = [20, 20, 20]
    tails = [[(1, 10**6 + 1), (2, 999_999)], [(2, 999_983)], []]
    assert _box_action(radix, tails) == _reference_box_action(radix, tails)


# 2a = 10^18 b, 2b = 0 is the Klein four-group; a = 10^18 b, b = 0 is trivial.
LARGE_TAILS = [
    (
        MonoidPresentation(("a", "b"), (((2, 0), (0, 10**18)), ((0, 2), (0, 0)))),
        {
            "generators": ["a", "b"],
            "elements": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "addition": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
            "identity": 0,
            "generator_classes": [1, 2],
        },
    ),
    (
        MonoidPresentation(("a", "b"), (((1, 0), (0, 10**18)), ((0, 1), (0, 0)))),
        {
            "generators": ["a", "b"],
            "elements": [[0, 0]],
            "addition": [[0]],
            "identity": 0,
            "generator_classes": [0, 0],
        },
    ),
]


@pytest.mark.parametrize("p, expected", LARGE_TAILS, ids=["klein", "trivial"])
def test_large_tail_coefficients_answer_quickly(tmp_path, capsys, p, expected):
    # Adding the 10^18 copies of b one lookup at a time would never end.
    t0 = time.perf_counter()
    table = enumerate_monoid(p)
    elapsed = time.perf_counter() - t0
    assert table is not None and table.to_json_dict() == expected
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"

    path = tmp_path / "large.pres"
    path.write_text(serialize_presentation(p))
    t0 = time.perf_counter()
    code = run(["monoid", "enumerate", str(path)])
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["table"] == expected
    assert elapsed < 1.0, f"monoid enumerate took {elapsed:.2f}s"


def test_enumeration_builds_no_rewrite_paths(tmp_path, capsys):
    # Grevlex orients 2a = 1000001b as 1000001b -> 2a, so the completion
    # runs, and a rewrite path for its rule 2a -> b takes about 500 000
    # relation steps: more than the node budget, and never read by
    # enumeration.  The completion keeps each path as a recipe and walks
    # none of them; a walk of the rule's recipe runs out of the budget.
    found = MonoidPresentation(("a", "b"), (((2, 0), (0, 1000001)), ((0, 3), (0, 1))))
    small = MonoidPresentation(("a", "b"), (((2, 0), (0, 101)), ((0, 3), (0, 1))))
    rules = _rewriting_rules(found, [0, 200_000])
    assert [rule[:2] for rule in rules] == [((0, 3), (0, 1)), ((2, 0), (0, 1))]
    assert all(rule[4].path is None for rule in rules)
    with pytest.raises(Stopped):
        _walk((2, 0), [(rules[1][4], 1)], [0, 200_000])
    for lead, tail, _, _, recipe in _rewriting_rules(small, [0, 200_000]):
        path = _walk(lead, [(recipe, 1)], [0, 200_000])
        assert path[0] == lead and path[-1] == tail and replay_path(small, path)
    expected = enumerate_monoid(small).to_json_dict()
    assert len(expected["elements"]) == 6
    assert enumerate_monoid(found).to_json_dict() == expected

    path = tmp_path / "found.pres"
    path.write_text(serialize_presentation(found))
    code = run(["monoid", "enumerate", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["table"] == expected


def test_lone_sink_tables():
    # No non-sink vertex: both builders give the one-element monoid.
    g = Graph.build(["s"], [])
    expected = MonoidTable((), ((),), ((0,),), 0, ())
    assert sandpile_monoid(g) == expected
    assert enumerate_monoid(graph_monoid_presentation(g, weighted=True, sink_zero=True)) == expected
