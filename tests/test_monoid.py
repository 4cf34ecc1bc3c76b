import gc
import hashlib
import itertools
import json
import math
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodyn.corpus import random_sandpile_graph
from monodyn.dimension import talented_window
from monodyn.errors import ParseError
from monodyn.graph import Graph
from monodyn.monoid import (
    MonoidPresentation,
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
    _rewriting_rules,
)
from monodyn.sandpile import ChipConfig, sandpile_monoid, stabilize

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
    assert res.verdict == "no" and res.stopped_by is None
    # Running out of node budget is the one source of unknown.  a = a+b and
    # b = a need a completion (a is in its own tail, and a < a+b in grevlex),
    # which does not fit in a budget of 1.  a - b is a relation difference,
    # so the coset certificate cannot answer; c is outside the lattice, so 0
    # against c is still a certified no.
    p3 = MonoidPresentation(("a", "b", "c"), (((1, 0, 0), (1, 1, 0)), ((0, 1, 0), (1, 0, 0))))
    res = words_equal(p3, (1, 0, 0), (0, 1, 0), node_budget=1)
    assert res.verdict == "unknown" and res.stopped_by == "node_budget" and res.path is None
    res = words_equal(p3, (0, 0, 0), (0, 0, 1), node_budget=1)
    assert res.verdict == "no" and res.stopped_by is None
    assert words_equal(p3, (1, 0, 0), (0, 1, 0)).verdict == "yes"


def test_words_equal_budget_pays_for_the_path():
    # 2a = b is its own basis, and 10^12 a and 5*10^11 b have the same normal
    # form, but the path between them has 5*10^11 steps: unknown, at once.
    p = MonoidPresentation(("a", "b"), (((2, 0), (0, 1)),))
    start = time.perf_counter()
    res = words_equal(p, (10**12, 0), (0, 5 * 10**11))
    assert time.perf_counter() - start < 1
    assert res.verdict == "unknown" and res.stopped_by == "node_budget"
    # Rewriting 8a and 4b examines the one rule 3 times; with the 4 steps of
    # the path that is a budget of 7.
    res = words_equal(p, (8, 0), (0, 4), node_budget=7)
    assert res.verdict == "yes" and len(res.path) == 5 and replay_path(p, res.path)
    assert words_equal(p, (8, 0), (0, 4), node_budget=6).verdict == "unknown"


def test_words_equal_monotone_in_node_budget():
    # The relations of the two-cycle need a completion, and their differences
    # span all of Z^2, so no coset certificate answers before it finishes.
    p = two_cycle_presentation()
    rng = random.Random(3)
    for _ in range(40):
        x = tuple(rng.randint(0, 3) for _ in range(2))
        y = tuple(rng.randint(0, 3) for _ in range(2))
        verdicts = [words_equal(p, x, y, node_budget=b).verdict for b in (0, 2, 5, 10, 100, 200_000)]
        decided = [v for v in verdicts if v != "unknown"]
        # Once decided, a larger budget gives the same verdict; the default
        # budget always decides.
        assert verdicts[-1] != "unknown"
        assert decided == [verdicts[-1]] * len(decided)
        assert verdicts[len(verdicts) - len(decided):] == decided


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
    budget = [0]
    assert _rewriting_rules(p, budget) is not None and budget == [0]
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
        budget = [0]
        assert _rewriting_rules(p, budget) is not None and budget == [0]


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
