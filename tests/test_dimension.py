import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodyn.dimension import (
    MAX_WINDOW_RADIUS,
    DimElement,
    delta_shift,
    dim_add,
    dim_equal,
    dim_positive,
    fib_cone_member,
    format_dim_element,
    normalize,
    parse_dim_element,
    talented_window,
)
from monodyn.errors import MonodynError, ParseError, ShapeError
from monodyn.graph import Graph
from monodyn.matrix import MAX_POWER_BITS, IntMatrix, det, vec_mat_mul
from monodyn.monoid import words_equal

from conftest import rose_graph

FIB = IntMatrix.from_rows([[1, 1], [1, 0]])


def test_dim_equal_defining_identification():
    assert dim_equal(DimElement(FIB, (1, 0), 0), DimElement(FIB, (1, 1), 1)) == "yes"


def test_dim_equal_distinct_at_stage():
    # det = -1, so comparison at the common stage is exact.
    assert dim_equal(DimElement(FIB, (1, 0), 0), DimElement(FIB, (0, 1), 0)) == "no"


def test_dim_equal_zero_across_stages():
    assert dim_equal(DimElement(FIB, (0, 0), 3), DimElement(FIB, (0, 0), 7)) == "yes"


def test_dim_equal_singular_matrix():
    sing = IntMatrix.from_rows([[1, 1], [1, 1]])
    # (1, -1) dies after one push, so it equals zero in the limit.
    assert dim_equal(DimElement(sing, (1, -1), 0), DimElement(sing, (0, 0), 0)) == "yes"
    # (1, 0) . A^k = (1, 1) 2^(k-1) never vanishes: a definite no.
    assert dim_equal(DimElement(sing, (1, 0), 0), DimElement(sing, (0, 0), 0)) == "no"


def singular_3x3():
    # A row that is a sum of multiples of the others makes det = 0, and the
    # repeated factor of A then shows in a nontrivial eventual kernel.
    def build(rows, k, coeffs, order):
        rows = [list(r) for r in rows]
        rows.insert(k, [coeffs[0] * a + coeffs[1] * b for a, b in zip(*rows)])
        return IntMatrix.from_rows([rows[i] for i in order])

    return st.builds(
        build,
        st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=2, max_size=2),
        st.integers(0, 2),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.permutations(range(3)),
    )


@settings(max_examples=200, deadline=None)
@given(a=singular_3x3(), data=st.data())
def test_dim_equal_matches_pushing_2n_times(a, data):
    assert det(a) == 0
    vec = st.tuples(*[st.integers(-4, 4)] * 3)
    x = DimElement(a, data.draw(vec), data.draw(st.integers(0, 2)))
    if data.draw(st.booleans()):
        # Same vector plus a vector that A may kill after a few pushes.
        y = DimElement(a, tuple(p + q for p, q in zip(x.vec, data.draw(vec))), x.stage)
    else:
        y = DimElement(a, data.draw(vec), data.draw(st.integers(0, 2)))
    stage = max(x.stage, y.stage) + 2 * a.rows
    pushed = []
    for e in (x, y):
        v = e.vec
        for _ in range(stage - e.stage):
            v = vec_mat_mul(v, a)
        pushed.append(v)
    assert dim_equal(x, y) == ("yes" if pushed[0] == pushed[1] else "no")


def test_dim_equal_errors():
    other = IntMatrix.from_rows([[2]])
    with pytest.raises(ShapeError):
        dim_equal(DimElement(FIB, (1, 0), 0), DimElement(other, (1,), 0))
    with pytest.raises(ShapeError):
        DimElement(FIB, (1,), 0)


def test_stage_gap_power_bit_limit():
    # The push across a gap multiplies by [2]^gap, whose entry has gap + 1 bits.
    two = IntMatrix.from_rows([[2]])
    far = DimElement(two, (1,), -5)
    gap = MAX_POWER_BITS - 1
    assert dim_equal(far, DimElement(two, (2**gap,), gap - 5)) == "yes"
    for stage in (gap - 4, 10**20):
        with pytest.raises(MonodynError, match=f"MAX_POWER_BITS = {MAX_POWER_BITS}"):
            dim_equal(far, DimElement(two, (1,), stage))
        with pytest.raises(MonodynError, match="MAX_POWER_BITS"):
            dim_add(DimElement(two, (1,), stage), far)
    # A matrix whose powers stay small pushes across any gap.
    one = IntMatrix.from_rows([[1]])
    assert dim_equal(DimElement(one, (3,), 0), DimElement(one, (3,), 10**20)) == "yes"
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert dim_add(DimElement(swap, (1, 2), 0), DimElement(swap, (0, 5), 10**20 + 1)).vec == (2, 6)


def test_dim_positive_explicit_powers():
    assert dim_positive(DimElement(FIB, (-1, 2), 0)) == "positive"
    assert dim_positive(DimElement(FIB, (-2, 3), 0)) == "not_positive"
    assert dim_positive(DimElement(FIB, (0, 0), 0)) == "positive"


def test_dim_positive_zero_column_inconclusive():
    a = IntMatrix.from_rows([[1, 0], [1, 0]])
    assert dim_positive(DimElement(a, (-1, -1), 0), max_power=4) == "inconclusive"


def test_delta_shift_matches_action():
    x = DimElement(FIB, (1, 0), 0)
    fwd = delta_shift(x, "forward")
    assert fwd.vec == (1, 1) and fwd.stage == 0
    back_fwd = delta_shift(delta_shift(x, "backward"), "forward")
    assert dim_equal(back_fwd, x) == "yes"
    zero = DimElement(FIB, (0, 0), 0)
    assert delta_shift(zero, "forward").vec == (0, 0)
    with pytest.raises(ParseError):
        delta_shift(x, "sideways")


def test_delta_shift_preserves_positivity():
    rng = random.Random(6)
    for _ in range(80):
        x = DimElement(FIB, (rng.randint(-6, 6), rng.randint(-6, 6)), 0)
        before = dim_positive(x)
        after = dim_positive(delta_shift(x, "forward"))
        if "inconclusive" not in (before, after):
            assert before == after


def test_normalize_roundtrip():
    rng = random.Random(8)
    for _ in range(60):
        x = DimElement(FIB, (rng.randint(-5, 5), rng.randint(-5, 5)), rng.randint(-3, 5))
        nx = normalize(x)
        assert nx.stage >= 0
        assert dim_equal(x, nx) == "yes"


def test_normalize_pulls_back():
    # (2, 1) = (1, 1) . A, so stage 1 pulls back to stage 0.
    x = DimElement(FIB, (2, 1), 1)
    assert normalize(x) == DimElement(FIB, (1, 1), 0)


def test_additivity_of_positivity():
    rng = random.Random(10)
    hits = 0
    while hits < 40:
        x = DimElement(FIB, (rng.randint(-5, 5), rng.randint(-5, 5)), rng.randint(0, 2))
        y = DimElement(FIB, (rng.randint(-5, 5), rng.randint(-5, 5)), rng.randint(0, 2))
        if dim_positive(x) == "positive" and dim_positive(y) == "positive":
            assert dim_positive(dim_add(x, y)) == "positive"
            hits += 1


def test_fib_cone_examples():
    assert fib_cone_member(1, 0)
    assert not fib_cone_member(-2, 3)
    assert fib_cone_member(0, 0)
    assert fib_cone_member(-1, 2)  # phi < 2
    assert not fib_cone_member(-2, 3)
    assert fib_cone_member(3, -4)  # 3*phi > 4
    assert not fib_cone_member(1, -2)  # phi < 2


def test_fib_cone_against_float():
    phi = (1 + 5 ** 0.5) / 2
    for m in range(-50, 51):
        for n in range(-50, 51):
            exact = fib_cone_member(m, n)
            approx = phi * m + n
            if abs(approx) > 1e-6:
                assert exact == (approx > 0), (m, n)


def test_fib_cone_agrees_with_positivity_oracle():
    for m in range(-20, 21):
        for n in range(-20, 21):
            verdict = dim_positive(DimElement(FIB, (m, n), 0), max_power=64)
            assert verdict != "inconclusive"
            assert (verdict == "positive") == fib_cone_member(m, n)


def test_talented_window_rose():
    w = talented_window(rose_graph(2), 1)
    assert w.presentation.generators == ("v(-1)", "v(0)", "v(1)")
    assert set(w.presentation.relations) == {
        ((1, 0, 0), (0, 2, 0)),  # v(-1) = 2 v(0)
        ((0, 1, 0), (0, 0, 2)),  # v(0) = 2 v(1)
    }


def test_talented_window_sink_and_radius_zero(graph_two_cycle_loop):
    sink_only = Graph.build(["s"])
    assert talented_window(sink_only, 3).presentation.relations == ()
    w = talented_window(graph_two_cycle_loop, 0)
    assert w.presentation.generators == ("u(0)", "v(0)")
    assert w.presentation.relations == ()


def test_window_radius_limit():
    w = talented_window(rose_graph(1), MAX_WINDOW_RADIUS)
    assert w.stage_count() == 2 * MAX_WINDOW_RADIUS + 1
    with pytest.raises(MonodynError, match=f"MAX_WINDOW_RADIUS = {MAX_WINDOW_RADIUS}"):
        talented_window(rose_graph(1), MAX_WINDOW_RADIUS + 1)


def test_window_relations_certify_doubling():
    w = talented_window(rose_graph(2), 1)
    p = w.presentation
    v0 = (0, 1, 0)
    two_v1 = (0, 0, 2)
    vm1 = (1, 0, 0)
    four_v1 = (0, 0, 4)
    assert words_equal(p, v0, two_v1).verdict == "yes"
    assert words_equal(p, vm1, four_v1).verdict == "yes"


def test_window_shift():
    w = talented_window(rose_graph(2), 1)
    assert w.shift((1, 0, 0), 1) == (0, 1, 0)
    assert w.shift((0, 1, 0), -1) == (1, 0, 0)
    with pytest.raises(ShapeError):
        w.shift((0, 0, 1), 1)


def test_dim_element_text_roundtrip():
    x = DimElement(FIB, (3, -4), 2)
    text = format_dim_element(x)
    assert text == "[3 -4]@2"
    assert parse_dim_element(FIB, text) == x
    with pytest.raises(ParseError):
        parse_dim_element(FIB, "3 -4@2")
