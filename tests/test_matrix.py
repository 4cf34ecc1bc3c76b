import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monodyn.errors import ParseError, ShapeError
from monodyn.matrix import (
    IntMatrix,
    charpoly,
    det,
    kron,
    mat_vec_mul,
    parse_matrix,
    serialize_matrix,
    vec_mat_mul,
)


def rand_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix(n, n, tuple(rng.randint(lo, hi) for _ in range(n * n)))


def test_basic_ops():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.add(b).to_rows() == [[1, 3], [4, 4]]
    assert a.sub(b).to_rows() == [[1, 1], [2, 4]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert a.trace() == 5
    assert a.max_entry() == 4
    assert IntMatrix.identity(3).to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_pow():
    fib = IntMatrix.from_rows([[1, 1], [1, 0]])
    assert fib.pow(0) == IntMatrix.identity(2)
    assert fib.pow(1) == fib
    # F(10) = 55, F(11) = 89
    assert fib.pow(10).at(0, 0) == 89
    assert fib.pow(10).at(0, 1) == 55


def test_shape_errors():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(ShapeError):
        a @ IntMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(ShapeError):
        a.add(b)
    with pytest.raises(ShapeError):
        b.trace()
    with pytest.raises(ShapeError):
        IntMatrix(2, 2, (1, 2, 3))


def test_vector_products():
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    assert vec_mat_mul((1, 0), a) == (1, 1)
    assert vec_mat_mul((2, 3), a) == (5, 2)
    assert mat_vec_mul(a, (1, 0)) == (1, 1)


def test_det_small_known():
    assert det(IntMatrix.from_rows([[2]])) == 2
    assert det(IntMatrix.from_rows([[1, 3], [2, 1]])) == -5
    assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0


def test_det_matches_cofactor_expansion():
    def cofactor_det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        assert det(m) == cofactor_det(m.to_rows())


def test_charpoly_known():
    assert charpoly(IntMatrix.from_rows([[1, 3], [2, 1]])) == (1, -2, -5)  # t^2 - 2t - 5
    assert charpoly(IntMatrix.from_rows([[1, 6], [1, 1]])) == (1, -2, -5)
    ones = IntMatrix.from_rows([[1, 1], [1, 1]])
    assert charpoly(ones) == (1, -2, 0)  # t^2 - 2t
    assert charpoly(IntMatrix.from_rows([[2]])) == (1, -2)


def test_charpoly_agrees_with_det_evaluation():
    # p(x) must equal det(xI - M) pointwise; the determinant route is independent.
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        coeffs = charpoly(m)
        for x in (-3, -1, 0, 1, 2, 5):
            direct = det(IntMatrix.identity(n).scale(x).sub(m))
            horner = 0
            for c in coeffs:
                horner = horner * x + c
            assert horner == direct


def test_kron():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    i2 = IntMatrix.identity(2)
    k = kron(a, i2)
    assert k.rows == 4 and k.cols == 4
    assert k.at(0, 0) == 1 and k.at(0, 2) == 2 and k.at(2, 0) == 3
    assert k.at(1, 1) == 1 and k.at(1, 3) == 2


def test_parse_serialize_roundtrip():
    text = "2 3\n1 2 3\n4 5 6\n"
    m = parse_matrix(text)
    assert m.rows == 2 and m.cols == 3
    assert serialize_matrix(m) == text
    assert parse_matrix(serialize_matrix(m)) == m


def test_parse_comments_and_errors():
    m = parse_matrix("# header\n1 1\n7\n")
    assert m.to_rows() == [[7]]
    with pytest.raises(ParseError):
        parse_matrix("2 2\n1 2 3\n")
    with pytest.raises(ParseError):
        parse_matrix("1 1\nx\n")
    with pytest.raises(ParseError):
        parse_matrix("")


# --- the slice-based products, transposes and traces against per-entry sums ---

ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))
SIDES = st.integers(1, 7)


def matrices(rows, cols):
    return st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: IntMatrix(rows, cols, tuple(e))
    )


@st.composite
def matrix_pair(draw):
    """An l x m and an m x n matrix; a third of the draws make l or n one."""
    l, m, n = draw(SIDES), draw(SIDES), draw(SIDES)
    thin = draw(st.sampled_from((None, "row", "column")))
    if thin == "row":
        l = 1
    elif thin == "column":
        n = 1
    return draw(matrices(l, m)), draw(matrices(m, n))


def naive_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return IntMatrix(
        a.rows,
        b.cols,
        tuple(sum(a.at(i, k) * b.at(k, j) for k in range(a.cols)) for i in range(a.rows) for j in range(b.cols)),
    )


@settings(max_examples=200, deadline=None)
@given(matrix_pair())
@example((IntMatrix(1, 3, (1, 2, 3)), IntMatrix(3, 1, (4, 5, 6))))
@example((IntMatrix(3, 1, (1, 2, 3)), IntMatrix(1, 3, (4, 5, 6))))
def test_matmul_matches_per_entry_sums(pair):
    a, b = pair
    assert a @ b == naive_matmul(a, b)


@settings(max_examples=200, deadline=None)
@given(st.tuples(SIDES, SIDES).flatmap(lambda shape: matrices(*shape)))
@example(IntMatrix(1, 4, (1, 2, 3, 4)))
@example(IntMatrix(4, 1, (1, 2, 3, 4)))
def test_transpose_and_trace_match_per_entry_reads(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert t.entries == tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows))
    if m.is_square:
        assert m.trace() == sum(m.at(i, i) for i in range(m.rows))


@pytest.mark.parametrize("n", range(1, 9))
def test_identity_matches_kronecker_delta(n):
    assert IntMatrix.identity(n).entries == tuple(int(i == j) for i in range(n) for j in range(n))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: matrices(n, n)))
def test_charpoly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    expected = sympy.Matrix(m.to_rows()).charpoly().all_coeffs()
    assert charpoly(m) == tuple(int(c) for c in expected)


def faddeev_leverrier(m: IntMatrix) -> tuple[int, ...]:
    """det(tI - M) by the Faddeev-LeVerrier recurrence: M_1 = M, c_1 = -tr M,
    M_k = M (M_(k-1) + c_(k-1) I) and c_k = -tr(M_k) / k, each division exact."""
    n = m.rows
    coeffs = [1, -m.trace()]
    mk = m
    for k in range(2, n + 1):
        mk = m @ mk.add(IntMatrix.identity(n).scale(coeffs[-1]))
        tr = mk.trace()
        assert tr % k == 0
        coeffs.append(-tr // k)
    return tuple(coeffs)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.lists(st.integers(-(10**6), 10**6), min_size=n * n, max_size=n * n).map(
            lambda e: IntMatrix(n, n, tuple(e))
        )
    )
)
@example(IntMatrix(1, 1, (-(10**6),)))
@example(IntMatrix(10, 10, (0,) * 100))
@example(IntMatrix(10, 10, tuple(int(j == i + 1) for i in range(10) for j in range(10))))
def test_charpoly_matches_faddeev_leverrier(m):
    assert charpoly(m) == faddeev_leverrier(m)
