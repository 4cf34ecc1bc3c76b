import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodyn.matrix import IntMatrix, charpoly, det
from monodyn.smith import (
    integer_kernel_basis,
    invariant_factors,
    is_unimodular,
    lattice_contains,
    smith_normal_form,
    solve_integer_column,
)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix(rows, cols, tuple(rng.randint(lo, hi) for _ in range(rows * cols)))


def diagonal_reference(m: IntMatrix) -> tuple[int, ...]:
    """Naive elementary row/column reduction, no transform tracking.

    Independent oracle: repeatedly move the smallest nonzero entry to the
    pivot and subtract multiples until the cross is clear, then normalize
    the collected diagonal into a divisibility chain by gcd/lcm folding.
    """
    a = m.to_rows()
    rows, cols = m.rows, m.cols
    diag = []
    top = 0
    while top < min(rows, cols):
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for r in a:
            r[top], r[bj] = r[bj], r[top]
        d = a[top][top]
        changed = False
        for i in range(top + 1, rows):
            q = a[i][top] // d
            if q:
                for j in range(cols):
                    a[i][j] -= q * a[top][j]
            if a[i][top] != 0:
                changed = True
        for j in range(top + 1, cols):
            q = a[top][j] // d
            if q:
                for i in range(rows):
                    a[i][j] -= q * a[i][top]
            if a[top][j] != 0:
                changed = True
        if changed:
            continue
        diag.append(abs(d))
        top += 1
    diag += [0] * (min(rows, cols) - len(diag))
    # Fold into a divisibility chain; products along the chain are preserved.
    done = False
    while not done:
        done = True
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                di, dj = diag[i], diag[j]
                g = math.gcd(di, dj)
                l = di * dj // g if g else 0
                if (g, l) != (di, dj):
                    diag[i], diag[j] = g, l
                    done = False
    return tuple(diag)


def check_snf(m: IntMatrix):
    u, d, v = smith_normal_form(m)
    assert (u @ m) @ v == d
    assert is_unimodular(u)
    assert is_unimodular(v)
    n = min(m.rows, m.cols)
    diag = [d.at(i, i) for i in range(n)]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.at(i, j) == 0
    for i in range(n - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    assert all(x >= 0 for x in diag)
    return diag


def test_known_forms():
    assert invariant_factors(IntMatrix.from_rows([[0, -3], [-2, 0]])) == (1, 6)
    assert invariant_factors(IntMatrix.from_rows([[0, -6], [-1, 0]])) == (1, 6)
    assert invariant_factors(IntMatrix.from_rows([[-1]])) == (1,)
    assert invariant_factors(IntMatrix.from_rows([[-2]])) == (2,)
    assert invariant_factors(IntMatrix.from_rows([[2, 4], [2, 4]])) == (2, 0)
    assert invariant_factors(IntMatrix.from_rows([[12, 6, 4], [3, 9, 6], [2, 16, 14]])) == (1, 10, 30)


def test_random_against_reference_oracle():
    rng = random.Random(42)
    for _ in range(100):
        m = rand_matrix(rng, 4, 4)
        diag = check_snf(m)
        assert tuple(diag) == diagonal_reference(m)


def test_rectangular_and_zero():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        check_snf(rand_matrix(rng, rows, cols, -5, 5))
    check_snf(IntMatrix.zeros(3, 2))


def test_determinant_preserved_up_to_sign():
    rng = random.Random(9)
    for _ in range(30):
        m = rand_matrix(rng, 3, 3)
        _, d, _ = smith_normal_form(m)
        prod = 1
        for i in range(3):
            prod *= d.at(i, i)
        assert prod == abs(det(m))


def test_kernel_basis():
    m = IntMatrix.from_rows([[1, 2], [2, 4]])
    basis = integer_kernel_basis(m)
    assert len(basis) == 1
    x = basis[0]
    assert m.at(0, 0) * x[0] + m.at(0, 1) * x[1] == 0
    # Kernel vector must be primitive: (2, -1) up to sign.
    assert abs(x[0]) == 2 and abs(x[1]) == 1

    full = integer_kernel_basis(IntMatrix.zeros(2, 3))
    assert len(full) == 3

    none = integer_kernel_basis(IntMatrix.identity(3))
    assert none == []


def test_solve_integer_column():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_integer_column(m, (4, 9)) == (2, 3)
    assert solve_integer_column(m, (1, 0)) is None
    rng = random.Random(3)
    for _ in range(30):
        a = rand_matrix(rng, 3, 3, -4, 4)
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        b = tuple(sum(a.at(i, j) * x[j] for j in range(3)) for i in range(3))
        got = solve_integer_column(a, b)
        assert got is not None
        back = tuple(sum(a.at(i, j) * got[j] for j in range(3)) for i in range(3))
        assert back == b


def rational_rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination on fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def int_matrices(max_rows=5, max_cols=5, lo=-6, hi=6):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(
            st.integers(lo, hi), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda e: IntMatrix(shape[0], shape[1], tuple(e)))
    )


@settings(max_examples=150, deadline=None)
@given(m=int_matrices(6, 6, -9, 9))
def test_invariant_factors_match_smith_diagonal(m):
    _, d, _ = smith_normal_form(m)
    assert invariant_factors(m) == tuple(d.at(i, i) for i in range(min(m.rows, m.cols)))


@settings(max_examples=150, deadline=None)
@given(m=int_matrices(), data=st.data())
def test_lattice_contains_matches_integer_solve(m, data):
    # v is a combination of the rows of M exactly when M^T x = v has an
    # integer solution.  Half the draws are combinations of the rows, nudged
    # off the lattice now and then.
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows))
        v = [sum(c * m.at(i, j) for i, c in enumerate(coeffs)) for j in range(m.cols)]
        v[0] += data.draw(st.sampled_from((0, 0, 1)))
    else:
        v = data.draw(st.lists(st.integers(-8, 8), min_size=m.cols, max_size=m.cols))
    solution = solve_integer_column(m.transpose(), tuple(v))
    assert lattice_contains(m.to_rows(), v) == (solution is not None)
    if solution is not None:
        assert m.transpose() @ IntMatrix(m.rows, 1, solution) == IntMatrix(m.cols, 1, tuple(v))


def test_lattice_contains_without_rows():
    assert lattice_contains([], [0, 0])
    assert not lattice_contains([], [0, 1])


@settings(max_examples=100, deadline=None)
@given(m=int_matrices(5, 6, -4, 4), low_rank=st.booleans())
def test_kernel_basis_spans_the_kernel(m, low_rank):
    if low_rank and m.rows > 1:
        # Repeat the first row so the rank drops below the row count.
        m = IntMatrix.from_rows(m.to_rows()[:-1] + [list(m.row(0))])
    basis = integer_kernel_basis(m)
    for x in basis:
        assert all(sum(m.at(i, j) * x[j] for j in range(m.cols)) == 0 for i in range(m.rows))
    assert len(basis) == m.cols - rational_rank(m.to_rows())
    if basis:
        assert rational_rank(basis) == len(basis)


def kernel_corpus() -> list[IntMatrix]:
    """Seeded square, rectangular, singular, zero and 10^30-entry matrices up
    to 32x32."""
    rng = random.Random(1979)

    def rand(rows, cols, bound):
        return IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))

    out = [rand(n, n, 9) for n in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32)]
    out += [rand(r, c, 9) for r, c in ((1, 7), (7, 1), (3, 8), (8, 3), (5, 11), (13, 6), (20, 32), (32, 20))]
    out += [rand(n, k, 5) @ rand(k, n, 5) for n, k in ((4, 2), (8, 5), (16, 9), (32, 20))]
    out += [IntMatrix.zeros(3, 5), IntMatrix.zeros(4, 4)]
    big = ((1, 1), (2, 2), (3, 5), (5, 3), (6, 6), (9, 9), (1, 9), (9, 1), (16, 16), (12, 32))
    out += [rand(r, c, 10**30) for r, c in big]
    out.append(rand(6, 3, 10**30) @ rand(3, 6, 10**30))
    return out


KERNEL_CORPUS = kernel_corpus()
_rng = random.Random(7)
COLUMNS = [tuple(_rng.randint(-5, 5) for _ in range(m.cols)) for m in KERNEL_CORPUS]
ROWS = [tuple(_rng.randint(-5, 5) for _ in range(m.rows)) for m in KERNEL_CORPUS]


def _row_combinations(i, m):
    """A combination of the rows of m, and the same nudged in its first entry."""
    v = (IntMatrix(1, m.rows, ROWS[i]) @ m).entries
    return v, (v[0] + 1,) + v[1:]


KERNEL_OUTPUTS = {
    "smith_normal_form": lambda i, m: [list(x.entries) for x in smith_normal_form(m)],
    "invariant_factors": lambda i, m: invariant_factors(m),
    "integer_kernel_basis": lambda i, m: integer_kernel_basis(m),
    # One solvable right-hand side and one drawn at random.
    "solve_integer_column": lambda i, m: [
        solve_integer_column(m, (m @ IntMatrix(m.cols, 1, COLUMNS[i])).entries),
        solve_integer_column(m, ROWS[i]),
    ],
    "lattice_contains": lambda i, m: [lattice_contains(m.to_rows(), v) for v in _row_combinations(i, m)],
    "charpoly": lambda i, m: charpoly(m) if m.is_square else None,
    "matmul": lambda i, m: [(m @ m.transpose()).entries, (m.transpose() @ m).entries],
}

# Digests of the outputs above over KERNEL_CORPUS, as the elimination that
# rebuilt both full rows on every operation and the per-entry product gave.
KERNEL_DIGESTS = {
    "smith_normal_form": "e5250ea5b49428b4dee776d25c7e66369c127f1ad32e1fe1cbabfac76f25869a",
    "invariant_factors": "653bece41b3b59deb832ba7415ba73ff2bb5c061117dbbfea06857942d9a9057",
    "integer_kernel_basis": "ac29971d09a0c2824536c46c42e843b8f4b54f72f1e495c682f4519ef77cbd6c",
    "solve_integer_column": "4c595b5725a7aea6be85c8aae961065721c96151bc7f5ec44660557d5492958f",
    "lattice_contains": "3e4389c90f1eafae7cfbd8ff33ef95b53dcc617e1b4840f9ee1245cf4362b9d9",
    "charpoly": "f06ce35f18f89e8e712fe6e71c0b5be46a20cb34741e5c3bdfb2fa6bcb6612fa",
    "matmul": "2b7faa79eaa5464689921a252d1ff36adabaa8c0465154a1839347d2b86e9bc8",
}


@pytest.mark.parametrize("name", KERNEL_DIGESTS)
def test_integer_kernels_are_pinned(name):
    # Bit-identical U, D, V, kernels, solutions, memberships, characteristic
    # polynomials and products, not just equally valid ones: se_search builds
    # its candidates from the kernel bases.
    payload = json.dumps([KERNEL_OUTPUTS[name](i, m) for i, m in enumerate(KERNEL_CORPUS)])
    assert hashlib.sha256(payload.encode()).hexdigest() == KERNEL_DIGESTS[name]
