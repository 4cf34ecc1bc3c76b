"""Integer row reduction: Smith normal forms, invariant factors, integer
kernels, integer solves and lattice membership.

All of them run through one elimination, ``_echelon``, which brings a list of
rows to echelon form in place by Euclid steps and can repeat every row
operation on a transform.  Each row carries its transform row through the
elimination, so one operation updates both.  An operation writes only where
the pivot row is nonzero, from the column it clears on: the rows it touches
are zero to the left of that column, and a - q * 0 == a, so the rows are the
same as when the whole tail is rebuilt.  Zeros are common there: about
three quarters of the pivot row in the column passes, which eliminate the
transpose of an echelon form, and much of the transform part while it is
near the identity.

``smith_normal_form(M)`` returns ``(U, D, V)`` with ``U @ M @ V == D``,
``|det U| == |det V| == 1``, ``D`` diagonal with nonnegative entries, and each
diagonal entry dividing the next.  It alternates ``_echelon`` on the rows
(tracking U) and on the columns, as the rows of the transpose (tracking the
transpose of V), until the matrix is diagonal, as Kannan and Bachem (1979)
alternate row and column forms.  Working a whole column per step keeps the
transform entries far smaller than a global smallest-pivot search.
``invariant_factors`` runs the same loop without transforms.

``solve_integer_column`` and ``lattice_contains`` echelon a generating set
once and reduce the target vector against its pivots.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ShapeError
from .matrix import IntMatrix, det


def _echelon(rows: list[list[int]], t: list[list[int]] | None = None) -> int:
    """Bring ``rows`` to echelon form in place and return the rank.

    Column by column, the row at or below the rank with the smallest nonzero
    entry in the column becomes the pivot and reduces the rows under it by
    floor division.  The remainders are smaller than the pivot, so repeating
    clears the column (Euclid's algorithm).  When ``t`` is given, every row
    operation is repeated on it: each row carries its transform row while the
    elimination runs, and ``t`` gets the results back at the end.

    Rows are updated in place: the lists in ``rows`` are the ones written to,
    so callers pass lists nothing else holds.  Rows at or below the rank are
    zero left of the column being cleared, and each pivot lists once the
    places from that column on where its row, transform part included, is
    nonzero; an operation subtracts at those places only.  Subtracting a
    multiple of zero leaves an entry as it is, and the pivots, quotients and
    order of operations are those of rebuilding the whole tail, and so are
    the rows, the transform and the rank.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
    if t is not None:
        for r, tr in zip(rows, t):
            r += tr
    rank = 0
    for col in range(width):
        while True:
            piv, best = None, 0
            for i in range(rank, n):
                x = rows[i][col]
                if x and (piv is None or abs(x) < best):
                    piv, best = i, abs(x)
            if piv is None:
                break
            if piv != rank:
                rows[rank], rows[piv] = rows[piv], rows[rank]
            top = rows[rank]
            p = top[col]
            nonzero = [(j, b) for j, b in enumerate(top[col:], col) if b]
            clear = True
            for i in range(rank + 1, n):
                r = rows[i]
                x = r[col]
                if x:
                    q = x // p
                    for j, b in nonzero:
                        r[j] -= q * b
                    clear = clear and not r[col]
            if clear:
                rank += 1
                break
        if rank == n:
            break
    if t is not None:
        for i, r in enumerate(rows):
            t[i] = r[width:]
            del r[width:]
    return rank


def _transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(c) for c in zip(*rows)]


def _diagonalize(
    a: list[list[int]], u: list[list[int]] | None = None, vt: list[list[int]] | None = None
) -> list[list[int]]:
    """Smith form of the rows ``a``; row operations go to ``u``, column
    operations to the rows of ``vt``."""
    while True:
        _echelon(a, u)
        at = _transpose(a)
        _echelon(at, vt)
        a = _transpose(at)
        if any(x for i, r in enumerate(a) for j, x in enumerate(r) if i != j):
            continue
        diag = [a[i][i] for i in range(min(len(a), len(at)))]
        # Pivots fill the leading diagonal, so zeros trail and a nonzero
        # entry that does not divide a later one is the only defect left.
        bad = next(
            ((i, j) for i in range(len(diag)) for j in range(i + 1, len(diag))
             if diag[i] and diag[j] % diag[i]),
            None,
        )
        if bad is None:
            break
        i, j = bad
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        if u is not None:
            u[i] = [x + y for x, y in zip(u[i], u[j])]
    for i in range(len(diag)):
        if diag[i] < 0:
            a[i] = [-x for x in a[i]]
            if u is not None:
                u[i] = [-x for x in u[i]]
    return a


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    u = IntMatrix.identity(m.rows).to_rows()
    vt = IntMatrix.identity(m.cols).to_rows()
    d = _diagonalize(m.to_rows(), u, vt)
    return IntMatrix.from_rows(u), IntMatrix.from_rows(d), IntMatrix.from_rows(_transpose(vt))


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form (length ``min(rows, cols)``)."""
    d = _diagonalize(m.to_rows())
    return tuple(d[i][i] for i in range(min(m.rows, m.cols)))


def is_unimodular(m: IntMatrix) -> bool:
    return m.is_square and abs(det(m)) == 1


def integer_kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the lattice of integer column vectors x with M x = 0: the
    columns j of V in U M V = D with D_jj = 0 or j past the diagonal.  U
    only records the row operations, and D and V do not depend on it, so it
    is not tracked."""
    vt = IntMatrix.identity(m.cols).to_rows()
    d = _diagonalize(m.to_rows(), None, vt)
    n = min(m.rows, m.cols)
    return [tuple(vt[j]) for j in range(m.cols) if j >= n or d[j][j] == 0]


def _reduce(echelon: list[list[int]], v: Sequence[int]) -> tuple[list[int], list[int]]:
    """Multipliers q and remainder v - sum q[k] * echelon[k]: each echelon
    row takes from v what it can of the entry at its pivot column, which the
    rows after it leave alone.  v lies in their span exactly when nothing is
    left."""
    v = list(v)
    q = []
    for r in echelon:
        col = next(j for j, x in enumerate(r) if x)
        k = v[col] // r[col]
        if k:
            v = [a - k * b for a, b in zip(v, r)]
        q.append(k)
    return q, v


def solve_integer_column(m: IntMatrix, b: tuple[int, ...]) -> tuple[int, ...] | None:
    """One integer solution of M x = b, or None when no integer solution exists.

    The rows of an echelon form T M^T span the lattice of the columns of M,
    so reducing b against them gives b = q T M^T, that is x = q T."""
    if len(b) != m.rows:
        raise ShapeError("right hand side length does not match matrix rows")
    e = m.transpose().to_rows()
    t = IntMatrix.identity(m.cols).to_rows()
    rank = _echelon(e, t)
    q, rest = _reduce(e[:rank], b)
    if any(rest):
        return None
    return tuple(sum(k * t[i][j] for i, k in enumerate(q)) for j in range(m.cols))


def lattice_contains(rows: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether v is an integer combination of ``rows``."""
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != len(v):
            raise ShapeError(f"lattice row length {len(r)} does not match vector length {len(v)}")
    rank = _echelon(rows)
    return not any(_reduce(rows[:rank], v)[1])
