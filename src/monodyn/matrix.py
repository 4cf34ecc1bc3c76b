"""Exact integer matrices.

All arithmetic uses Python's arbitrary-precision integers, so powers of
adjacency matrices and determinant computations never overflow.  Entries are
one row-major tuple; products, transposes and traces read whole rows and
columns from it as slices (``entries[j::cols]`` is column j) rather than
entry by entry.  The file
format is a header line ``<rows> <cols>`` followed by one whitespace-separated
row per line; ``#`` starts a comment.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import Sequence

from .errors import Frozen, MonodynError, ParseError, ShapeError, integer, records

# The most bits an entry of a power may need when IntMatrix.pow is asked to
# bound it; a power whose entries grow past this is refused rather than run.
MAX_POWER_BITS = 1 << 16


class IntMatrix(Frozen):
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        super().__init__(rows, cols, entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            raise ShapeError("matrix needs at least one row")
        c = len(rows[0])
        for row in rows:
            if len(row) != c:
                raise ShapeError("ragged rows in matrix literal")
        return IntMatrix(r, c, tuple(int(x) for row in rows for x in row))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        # A one and n zeros, repeated, put the ones n + 1 entries apart.
        return IntMatrix(n, n, ((1,) + (0,) * n) * (n - 1) + (1,))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.entries)

    def max_entry(self) -> int:
        return max(self.entries)

    def trace(self) -> int:
        if not self.is_square:
            raise ShapeError("trace of a non-square matrix")
        return sum(self.entries[:: self.cols + 1])

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix(c, self.rows, tuple(chain.from_iterable(e[j::c] for j in range(c))))

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix subtraction shape mismatch")
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * a for a in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        columns = [other.entries[j :: other.cols] for j in range(other.cols)]
        rows = [self.row(i) for i in range(self.rows)]
        return IntMatrix(
            self.rows, other.cols, tuple(sum(map(mul, row, column)) for row in rows for column in columns)
        )

    def pow(self, k: int, *, bounded: bool = False) -> "IntMatrix":
        """self^k by repeated squaring.  With ``bounded``, raises
        ``MonodynError`` as soon as an entry of a power it computes needs
        more than ``MAX_POWER_BITS`` bits: a power whose entries grow is
        refused after a few squarings, and one whose entries stay small (an
        identity, a permutation, a nilpotent matrix) is computed at any k."""
        if not self.is_square:
            raise ShapeError("power of a non-square matrix")
        if k < 0:
            raise ShapeError("negative matrix power")

        def checked(m: IntMatrix) -> IntMatrix:
            if bounded and max(map(int.bit_length, m.entries)) > MAX_POWER_BITS:
                raise MonodynError(
                    f"an entry of the power {k} of a {self.rows}x{self.cols} matrix "
                    f"needs more than MAX_POWER_BITS = {MAX_POWER_BITS} bits"
                )
            return m

        result = None
        base = self
        n = k
        while n:
            if n & 1:
                result = base if result is None else checked(result @ base)
            n >>= 1
            if n:
                base = checked(base @ base)
        return IntMatrix.identity(self.rows) if result is None else result

    def __str__(self) -> str:
        return serialize_matrix(self)


def vec_mat_mul(vec: Sequence[int], m: IntMatrix) -> tuple[int, ...]:
    """Row vector times matrix."""
    if len(vec) != m.rows:
        raise ShapeError(f"vector length {len(vec)} does not match {m.rows} rows")
    return tuple(sum(vec[i] * m.at(i, j) for i in range(m.rows)) for j in range(m.cols))


def mat_vec_mul(m: IntMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    """Matrix times column vector."""
    if len(vec) != m.cols:
        raise ShapeError(f"vector length {len(vec)} does not match {m.cols} columns")
    return tuple(sum(m.at(i, j) * vec[j] for j in range(m.cols)) for i in range(m.rows))


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [0] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.at(i, j)
            if aij == 0:
                continue
            for p in range(b.rows):
                for q in range(b.cols):
                    out[(i * b.rows + p) * cols + (j * b.cols + q)] = aij * b.at(p, q)
    return IntMatrix(rows, cols, tuple(out))


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ShapeError("determinant of a non-square matrix")
    n = m.rows
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def charpoly(m: IntMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(tI - M), coefficients in descending degree.

    Uses Berkowitz's division-free algorithm (S. J. Berkowitz, "On computing
    the determinant in small parallel time using a small number of
    processors", Inf. Proc. Letters 18, 1984).  Write the leading
    (k+1) x (k+1) block of M as [[A_k, C], [R, a]], with A_k its leading
    k x k block.  The block's polynomial is the lower triangular Toeplitz
    matrix whose first column is [1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C]
    times the coefficient vector of A_k's polynomial.  That column takes
    k - 1 matrix-vector products, where Faddeev-LeVerrier takes n full
    matrix products and divides.  The leading coefficient is always 1.
    """
    if not m.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n, e = m.rows, m.entries
    coeffs = [1, -e[0]]
    for k in range(1, n):
        block = [e[i * n : i * n + k] for i in range(k)]
        r = e[k * n : k * n + k]
        v = e[k : k * n : n]  # C
        column = [1, -e[k * n + k], -sum(map(mul, r, v))]
        for _ in range(k - 1):
            v = [sum(map(mul, row, v)) for row in block]
            column.append(-sum(map(mul, r, v)))
        # The Toeplitz product is the convolution cut after k + 2 terms.
        coeffs = [sum(map(mul, coeffs, column[i::-1])) for i in range(k + 2)]
    return tuple(coeffs)


def parse_matrix(text: str) -> IntMatrix:
    tokens = [(lineno, tok) for lineno, line in records(text) for tok in line.split()]
    if len(tokens) < 2:
        raise ParseError("matrix file needs a '<rows> <cols>' header")
    values = [integer(tok, f"not an integer: {tok!r}", lineno) for lineno, tok in tokens]
    rows, cols = values[0], values[1]
    if rows < 1 or cols < 1:
        raise ParseError(f"matrix dimensions must be positive, got {rows}x{cols}")
    body = values[2:]
    if len(body) != rows * cols:
        raise ParseError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(body)}"
        )
    return IntMatrix(rows, cols, tuple(body))


def serialize_matrix(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"
