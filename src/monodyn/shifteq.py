"""Certificates, bounded searches, and invariants for shift equivalence of
nonnegative integer matrices.

The verifiers are exact.  Both searches check the invariants first and stop
at once on an obstruction; otherwise they are bounded, report the exhausted
bounds on failure, as an ``errors.Stopped`` by None, and never claim
non-equivalence.  Each re-verifies its witness or chain with the exact
verifier before returning it (a failure is a bug, raised as
``AssertionError``).  Definite negative verdicts come only from
the invariant layer: the cokernel of I - A (its invariant factors plus free
rank) and the characteristic polynomial with all factors of t stripped are
both preserved by every chain of elementary moves, so a mismatch is a genuine
obstruction.
"""

from __future__ import annotations

import itertools
import sys
from operator import mul

from .config import DEFAULT_BOUNDS
from .errors import Frozen, MonodynError, ShapeError, Stopped
from .matrix import MAX_POWER_BITS, IntMatrix, charpoly, kron

# se_search skips a kernel whose coefficient box holds more combinations.
_CANDIDATE_CAP = 250_000


# Stand-ins for the Smith code: the first call imports it and rebinds the
# name to the Smith function, so the verifiers never load smith and later
# calls pay no import.
def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    global invariant_factors
    from .smith import invariant_factors

    return invariant_factors(m)


def integer_kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    global integer_kernel_basis
    from .smith import integer_kernel_basis

    return integer_kernel_basis(m)


class ESWitness(Frozen):
    """Factorization pair: A = R S and B = S R."""

    __slots__ = ("r", "s")


class SEWitness(Frozen):
    """Lag-l witness: A^l = R S, B^l = S R, A R = R B, S A = B S."""

    __slots__ = ("r", "s", "lag")


class SSEChain(Frozen):
    """Matrices m_0 .. m_k with one elementary witness per consecutive pair."""

    __slots__ = ("matrices", "witnesses")

    def __init__(self, matrices: tuple[IntMatrix, ...], witnesses: tuple[ESWitness, ...]):
        if len(matrices) != len(witnesses) + 1:
            raise ShapeError("chain needs exactly one witness per link")
        super().__init__(matrices, witnesses)

    @property
    def length(self) -> int:
        return len(self.witnesses)


class SearchExhausted(Frozen):
    """Outcome of a bounded search that found nothing within its bounds:
    the ``Stopped`` that lists them, and the invariants report the search
    checked first."""

    __slots__ = ("stopped", "invariants")

    @property
    def obstruction(self) -> "InvariantReport | None":
        """The report when it separates the two matrices, else None."""
        return self.invariants if self.invariants.verdict == "obstruction" else None


class InvariantReport(Frozen):
    __slots__ = (
        "bf_factors_a",  # nontrivial invariant factors of I - A
        "bf_free_rank_a",
        "bf_factors_b",
        "bf_free_rank_b",
        "charpoly_core_a",  # descending coefficients, t-factors stripped
        "charpoly_core_b",
        "verdict",  # "obstruction" | "no_obstruction"
    )


def _check_nonneg(*ms: IntMatrix):
    for m in ms:
        if not m.is_nonnegative:
            raise ShapeError("shift-equivalence matrices must be nonnegative")


def verify_elementary(a: IntMatrix, b: IntMatrix, w: ESWitness) -> bool:
    """True iff a = R S and b = S R hold exactly."""
    _check_nonneg(a, b, w.r, w.s)
    if not (a.is_square and b.is_square):
        raise ShapeError("elementary shift equivalence needs square matrices")
    if w.r.rows != a.rows or w.s.cols != a.cols:
        raise ShapeError("witness R, S shapes do not compose to A")
    if w.s.rows != b.rows or w.r.cols != b.cols:
        raise ShapeError("witness S, R shapes do not compose to B")
    return w.r @ w.s == a and w.s @ w.r == b


def verify_sse_chain(chain: SSEChain) -> tuple[bool, int | None]:
    """Checks every link; returns (ok, first failing link index)."""
    for i, w in enumerate(chain.witnesses):
        if not verify_elementary(chain.matrices[i], chain.matrices[i + 1], w):
            return False, i
    return True, None


def verify_se(a: IntMatrix, b: IntMatrix, w: SEWitness) -> bool:
    """True iff all four lag-l equations hold.  Raises ``MonodynError`` when
    an entry of A^lag or B^lag, or of a power squared on the way, needs more
    than ``MAX_POWER_BITS`` bits."""
    _check_nonneg(a, b, w.r, w.s)
    if w.lag < 1:
        raise ShapeError("lag must be >= 1")
    if w.r.rows != a.rows or w.r.cols != b.cols:
        raise ShapeError("witness R must be |A| x |B|")
    if w.s.rows != b.rows or w.s.cols != a.cols:
        raise ShapeError("witness S must be |B| x |A|")
    return (
        a.pow(w.lag, bounded=True) == w.r @ w.s
        and b.pow(w.lag, bounded=True) == w.s @ w.r
        and a @ w.r == w.r @ b
        and w.s @ a == b @ w.s
    )


def _strip_t_factors(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def bowen_franks(a: IntMatrix) -> tuple[tuple[int, ...], int]:
    """Nontrivial invariant factors and free rank of coker(I - A)."""
    if not a.is_square:
        raise ShapeError("square matrix required")
    diag = invariant_factors(IntMatrix.identity(a.rows).sub(a))
    factors = tuple(d for d in diag if d > 1)
    free_rank = sum(1 for d in diag if d == 0)
    return factors, free_rank


def invariants_report(a: IntMatrix, b: IntMatrix) -> InvariantReport:
    fa, ra = bowen_franks(a)
    fb, rb = bowen_franks(b)
    ca = _strip_t_factors(charpoly(a))
    cb = _strip_t_factors(charpoly(b))
    same = fa == fb and ra == rb and ca == cb
    return InvariantReport(
        bf_factors_a=fa,
        bf_free_rank_a=ra,
        bf_factors_b=fb,
        bf_free_rank_b=rb,
        charpoly_core_a=ca,
        charpoly_core_b=cb,
        verdict="no_obstruction" if same else "obstruction",
    )


def permutation_canonical(m: IntMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically least entry tuple of P m P^T over all simultaneous
    row/column permutations P, together with one permutation realizing it."""
    if not m.is_square:
        raise ShapeError("square matrix required")
    rows = m.to_rows()
    best = None
    best_perm = None
    for perm in itertools.permutations(range(m.rows)):
        candidate = tuple([rows[i][j] for i in perm for j in perm])
        if best is None or candidate < best:
            best = candidate
            best_perm = perm
    return best, best_perm


def apply_permutation(m: IntMatrix, perm: tuple[int, ...]) -> IntMatrix:
    """P m P^T where row i of the result is row perm[i] of m."""
    rows = m.to_rows()
    return IntMatrix(m.rows, m.rows, tuple([rows[i][j] for i in perm for j in perm]))


def _permutation_matrix(perm: tuple[int, ...]) -> IntMatrix:
    n = len(perm)
    return IntMatrix(n, n, tuple(1 if j == perm[i] else 0 for i in range(n) for j in range(n)))


def _row_solutions(r: tuple[int, ...], v: int, bound: int):
    """All s in [0, bound]^len(r) with r . s = v, for a nonnegative row r, in
    lexicographic order."""
    if not 0 <= v <= bound * sum(r):
        return
    if not r:
        yield ()
        return
    c = r[0]
    for x in range((min(bound, v // c) if c else bound) + 1):
        for rest in _row_solutions(r[1:], v - c * x, bound):
            yield (x,) + rest


def _factorizations(m: IntMatrix, inner_dim: int, target: IntMatrix | None = None):
    """All pairs (R, S) of nonnegative matrices with R S = m, R of shape
    n x inner_dim, entries bounded by max(m), in lexicographic order of R
    then of S's columns.  Row i of R must reach every entry of row i of m;
    column j of S is a solution of row 0's equation that the other rows'
    equations keep.  Row 0's solutions are found once per first row of R.

    With a ``target``, only the pairs with S R = target, in the same order.
    There are none unless the target is inner_dim x inner_dim, and no R with
    m R != R target is tried: R S = m and S R = target give
    m R = R S R = R target.

    Raises ``MonodynError`` when the entry range [0, max(m)] has more values
    than a ``range`` can count on this platform (``sys.maxsize``), since
    ``itertools.product`` must take its length."""
    n = m.rows
    bound = max(m.max_entry(), 0)
    if bound >= sys.maxsize:
        raise MonodynError(
            f"cannot enumerate factorizations of a matrix with entry {bound}: "
            f"the entry range [0, {bound}] holds more than sys.maxsize = {sys.maxsize} values"
        )
    if target is not None:
        if (target.rows, target.cols) != (inner_dim, inner_dim):
            return
        target_cols = [target.entries[c::inner_dim] for c in range(inner_dim)]
    rows_m = m.to_rows()
    kept = [
        [
            r
            for r in itertools.product(range(bound + 1), repeat=inner_dim)
            if all(next(_row_solutions(r, v, bound), None) is not None for v in row)
        ]
        for row in rows_m
    ]
    for first in kept[0]:
        first_solutions = {}  # entry of row 0 of m -> its solutions for this first row
        for rest in itertools.product(*kept[1:]):
            r_rows = (first,) + rest
            if target is not None:
                r_cols = list(zip(*r_rows))
                if any(
                    [sum(map(mul, m_row, col)) for col in r_cols]
                    != [sum(map(mul, r_row, col)) for col in target_cols]
                    for m_row, r_row in zip(rows_m, r_rows)
                ):
                    continue
            columns = []
            for j, v in enumerate(rows_m[0]):
                if v not in first_solutions:
                    first_solutions[v] = list(_row_solutions(first, v, bound))
                sols = [
                    s
                    for s in first_solutions[v]
                    if all(sum(map(mul, r_rows[i], s)) == rows_m[i][j] for i in range(1, n))
                ]
                if not sols:
                    break
                columns.append(sols)
            else:
                r = IntMatrix.from_rows(r_rows)
                for combo in itertools.product(*columns):
                    s_rows = list(zip(*combo))
                    if target is None or target.entries == tuple(
                        sum(map(mul, s_row, col)) for s_row in s_rows for col in r_cols
                    ):
                        yield r, IntMatrix.from_rows(s_rows)


def sse_search(
    a: IntMatrix,
    b: IntMatrix,
    max_depth: int = DEFAULT_BOUNDS.search_depth,
    max_inner_dim: int = DEFAULT_BOUNDS.max_inner_dim,
) -> SSEChain | SearchExhausted:
    """Breadth-first search over elementary moves from A toward B.

    The invariants are checked first: on an obstruction the search returns
    at once, since no chain can exist past one.  Frontier matrices are
    deduplicated up to simultaneous row/column permutation, which preserves
    both the equivalence class and nonnegativity; a hit on a permuted copy
    of B is completed by one extra permutation link.  The last move only
    looks for B, since no later move reads what else it finds: it tries
    inner dimension |B| alone, only the factorizations R S = m with
    S R = B, and keys none, so a depth-1 search computes no canonical form
    (each reads |m|! orderings).  A chain is checked with
    ``verify_sse_chain``, and against A and B, before it is returned.  A
    frontier matrix with an entry of ``sys.maxsize`` or more cannot have its
    factorizations enumerated, and the search raises ``MonodynError``.
    """
    _check_nonneg(a, b)
    if not (a.is_square and b.is_square):
        raise ShapeError("square matrices required")
    bounds = {"max_depth": max_depth, "max_inner_dim": max_inner_dim}
    if a == b:
        return SSEChain((a,), ())
    report = invariants_report(a, b)
    if report.verdict == "obstruction":
        return SearchExhausted(Stopped(None, bounds=bounds), report)

    def verified(mats: tuple[IntMatrix, ...], wits: tuple[ESWitness, ...]) -> SSEChain:
        chain = SSEChain(mats, wits)
        if not (verify_sse_chain(chain)[0] and mats[0] == a and mats[-1] == b):
            raise AssertionError("search built a chain that does not verify")
        return chain

    frontier: list[tuple[IntMatrix, tuple[IntMatrix, ...], tuple[ESWitness, ...]]] = [
        (a, (a,), ())
    ]
    if max_depth >= 2:
        canon_b, perm_b = permutation_canonical(b)
        visited = {(a.rows, permutation_canonical(a)[0])}
    for _ in range(max_depth - 1):
        next_frontier = []
        for m, mats, wits in frontier:
            for inner in range(1, max_inner_dim + 1):
                for r, s in _factorizations(m, inner):
                    succ = s @ r
                    witness = ESWitness(r, s)
                    if succ == b:
                        return verified(mats + (succ,), wits + (witness,))
                    key_tuple, perm_succ = permutation_canonical(succ)
                    key = (succ.rows, key_tuple)
                    if key == (b.rows, canon_b):
                        # P sending perm_b[i] to perm_succ[i] gives
                        # P succ P^T = b: one more move, succ = (succ P^T) P.
                        p = _permutation_matrix(
                            tuple(perm_succ[perm_b.index(i)] for i in range(b.rows))
                        )
                        link = ESWitness(succ @ p.transpose(), p)
                        return verified(mats + (succ, b), wits + (witness, link))
                    if key not in visited:
                        visited.add(key)
                        next_frontier.append((succ, mats + (succ,), wits + (witness,)))
        frontier = next_frontier
    if max_depth >= 1 and b.rows <= max_inner_dim:
        for m, mats, wits in frontier:
            for r, s in _factorizations(m, b.rows, b):
                return verified(mats + (b,), wits + (ESWitness(r, s),))
    return SearchExhausted(Stopped(None, bounds=bounds), report)


def se_search(
    a: IntMatrix,
    b: IntMatrix,
    max_lag: int = DEFAULT_BOUNDS.max_lag,
    coeff_bound: int = DEFAULT_BOUNDS.coeff_bound,
) -> SEWitness | SearchExhausted:
    """Solve the intertwining equations over the integers, then look for
    entrywise-nonnegative combinations that factor the matrix powers.

    The kernel of the linear map R -> A R - R B is computed exactly; R and S
    candidates are integer combinations of kernel basis vectors with
    coefficients bounded by coeff_bound.  A kernel whose box holds more
    than ``_CANDIDATE_CAP`` combinations is skipped, and the reported bounds
    then name ``candidate_cap`` too.  Lags are tried only when both sides
    have a candidate, each lag's powers one product from the last lag's.
    Neither R S nor S R depends on the lag, so lag 1 tries every pair in
    order and files it under its R S; a later lag computes S R only for the
    pairs filed under A^lag, in the same order, and a pair found there is
    the first pair the full loop over all pairs would find.  The lags stop
    where A^lag or B^lag first needs more than ``MAX_POWER_BITS`` bits, since
    ``verify_se`` refuses a witness there; the bounds then name that cap too.
    An invariant obstruction short circuits the search, since no witness
    can exist past one.  A returned witness has passed ``verify_se``.
    """
    _check_nonneg(a, b)
    if not (a.is_square and b.is_square):
        raise ShapeError("square matrices required")
    bounds = {"max_lag": max_lag, "coeff_bound": coeff_bound}
    report = invariants_report(a, b)
    if report.verdict == "obstruction":
        return SearchExhausted(Stopped(None, bounds=bounds), report)

    def verified(w: SEWitness) -> SEWitness:
        if not verify_se(a, b, w):
            raise AssertionError("search built a witness that does not verify")
        return w

    if a == b:
        return verified(SEWitness(r=a, s=IntMatrix.identity(a.rows), lag=1))
    n, m = a.rows, b.rows

    def nonneg_candidates(kernel_map: IntMatrix, rows: int, cols: int) -> list[IntMatrix]:
        basis = integer_kernel_basis(kernel_map)
        if not basis:
            return []
        if (2 * coeff_bound + 1) ** len(basis) > _CANDIDATE_CAP:
            bounds["candidate_cap"] = _CANDIDATE_CAP  # the box was not searched
            return []
        out = []
        seen = set()
        for coeffs in itertools.product(
            range(-coeff_bound, coeff_bound + 1), repeat=len(basis)
        ):
            vec = [0] * (rows * cols)
            for c, bvec in zip(coeffs, basis):
                if c:
                    for i, x in enumerate(bvec):
                        vec[i] += c * x
            t = tuple(vec)
            if t in seen or all(x == 0 for x in t) or any(x < 0 for x in t):
                continue
            seen.add(t)
            out.append(IntMatrix(rows, cols, t))
        return out

    # vec is row-major: vec(A R) = (A kron I) vec(R), vec(R B) = (I kron B^T) vec(R).
    k_r = kron(a, IntMatrix.identity(m)).sub(kron(IntMatrix.identity(n), b.transpose()))
    k_s = kron(IntMatrix.identity(m), a.transpose()).sub(kron(b, IntMatrix.identity(n)))
    rs = nonneg_candidates(k_r, n, m)
    ss = nonneg_candidates(k_s, m, n)
    if not (rs and ss and max_lag >= 1):
        return SearchExhausted(Stopped(None, bounds=bounds), report)
    pairs_by_product: dict[tuple[int, ...], list[tuple[IntMatrix, IntMatrix]]] = {}
    for r in rs:
        for s in ss:
            product = r @ s
            if product == a and s @ r == b:
                return verified(SEWitness(r=r, s=s, lag=1))
            pairs_by_product.setdefault(product.entries, []).append((r, s))
    a_pow, b_pow = a, b
    for lag in range(2, max_lag + 1):
        a_pow, b_pow = a_pow @ a, b_pow @ b
        if max(map(int.bit_length, a_pow.entries + b_pow.entries)) > MAX_POWER_BITS:
            bounds["max_power_bits"] = MAX_POWER_BITS  # verify_se refuses this lag
            break
        for r, s in pairs_by_product.get(a_pow.entries, ()):
            if s @ r == b_pow:
                return verified(SEWitness(r=r, s=s, lag=lag))
    return SearchExhausted(Stopped(None, bounds=bounds), report)
