import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monodyn.errors import MonodynError, ShapeError, Stopped
from monodyn import shifteq
from monodyn.matrix import MAX_POWER_BITS, IntMatrix, kron
from monodyn.shifteq import (
    _CANDIDATE_CAP,
    ESWitness,
    SEWitness,
    SSEChain,
    SearchExhausted,
    _factorizations,
    _permutation_matrix,
    apply_permutation,
    bowen_franks,
    integer_kernel_basis,
    invariants_report,
    permutation_canonical,
    se_search,
    sse_search,
    verify_elementary,
    verify_se,
    verify_sse_chain,
)

TWO = IntMatrix.from_rows([[2]])
ONES = IntMatrix.from_rows([[1, 1], [1, 1]])
ROW = IntMatrix.from_rows([[1, 1]])
COL = IntMatrix.from_rows([[1], [1]])


def test_verify_elementary_example():
    assert verify_elementary(TWO, ONES, ESWitness(ROW, COL))
    i2 = IntMatrix.identity(2)
    assert verify_elementary(i2, i2, ESWitness(i2, i2))
    assert not verify_elementary(TWO, ONES, ESWitness(IntMatrix.from_rows([[1, 0]]), COL))


def test_verify_elementary_shape_errors():
    with pytest.raises(ShapeError):
        verify_elementary(TWO, ONES, ESWitness(COL, ROW))
    with pytest.raises(ShapeError):
        verify_elementary(TWO, ONES, ESWitness(ROW, IntMatrix.from_rows([[-1], [1]])))


def test_verify_se_power_bit_limit():
    # [2]^lag has lag + 1 bits.
    lag = MAX_POWER_BITS - 1
    assert verify_se(TWO, TWO, SEWitness(IntMatrix.from_rows([[2**lag]]), IntMatrix.from_rows([[1]]), lag))
    with pytest.raises(MonodynError, match=f"MAX_POWER_BITS = {MAX_POWER_BITS}"):
        verify_se(TWO, TWO, SEWitness(TWO, TWO, lag + 1))
    # Powers whose entries stay small are checked at any lag.
    one, identity = IntMatrix.from_rows([[1]]), IntMatrix.identity(2)
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert verify_se(one, one, SEWitness(one, one, 10**20))
    assert verify_se(identity, identity, SEWitness(identity, identity, 70000))
    assert verify_se(swap, swap, SEWitness(swap, identity, 10**20 + 1))
    # The entries of [[2, 2], [2, 2]]^k have 2k bits.
    twos = IntMatrix.from_rows([[2, 2], [2, 2]])
    assert not verify_se(twos, TWO, SEWitness(COL, ROW, MAX_POWER_BITS // 2))
    with pytest.raises(MonodynError, match="MAX_POWER_BITS"):
        verify_se(twos, TWO, SEWitness(COL, ROW, MAX_POWER_BITS // 2 + 1))


def test_power_bit_limit_checks_only_the_powers_it_computes():
    # A itself is no computed power: lag 1 verifies, and se_search returns
    # the trivial witness of A against A, however wide A's entries are.
    wide = IntMatrix.from_rows([[2**70000]])
    assert wide.pow(1, bounded=True) == wide
    assert verify_se(wide, wide, SEWitness(wide, IntMatrix.from_rows([[1]]), 1))
    assert se_search(wide, wide) == SEWitness(wide, IntMatrix.from_rows([[1]]), 1)
    with pytest.raises(MonodynError, match="MAX_POWER_BITS"):
        wide.pow(2, bounded=True)


def test_verify_sse_chain():
    chain = SSEChain((TWO, ONES), (ESWitness(ROW, COL),))
    assert verify_sse_chain(chain) == (True, None)
    empty = SSEChain((TWO,), ())
    assert verify_sse_chain(empty) == (True, None)
    bad = SSEChain(
        (TWO, IntMatrix.from_rows([[1, 1], [1, 2]])), (ESWitness(ROW, COL),)
    )
    assert verify_sse_chain(bad) == (False, 0)


def test_verify_se():
    a = IntMatrix.from_rows([[1, 2], [1, 1]])
    assert verify_se(a, a, SEWitness(a, IntMatrix.identity(2), 1))
    # Elementary witnesses are lag-1 shift equivalences.
    assert verify_se(TWO, ONES, SEWitness(ROW, COL, 1))
    # Same data at lag 2 fails: A^2 = (4) but R S = (2).
    assert not verify_se(TWO, ONES, SEWitness(ROW, COL, 2))


def test_es_implies_se_lag1_random():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        r = IntMatrix(n, d, tuple(rng.randint(0, 2) for _ in range(n * d)))
        s = IntMatrix(d, n, tuple(rng.randint(0, 2) for _ in range(d * n)))
        a = r @ s
        b = s @ r
        assert verify_elementary(a, b, ESWitness(r, s))
        assert verify_se(a, b, SEWitness(r, s, 1))


def test_bowen_franks_known():
    assert bowen_franks(TWO) == ((), 0)  # coker of (-1) is trivial
    assert bowen_franks(IntMatrix.from_rows([[3]])) == ((2,), 0)
    assert bowen_franks(IntMatrix.from_rows([[1, 3], [2, 1]])) == ((6,), 0)
    assert bowen_franks(IntMatrix.from_rows([[1, 6], [1, 1]])) == ((6,), 0)
    assert bowen_franks(IntMatrix.identity(2)) == ((), 2)


def test_invariants_report_matching_pair():
    left = IntMatrix.from_rows([[1, 3], [2, 1]])
    right = IntMatrix.from_rows([[1, 6], [1, 1]])
    rep = invariants_report(left, right)
    assert rep.verdict == "no_obstruction"
    assert rep.bf_factors_a == rep.bf_factors_b == (6,)
    assert rep.charpoly_core_a == rep.charpoly_core_b == (1, -2, -5)


def test_invariants_report_obstruction():
    rep = invariants_report(TWO, IntMatrix.from_rows([[3]]))
    assert rep.verdict == "obstruction"
    assert rep.bf_factors_a == () and rep.bf_factors_b == (2,)
    assert invariants_report(TWO, TWO).verdict == "no_obstruction"


def test_invariants_ignore_nilpotent_part():
    # (2) and its size-2 companion with a stripped t factor share the core.
    a = IntMatrix.from_rows([[2]])
    b = IntMatrix.from_rows([[1, 1], [1, 1]])
    rep = invariants_report(a, b)
    assert rep.verdict == "no_obstruction"
    assert rep.charpoly_core_a == rep.charpoly_core_b == (1, -2)


def test_permutation_canonical_soundness():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix(n, n, tuple(rng.randint(0, 3) for _ in range(n * n)))
        canon, perm = permutation_canonical(m)
        replayed = apply_permutation(m, perm)
        assert tuple(replayed.entries) == canon
        # Permuted copies share the canonical form.
        shuffle = tuple(rng.sample(range(n), n))
        assert permutation_canonical(apply_permutation(m, shuffle))[0] == canon


def test_sse_search_example():
    result = sse_search(TWO, ONES, max_depth=1, max_inner_dim=2)
    assert isinstance(result, SSEChain)
    assert result.length == 1
    ok, _ = verify_sse_chain(result)
    assert ok
    assert result.matrices[0] == TWO and result.matrices[-1] == ONES


def test_sse_search_reflexive_depth0():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    result = sse_search(a, a, max_depth=0)
    assert isinstance(result, SSEChain) and result.length == 0


def test_sse_search_not_found_reports_bounds():
    a4 = IntMatrix.from_rows([[1, 4], [3, 1]])
    b4 = IntMatrix.from_rows([[1, 12], [1, 1]])
    result = sse_search(a4, b4, max_depth=1, max_inner_dim=2)
    assert isinstance(result, SearchExhausted)
    assert dict(result.stopped.bounds) == {"max_depth": 1, "max_inner_dim": 2} and result.stopped.by is None
    assert result.obstruction is None


def test_sse_search_last_move_tries_only_the_inner_dimension_of_b():
    # S R = B needs inner dimension |B| = 3, over the bound of 2, so the only
    # move is not tried and A's entry range, too wide for a range to count,
    # is never enumerated.
    a = IntMatrix.from_rows([[10**23, 0], [0, 0]])
    b = IntMatrix.from_rows([[10**23, 0, 0], [0, 0, 0], [0, 0, 0]])
    result = sse_search(a, b, max_depth=1, max_inner_dim=2)
    assert isinstance(result, SearchExhausted) and result.obstruction is None
    with pytest.raises(MonodynError, match="sys.maxsize"):
        sse_search(a, b, max_depth=1, max_inner_dim=3)


def test_sse_search_finds_permuted_target():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = apply_permutation(a, (1, 0))
    result = sse_search(a, b, max_depth=2, max_inner_dim=2)
    assert isinstance(result, SSEChain)
    ok, _ = verify_sse_chain(result)
    assert ok
    assert result.matrices[-1] == b


def test_sse_chains_preserve_invariants():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        r = IntMatrix(n, d, tuple(rng.randint(0, 2) for _ in range(n * d)))
        s = IntMatrix(d, n, tuple(rng.randint(0, 2) for _ in range(d * n)))
        a = r @ s
        b = s @ r
        rep = invariants_report(a, b)
        assert rep.verdict == "no_obstruction"


def test_se_search_example():
    result = se_search(TWO, ONES)
    assert isinstance(result, SEWitness)
    assert result.lag == 1
    assert verify_se(TWO, ONES, result)


def test_se_search_obstruction_short_circuit():
    result = se_search(TWO, IntMatrix.from_rows([[3]]))
    assert isinstance(result, SearchExhausted)
    assert result.obstruction is not None
    assert result.obstruction.verdict == "obstruction"


def test_se_search_names_the_candidate_cap_that_cut_it():
    # The kernel of R -> 0 R - R B has rank 12, so its coefficient box holds
    # 5^12 combinations, over the cap: the search skips it and must say so,
    # since a lag-1 witness exists.
    zero = IntMatrix.zeros(4, 4)
    b = IntMatrix(4, 4, tuple(int(i == 1) for i in range(16)))
    result = se_search(zero, b)
    assert isinstance(result, SearchExhausted) and result.obstruction is None
    assert dict(result.stopped.bounds) == {"max_lag": 4, "coeff_bound": 2, "candidate_cap": 250_000}
    r = IntMatrix(4, 4, tuple(int(i == 2 * 4 + 1) for i in range(16)))
    s = IntMatrix(4, 4, tuple(int(i == 2) for i in range(16)))
    assert verify_se(zero, b, SEWitness(r, s, 1))
    # A search the cap does not cut names only its two bounds.
    assert "candidate_cap" not in dict(se_search(TWO, IntMatrix.from_rows([[3]])).stopped.bounds)
    # With no candidate on one side, no lag can give a witness, so none is tried.
    far = se_search(zero, b, max_lag=10**6)
    assert dict(far.stopped.bounds) == {"max_lag": 10**6, "coeff_bound": 2, "candidate_cap": 250_000}


def test_se_search_finds_a_lag_two_witness():
    # No lag-1 witness within the coefficient box, so the powers of a later lag are used.
    a = IntMatrix.from_rows([[2, 0], [3, 1]])
    b = IntMatrix.from_rows([[2, 0], [1, 1]])
    result = se_search(a, b, max_lag=3)
    assert isinstance(result, SEWitness) and result.lag == 2
    assert result.r.to_rows() == [[1, 0], [2, 1]] and result.s.to_rows() == [[4, 0], [1, 1]]
    assert verify_se(a, b, result)


def test_se_search_reflexive():
    a = IntMatrix.from_rows([[1, 2], [1, 1]])
    result = se_search(a, a)
    assert isinstance(result, SEWitness)
    assert result.r == a and result.s == IntMatrix.identity(2) and result.lag == 1
    assert verify_se(a, a, result)


def test_search_soundness_random_es_pairs():
    # Anything constructed as RS / SR must be rediscovered and verified.
    rng = random.Random(15)
    for _ in range(10):
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        r = IntMatrix(n, d, tuple(rng.randint(0, 2) for _ in range(n * d)))
        s = IntMatrix(d, n, tuple(rng.randint(0, 2) for _ in range(d * n)))
        a = r @ s
        b = s @ r
        found = sse_search(a, b, max_depth=2, max_inner_dim=2)
        assert isinstance(found, SSEChain)
        ok, _ = verify_sse_chain(found)
        assert ok
        se_found = se_search(a, b, max_lag=2, coeff_bound=2)
        if isinstance(se_found, SEWitness):
            assert verify_se(a, b, se_found)


def brute_factorizations(m: IntMatrix, d: int) -> list:
    """Every R in [0, max(m)]^(n x d) in lexicographic order and, for each,
    every S whose columns solve R s = m's columns, each column filtered from
    the whole box in lexicographic order."""
    n = m.rows
    bound = max(m.max_entry(), 0)
    box = [IntMatrix(d, 1, s) for s in itertools.product(range(bound + 1), repeat=d)]
    targets = [IntMatrix(n, 1, tuple(col)) for col in m.transpose().to_rows()]
    out = []
    for flat in itertools.product(range(bound + 1), repeat=n * d):
        r = IntMatrix(n, d, flat)
        columns = [[s.entries for s in box if r @ s == target] for target in targets]
        for combo in itertools.product(*columns):
            out.append((r, IntMatrix.from_rows(list(zip(*combo)))))
    return out


@st.composite
def small_square(draw):
    n = draw(st.integers(1, 2))
    return IntMatrix(n, n, tuple(draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))))


@settings(max_examples=60, deadline=None)
@given(small_square(), st.integers(1, 3))
@example(IntMatrix(1, 1, (0,)), 3)
@example(IntMatrix(2, 2, (0, 0, 0, 0)), 2)
@example(IntMatrix(2, 2, (0, 0, 0, 0)), 3)
def test_factorizations_match_brute_force(m, d):
    assert list(_factorizations(m, d)) == brute_factorizations(m, d)


def naive_apply_permutation(m: IntMatrix, perm: tuple[int, ...]) -> IntMatrix:
    n = m.rows
    return IntMatrix(n, n, tuple(m.at(perm[i], perm[j]) for i in range(n) for j in range(n)))


def naive_permutation_canonical(m: IntMatrix):
    """First permutation, in itertools order, with the least permuted entries."""
    return min(
        (naive_apply_permutation(m, perm).entries, perm) for perm in itertools.permutations(range(m.rows))
    )


@st.composite
def square_and_permutation(draw):
    n = draw(st.integers(1, 4))
    entries = st.one_of(st.integers(0, 3), st.integers(0, 10**30))
    m = IntMatrix(n, n, tuple(draw(st.lists(entries, min_size=n * n, max_size=n * n))))
    return m, tuple(draw(st.permutations(range(n))))


@settings(max_examples=150, deadline=None)
@given(square_and_permutation())
@example((IntMatrix(3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 1)), (2, 0, 1)))
def test_permutations_match_per_entry_reads(case):
    m, perm = case
    assert apply_permutation(m, perm) == naive_apply_permutation(m, perm)
    assert permutation_canonical(m) == naive_permutation_canonical(m)


@st.composite
def factorization_case(draw):
    """A small square m, an inner dimension d, and a target: S R of one of
    m's factorizations, or any small square, of size d or not."""
    m, d = draw(small_square()), draw(st.integers(1, 3))
    pairs = brute_factorizations(m, d)
    if pairs and draw(st.booleans()):
        r, s = draw(st.sampled_from(pairs))
        return m, d, s @ r
    k = draw(st.integers(1, 3))
    return m, d, IntMatrix(k, k, tuple(draw(st.lists(st.integers(0, 2), min_size=k * k, max_size=k * k))))


@settings(max_examples=80, deadline=None)
@given(factorization_case())
@example((IntMatrix(1, 1, (2,)), 2, IntMatrix(1, 1, (2,))))  # 1x1 target, inner dimension 2
@example((IntMatrix(1, 1, (2,)), 1, IntMatrix(2, 2, (1, 1, 1, 1))))
@example((IntMatrix(1, 1, (2,)), 2, IntMatrix(2, 2, (1, 1, 1, 1))))
@example((IntMatrix(2, 2, (0, 0, 0, 0)), 2, IntMatrix(2, 2, (0, 0, 0, 0))))
def test_factorizations_with_a_target_keep_the_pairs_that_reach_it(case):
    m, d, target = case
    expected = [(r, s) for r, s in brute_factorizations(m, d) if s @ r == target]
    assert list(_factorizations(m, d, target)) == expected


def reference_sse_search(a, b, max_depth, max_inner_dim):
    """sse_search with every move alike: each depth enumerates every inner
    dimension and factorization and keys every successor, the last one too."""
    bounds = {"max_depth": max_depth, "max_inner_dim": max_inner_dim}
    if a == b:
        return SSEChain((a,), ())
    report = invariants_report(a, b)
    if report.verdict == "obstruction":
        return SearchExhausted(Stopped(None, bounds=bounds), report)
    canon_b, perm_b = permutation_canonical(b)
    visited = {(a.rows, permutation_canonical(a)[0])}
    frontier = [(a, (a,), ())]
    for depth in range(1, max_depth + 1):
        next_frontier = []
        for m, mats, wits in frontier:
            for inner in range(1, max_inner_dim + 1):
                for r, s in _factorizations(m, inner):
                    succ = s @ r
                    if succ == b:
                        return SSEChain(mats + (succ,), wits + (ESWitness(r, s),))
                    key_tuple, perm_succ = permutation_canonical(succ)
                    key = (succ.rows, key_tuple)
                    if key == (b.rows, canon_b) and depth < max_depth:
                        p = _permutation_matrix(tuple(perm_succ[perm_b.index(i)] for i in range(b.rows)))
                        link = ESWitness(succ @ p.transpose(), p)
                        return SSEChain(mats + (succ, b), wits + (ESWitness(r, s), link))
                    if key not in visited:
                        visited.add(key)
                        next_frontier.append((succ, mats + (succ,), wits + (ESWitness(r, s),)))
        frontier = next_frontier
    return SearchExhausted(Stopped(None, bounds=bounds), report)


def search_pairs(seed: int, count: int, moves: int = 1):
    """Pairs joined by ``moves`` elementary moves (R S to S R, the later ones
    from a factorization drawn from ``_factorizations``, of inner dimension
    |S R| when none of the drawn one exists), every other pair with its end
    relabelled."""
    rng = random.Random(seed)
    for i in range(count):
        n, d = rng.randint(1, 3), rng.randint(1, 2)
        r = IntMatrix(n, d, tuple(rng.randint(0, 2) for _ in range(n * d)))
        s = IntMatrix(d, n, tuple(rng.randint(0, 2) for _ in range(d * n)))
        b = s @ r
        for _ in range(moves - 1):
            pairs = list(_factorizations(b, rng.randint(1, 2))) or list(_factorizations(b, b.rows))
            r2, s2 = rng.choice(pairs)
            b = s2 @ r2
        if i % 2:
            b = apply_permutation(b, tuple(rng.sample(range(b.rows), b.rows)))
        yield r @ s, b


@pytest.mark.parametrize("depth", [1, 2])
def test_sse_search_matches_the_unpruned_search(depth):
    ends = 0
    for a, b in search_pairs(16 + depth, 40 if depth == 1 else 16, moves=depth):
        for inner in (1, 2):
            result = sse_search(a, b, depth, inner)
            assert result == reference_sse_search(a, b, depth, inner)
            ends += isinstance(result, SSEChain) and result.length == depth
    # Enough chains need all ``depth`` moves that the last move is exercised.
    assert ends >= 5


def reference_se_search(a, b, max_lag, coeff_bound):
    """se_search with every pair's products taken afresh at every lag."""
    bounds = {"max_lag": max_lag, "coeff_bound": coeff_bound}
    report = invariants_report(a, b)
    if report.verdict == "obstruction":
        return SearchExhausted(Stopped(None, bounds=bounds), report)
    if a == b:
        return SEWitness(r=a, s=IntMatrix.identity(a.rows), lag=1)
    n, m = a.rows, b.rows

    def candidates(kernel_map, rows, cols):
        basis = integer_kernel_basis(kernel_map)
        if not basis:
            return []
        if (2 * coeff_bound + 1) ** len(basis) > _CANDIDATE_CAP:
            bounds["candidate_cap"] = _CANDIDATE_CAP
            return []
        out = []
        for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(basis)):
            vec = tuple(sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(rows * cols))
            if any(vec) and min(vec) >= 0 and IntMatrix(rows, cols, vec) not in out:
                out.append(IntMatrix(rows, cols, vec))
        return out

    rs = candidates(kron(a, IntMatrix.identity(m)).sub(kron(IntMatrix.identity(n), b.transpose())), n, m)
    ss = candidates(kron(IntMatrix.identity(m), a.transpose()).sub(kron(b, IntMatrix.identity(n))), m, n)
    for lag in range(1, max_lag + 1) if rs and ss else ():
        powers = a.pow(lag).entries + b.pow(lag).entries
        if lag > 1 and max(x.bit_length() for x in powers) > shifteq.MAX_POWER_BITS:
            bounds["max_power_bits"] = shifteq.MAX_POWER_BITS
            break
        for r in rs:
            for s in ss:
                if r @ s == a.pow(lag) and s @ r == b.pow(lag):
                    return SEWitness(r=r, s=s, lag=lag)
    return SearchExhausted(Stopped(None, bounds=bounds), report)


@pytest.mark.parametrize("coeff_bound", [0, 2])
@pytest.mark.parametrize("max_lag", [0, 1, 5])
def test_se_search_matches_the_lag_loop_over_all_pairs(max_lag, coeff_bound):
    pairs = list(search_pairs(20, 16)) + [
        (IntMatrix.from_rows([[2, 0], [3, 1]]), IntMatrix.from_rows([[2, 0], [1, 1]])),  # lag 2
        (IntMatrix.from_rows([[1, 3], [2, 1]]), IntMatrix.from_rows([[1, 6], [1, 1]])),
        (TWO, IntMatrix.from_rows([[3]])),
    ]
    for a, b in pairs:
        assert se_search(a, b, max_lag, coeff_bound) == reference_se_search(a, b, max_lag, coeff_bound)


def test_se_search_stops_at_the_first_lag_past_the_power_bits(monkeypatch):
    # README's Baker pair: A^lag grows by about 1.79 bits per lag, so with
    # 64 bits the lags stop near 36, not at max_lag.  At the real 2^16 bits
    # the loop would stop near lag 36 700, where verify_se starts refusing.
    a = IntMatrix.from_rows([[1, 3], [2, 1]])
    b = IntMatrix.from_rows([[1, 6], [1, 1]])
    monkeypatch.setattr(shifteq, "MAX_POWER_BITS", 64)
    first = next(lag for lag in itertools.count(2) if max(
        x.bit_length() for x in a.pow(lag).entries + b.pow(lag).entries) > 64)
    assert 30 < first < 40
    result = se_search(a, b, max_lag=10**6)
    assert isinstance(result, SearchExhausted) and result.obstruction is None
    assert dict(result.stopped.bounds) == {"max_lag": 10**6, "coeff_bound": 2, "max_power_bits": 64}
    # The lag that passes the bits is the one that stops the search.
    for max_lag in (first - 1, first):
        result = se_search(a, b, max_lag)
        assert result == reference_se_search(a, b, max_lag, 2)
        assert ("max_power_bits" in dict(result.stopped.bounds)) == (max_lag == first)
