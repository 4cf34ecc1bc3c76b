"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass; every criterion pins its exact expected values and its time budget.
"""

import itertools
import math
import random
import time

import numpy as np

from monodyn.corpus import random_sandpile_graph, sandpile_corpus
from monodyn.dimension import DimElement, dim_positive, fib_cone_member
from monodyn.grid import (
    GridSpec,
    config_to_array,
    decode_ppm,
    grid_config,
    make_grid,
    render_ppm,
    stabilize_grid,
)
from monodyn.lpa import higman_thompson_iso, lpa_simple, matrix_leavitt_iso
from monodyn.matrix import IntMatrix
from monodyn.monoid import enumerate_monoid, graph_monoid_presentation
from monodyn.sandpile import (
    ChipConfig,
    format_config_terms,
    sandpile_monoid,
    stabilize,
)
from monodyn.shifteq import (
    ESWitness,
    SSEChain,
    invariants_report,
    sse_search,
    verify_elementary,
    verify_sse_chain,
)
from monodyn.smith import smith_normal_form, is_unimodular


def _report(number: int, description: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} ({elapsed:.2f}s / {limit:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_worked_trace(four_vertex_sandpile):
    t0 = time.perf_counter()
    start = ChipConfig.from_mapping(four_vertex_sandpile, {"v": 8})
    trace: list[ChipConfig] = []
    config, odometer = stabilize(four_vertex_sandpile, start, trace_to=trace)
    rendered = format_config_terms(four_vertex_sandpile, [start] + trace)
    ok = (
        rendered == ["8v", "6v+u", "4v+2u", "2v+3u", "3v+z", "v+u+z"]
        and config.to_mapping(four_vertex_sandpile) == {"u": 1, "v": 1, "z": 1}
        and config.absorbed == 5
        and odometer.to_mapping(four_vertex_sandpile) == {"u": 1, "v": 4, "z": 0}
    )
    _report(1, "8-chip trace on the four-vertex sandpile graph", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_grid_figure():
    t0 = time.perf_counter()
    spec = GridSpec(3, 3, "closed")
    g = make_grid(spec)
    config, _ = stabilize(g, grid_config(spec, {(1, 1): 4, (0, 1): 2}))
    expected = {name: 0 for name in g.vertices}
    for name in ("r1c1", "r1c0", "r1c2", "r2c1", "r0c0", "r0c2"):
        expected[name] = 1
    ok = config.to_mapping(g) == expected
    _report(2, "closed 3x3 grid settles to six single chips", ok, time.perf_counter() - t0, 1.0)


def test_criterion_03_fractal_symmetry():
    t0 = time.perf_counter()
    spec = GridSpec(201, 201, "open")
    config, _ = stabilize_grid(spec, grid_config(spec, {(100, 100): 2**14}))
    arr = config_to_array(spec, config)
    ok = int(arr.max()) <= 3
    _, _, pixels = decode_ppm(render_ppm(spec, config))
    transforms = [
        pixels,
        np.rot90(pixels, 1),
        np.rot90(pixels, 2),
        np.rot90(pixels, 3),
        pixels[::-1],
        pixels[:, ::-1],
        np.rot90(pixels, 1)[::-1],
        np.rot90(pixels, 3)[::-1],
    ]
    ok = ok and all(t.tobytes() == pixels.tobytes() for t in transforms)
    _report(3, "2^14-chip drop on open 201x201 grid, 8-fold symmetric image", ok, time.perf_counter() - t0, 30.0)


def test_criterion_04_sandpile_monoid_f(two_cycle_loop_sink):
    t0 = time.perf_counter()
    table = sandpile_monoid(two_cycle_loop_sink)
    ok = table.size == 4 and table.elements == ((0, 0), (0, 1), (1, 0), (1, 1))
    x = table.generator_classes[1]
    chain = [table.identity]
    for _ in range(4):
        chain.append(table.add[chain[-1]][x])
    ok = ok and len(set(chain[:4])) == 4 and chain[4] == chain[3]
    value = {chain[k]: k for k in range(4)}
    expected_add = tuple(
        tuple(chain[min(value[i] + value[j], 3)] for j in range(4)) for i in range(4)
    )
    ok = ok and table.add == expected_add
    _report(4, "stable configurations of the leaky two-cycle form the 4-chain with 4x = 3x", ok, time.perf_counter() - t0, 1.0)


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    completed = 0
    agreed = 0
    for g in sandpile_corpus(20260809, 120, max_vertices=5, max_outdegree=3):
        p = graph_monoid_presentation(g, weighted=True, sink_zero=True)
        table = enumerate_monoid(p, max_elements=10_000)
        if table is None:
            continue
        completed += 1
        oracle = sandpile_monoid(g)
        if table.size != oracle.size:
            continue
        mapping = []
        good = True
        for rep in table.elements:
            cfg, _ = stabilize(g, ChipConfig(rep))
            mapping.append(oracle.elements.index(cfg.counts))
        if sorted(mapping) != list(range(oracle.size)):
            good = False
        if good:
            n = table.size
            good = all(
                mapping[table.add[i][j]] == oracle.add[mapping[i]][mapping[j]]
                for i in range(n)
                for j in range(n)
            )
        if good:
            agreed += 1
    ok = completed >= 50 and agreed == completed
    _report(
        5,
        f"presentation enumeration matches stable-config monoid on {agreed}/{completed} corpus graphs",
        ok,
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_06_abelian_property():
    t0 = time.perf_counter()
    rng = random.Random(99)
    successes = 0
    for trial in range(200):
        g = random_sandpile_graph(rng, max_vertices=6, max_outdegree=3)
        nonsink = g.nonsink_vertices
        chips = rng.randint(0, 40)
        counts = [0] * len(nonsink)
        for _ in range(chips):
            counts[rng.randrange(len(nonsink))] += 1
        c = ChipConfig(tuple(counts))
        a = stabilize(g, c, rng=random.Random(3000 + trial))
        b = stabilize(g, c, rng=random.Random(7000 + trial))
        if a[0] == b[0] and a[1] == b[1] and a[0].absorbed == b[0].absorbed:
            successes += 1
    ok = successes == 200
    _report(6, f"{successes}/200 randomized double stabilizations agree", ok, time.perf_counter() - t0, 10.0)


def test_criterion_07_elementary_example():
    t0 = time.perf_counter()
    a = IntMatrix.from_rows([[2]])
    b = IntMatrix.from_rows([[1, 1], [1, 1]])
    w = ESWitness(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1], [1]]))
    ok = verify_elementary(a, b, w)
    found = sse_search(a, b, max_depth=1, max_inner_dim=2)
    ok = (
        ok
        and isinstance(found, SSEChain)
        and found.length == 1
        and verify_sse_chain(found)[0]
        and found.matrices[0] == a
        and found.matrices[-1] == b
    )
    _report(7, "(2) ~ES [[1,1],[1,1]] verified and rediscovered at depth 1", ok, time.perf_counter() - t0, 1.0)


def test_criterion_08_invariant_engine():
    t0 = time.perf_counter()
    left = IntMatrix.from_rows([[1, 3], [2, 1]])
    right = IntMatrix.from_rows([[1, 6], [1, 1]])
    rep = invariants_report(left, right)
    ok = (
        rep.verdict == "no_obstruction"
        and rep.bf_factors_a == (6,)
        and rep.bf_factors_b == (6,)
        and rep.bf_free_rank_a == rep.bf_free_rank_b == 0
        and rep.charpoly_core_a == (1, -2, -5)
        and rep.charpoly_core_b == (1, -2, -5)
    )
    _report(8, "[[1,3],[2,1]] and [[1,6],[1,1]] share Z/6 and core polynomial t^2-2t-5", ok, time.perf_counter() - t0, 1.0)


def test_criterion_09_fibonacci_cone():
    t0 = time.perf_counter()
    fib = IntMatrix.from_rows([[1, 1], [1, 0]])
    checked = 0
    ok = True
    for m in range(-50, 51):
        for n in range(-50, 51):
            verdict = dim_positive(DimElement(fib, (m, n), 0), max_power=64)
            if verdict == "inconclusive":
                ok = False
                break
            if (verdict == "positive") != fib_cone_member(m, n):
                ok = False
                break
            checked += 1
        if not ok:
            break
    ok = ok and checked == 101 * 101
    _report(9, f"cone membership agrees with the power oracle on {checked} pairs", ok, time.perf_counter() - t0, 5.0)


def test_criterion_10_simplicity_trio(simplicity_trio):
    t0 = time.perf_counter()
    left, middle, right = simplicity_trio
    v_left, v_middle, v_right = lpa_simple(left), lpa_simple(middle), lpa_simple(right)
    ok = (
        (v_left.simple, v_middle.simple, v_right.simple) == (False, False, True)
        and v_left.failure == "exitless_cycle"
        and set(v_left.witness_cycle) == {"u", "v"}
        and v_middle.failure == "cofinality"
        and v_middle.witness_vertex == "w"
        and v_right.failure is None
    )
    _report(10, "three-graph simplicity classification with witness kinds", ok, time.perf_counter() - t0, 1.0)


def test_criterion_11_gcd_theorems():
    t0 = time.perf_counter()
    tuples = 0
    ok = True
    for n, m in itertools.product(range(2, 7), repeat=2):
        for r, s in itertools.product(range(1, 11), repeat=2):
            direct = (m == n) and math.gcd(r, n - 1) == math.gcd(s, n - 1)
            if matrix_leavitt_iso(n, r, m, s) != direct or higman_thompson_iso(n, r, m, s) != direct:
                ok = False
            tuples += 1
    ok = ok and tuples == 2500
    _report(11, f"both gcd classifiers match the quoted condition on {tuples} tuples", ok, time.perf_counter() - t0, 1.0)


def test_criterion_12_smith_oracle():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    ok = True
    for _ in range(100):
        m = IntMatrix(4, 4, tuple(rng.randint(-9, 9) for _ in range(16)))
        u, d, v = smith_normal_form(m)
        if (u @ m) @ v != d or not is_unimodular(u) or not is_unimodular(v):
            ok = False
            break
        diag = [d.at(i, i) for i in range(4)]
        if any(d.at(i, j) for i in range(4) for j in range(4) if i != j):
            ok = False
            break
        if any(x < 0 for x in diag):
            ok = False
            break
        for i in range(3):
            if diag[i] == 0:
                if diag[i + 1] != 0:
                    ok = False
            elif diag[i + 1] % diag[i] != 0:
                ok = False
    _report(12, "Smith transforms exact, unimodular, divisibility chain on 100 matrices", ok, time.perf_counter() - t0, 5.0)
