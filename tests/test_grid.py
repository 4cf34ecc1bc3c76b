import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodyn.errors import ParseError, ShapeError, Stopped
from monodyn.grid import (
    DEFAULT_PALETTE,
    INT16_MAX,
    MAX_GRID_CELLS,
    GridSpec,
    GridVertices,
    Palette,
    array_to_config,
    config_to_array,
    decode_ppm,
    grid_config,
    make_grid,
    parse_palette,
    render_ppm,
    stabilize_grid,
    _odometer_bound,
    _stabilizer_dtype,
    _strip_green,
)
from monodyn.sandpile import ChipConfig, parse_config, serialize_config, stabilize


def test_make_grid_closed_degrees():
    g = make_grid(GridSpec(3, 3, "closed"))
    assert len(g.vertices) == 9
    assert g.outdegree("r0c0") == 2
    assert g.outdegree("r0c1") == 3
    assert g.outdegree("r1c1") == 4
    assert g.sinks == ()


def test_make_grid_open_degrees():
    g = make_grid(GridSpec(3, 3, "open"))
    assert len(g.vertices) == 10
    assert all(g.outdegree(v) == 4 for v in g.vertices if v != "sink")
    assert g.sinks == ("sink",)
    # Corner sheds two chips per firing to the sink.
    assert ("r0c0", "sink", 2) in g.edges


def test_make_grid_1x1():
    g = make_grid(GridSpec(1, 1, "closed"))
    assert g.vertices == ("r0c0",) and g.outdegree("r0c0") == 0
    g2 = make_grid(GridSpec(1, 1, "open"))
    assert g2.outdegree("r0c0") == 4


def test_fire_center_closed_3x3():
    from monodyn.sandpile import fire

    spec = GridSpec(3, 3, "closed")
    g = make_grid(spec)
    after = fire(g, grid_config(spec, {(1, 1): 4}), "r1c1")
    counts = after.to_mapping(g)
    assert counts["r1c1"] == 0
    assert all(counts[n] == 1 for n in ("r0c1", "r2c1", "r1c0", "r1c2"))


def test_closed_3x3_worked_example():
    spec = GridSpec(3, 3, "closed")
    g = make_grid(spec)
    c = grid_config(spec, {(1, 1): 4, (0, 1): 2})
    config, _ = stabilize(g, c)
    final = config.to_mapping(g)
    expected = {name: 0 for name in g.vertices}
    for name in ("r1c1", "r1c0", "r1c2", "r2c1", "r0c0", "r0c2"):
        expected[name] = 1
    assert final == expected
    assert config.absorbed == 0  # closed mode conserves chips
    assert config.total() == 6


def test_fast_grid_matches_generic():
    rng = random.Random(4)
    for trial in range(24):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mode = rng.choice(("closed", "open"))
        if mode == "closed" and rows * cols == 1:
            continue
        spec = GridSpec(rows, cols, mode)
        g = make_grid(spec)
        # Closed-grid totals go up to sum(degree - 1) = 2E - V chips, but a
        # closed grid is sure to stabilize only below E chips, so a draw may
        # never settle: both stabilizers then run out of the same budget.
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        budget_total = sum(max(g.outdegree(spec.cell_name(r, c)) - 1, 0) for r, c in cells)
        placements = {}
        remaining = budget_total if mode == "closed" else 60
        for _ in range(rng.randint(0, 5)):
            if remaining <= 0:
                break
            n = rng.randint(1, max(1, remaining // 2))
            remaining -= n
            placements[rng.choice(cells)] = n
        c = grid_config(spec, placements)
        results = []
        for run in (lambda: stabilize_grid(spec, c, budget=10**5), lambda: stabilize(g, c, budget=10**5)):
            try:
                config, odo = run()
                results.append((config, config.absorbed, odo))
            except Stopped as err:
                results.append(err)
        fast, gen = results
        if isinstance(fast, Stopped) or isinstance(gen, Stopped):
            # The schedulers stop at different points (the grid before the
            # half-sweep that would overrun, the generic one at the budget), so
            # only the failure itself and chip conservation are shared.
            assert isinstance(fast, Stopped) and isinstance(gen, Stopped)
            for err in (fast, gen):
                assert err.config.total() + err.config.absorbed == c.total() + c.absorbed
        else:
            assert fast == gen


def test_fast_grid_matches_generic_15x15():
    spec = GridSpec(15, 15, "open")
    g = make_grid(spec)
    rng = random.Random(7)
    placements = {(rng.randint(0, 14), rng.randint(0, 14)): rng.randint(1, 40) for _ in range(8)}
    c = grid_config(spec, placements)
    fast = stabilize_grid(spec, c)
    gen = stabilize(g, c)
    assert fast[0] == gen[0] and fast[1] == gen[1]
    assert fast[0].absorbed == gen[0].absorbed


def assert_exact_and_conserved(spec, placements, budget):
    c = grid_config(spec, placements)
    assert c.total() + c.absorbed == sum(placements.values())
    fast_config, fast_odo = stabilize_grid(spec, c, budget=budget)
    gen_config, gen_odo = stabilize(make_grid(spec), c, budget=budget)
    assert fast_config.total() + fast_config.absorbed == sum(placements.values())
    assert fast_config == gen_config and fast_config.absorbed == gen_config.absorbed
    assert fast_odo == gen_odo


def test_open_grid_conserves_chips_beyond_int64():
    # 9 * 2**62 chips do not fit in int64; sums over cells used to wrap.
    spec = GridSpec(3, 3, "open")
    placements = {(r, c): 2**62 for r in range(3) for c in range(3)}
    assert_exact_and_conserved(spec, placements, 10**30)


def test_placement_of_2_63_chips_is_exact():
    assert_exact_and_conserved(GridSpec(3, 3, "open"), {(1, 1): 2**63}, 10**30)
    # With the default budget the same drop is an honest budget failure.
    c = grid_config(GridSpec(3, 3, "open"), {(1, 1): 2**63})
    with pytest.raises(Stopped) as err:
        stabilize_grid(GridSpec(3, 3, "open"), c)
    assert err.value.config.total() + err.value.config.absorbed == 2**63


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    chips=st.lists(st.integers(0, 2**70), min_size=1, max_size=4),
    data=st.data(),
)
def test_open_grid_chip_conservation(rows, cols, chips, data):
    spec = GridSpec(rows, cols, "open")
    placements: dict[tuple[int, int], int] = {}
    for n in chips:
        cell = (data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
        placements[cell] = placements.get(cell, 0) + n
    assert_exact_and_conserved(spec, placements, 10**40)


def test_closed_grid_exact_under_huge_budget():
    # A budget beyond int64 switches the stabilizer to exact integers.
    spec = GridSpec(3, 4, "closed")
    assert_exact_and_conserved(spec, {(1, 1): 9, (2, 3): 4}, 10**30)


def test_closed_grid_budget_guard():
    spec = GridSpec(3, 3, "closed")
    # Max stable total is sum(deg - 1) = 15; 16 chips can never settle.
    c = grid_config(spec, {(1, 1): 16})
    with pytest.raises(Stopped):
        stabilize_grid(spec, c, budget=10_000)
    g = make_grid(spec)
    with pytest.raises(Stopped):
        stabilize(g, c, budget=10_000)


@pytest.mark.parametrize("budget", [0, 10, 999, 10**5])
def test_budget_failure_rules_of_both_stabilizers(budget):
    # 12 chips in the centre of a closed 3x3 grid (12 edges) never settle.
    # The generic stabilizer stops at exactly the budget; the grid stabilizer
    # keeps the state after the last whole half-sweep that fits in it.  The
    # start's only unstable cell is the centre, so at each cut the unstable
    # cells all have the colour of the next half-sweep.
    spec = GridSpec(3, 3, "closed")
    g = make_grid(spec)
    c = grid_config(spec, {(1, 1): 12})
    with pytest.raises(Stopped) as generic:
        stabilize(g, c, budget=budget)
    with pytest.raises(Stopped) as grid:
        stabilize_grid(spec, c, budget=budget)
    assert generic.value.work == budget == generic.value.odometer.total()
    partial = grid.value.config
    next_half_sweep = sum(n // g.outdegree(v) for v, n in partial.to_mapping(g).items())
    assert grid.value.work == grid.value.odometer.total() <= budget < grid.value.work + next_half_sweep
    for err in (generic.value, grid.value):
        assert err.config.total() + err.config.absorbed == 12


def test_render_zero_2x2():
    spec = GridSpec(2, 2, "closed")
    img = render_ppm(spec, grid_config(spec, {}))
    w, h, pixels = decode_ppm(img)
    assert (w, h) == (2, 2)
    assert (pixels == np.array(DEFAULT_PALETTE.colors[0], dtype=np.uint8)).all()


def test_render_worked_3x3_pixels():
    spec = GridSpec(3, 3, "closed")
    g = make_grid(spec)
    config, _ = stabilize(g, grid_config(spec, {(1, 1): 4, (0, 1): 2}))
    _, _, pixels = decode_ppm(render_ppm(spec, config))
    color0 = np.array(DEFAULT_PALETTE.colors[0], dtype=np.uint8)
    color1 = np.array(DEFAULT_PALETTE.colors[1], dtype=np.uint8)
    ones = (pixels == color1).all(axis=2).sum()
    zeros = (pixels == color0).all(axis=2).sum()
    assert ones == 6 and zeros == 3


def test_render_clamps_high_counts():
    spec = GridSpec(1, 2, "open")
    c = array_to_config(spec, np.array([[0, 9]]))
    _, _, pixels = decode_ppm(render_ppm(spec, c))
    assert tuple(pixels[0, 1]) == DEFAULT_PALETTE.colors[3]


@pytest.mark.parametrize(
    "size, payload",
    [(b"x y", 18), (b"3", 9), (b"1 2 3", 6), (b"-1 -3", 9)],
    ids=["text", "one", "three", "negative"],
)
def test_decode_ppm_refuses_a_bad_size_line(size, payload):
    # The negative size's payload has the length width * height * 3 asks
    # for, so only the size check can refuse it.
    with pytest.raises(ParseError):
        decode_ppm(b"P6\n" + size + b"\n255\n" + bytes(payload))


def test_palette_parse_and_validate():
    p = parse_palette("0,0,0;10,10,10;20,20,20;30,30,30")
    assert p.colors[2] == (20, 20, 20)
    with pytest.raises(ParseError):
        parse_palette("0,0,0;1,1,1")
    with pytest.raises(ParseError):
        Palette(((0, 0, 300), (0, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_center_drop_symmetry_small():
    spec = GridSpec(31, 31, "open")
    c = grid_config(spec, {(15, 15): 500})
    config, _ = stabilize_grid(spec, c)
    arr = config_to_array(spec, config)
    assert (arr == np.rot90(arr)).all()
    assert (arr == np.flipud(arr)).all()
    assert (arr == np.fliplr(arr)).all()


def test_grid_config_bounds():
    spec = GridSpec(2, 2, "closed")
    with pytest.raises(Exception):
        grid_config(spec, {(5, 5): 1})


@pytest.mark.parametrize(
    "spec, placements, error",
    [
        (GridSpec(2, 3, "open"), {(0, 3): 1}, ShapeError),
        (GridSpec(2, 3, "open"), {(2, 0): 1}, ShapeError),
        (GridSpec(2, 3, "closed"), {(-1, 0): 1}, ShapeError),
        (GridSpec(2, 3, "closed"), {(1, 2): -1}, ParseError),
        (GridSpec(2, 3, "open"), {(0, 0): 1, (1, -1): 0}, ShapeError),
    ],
)
def test_grid_config_refuses_bad_placements(spec, placements, error):
    with pytest.raises(error):
        grid_config(spec, placements)


def test_grid_config_sums_row_major():
    spec = GridSpec(2, 3, "open")
    c = grid_config(spec, {(0, 0): 1, (1, 2): 2**70, (0, 2): 5})
    assert c.counts == (1, 0, 5, 0, 0, 2**70) and c.absorbed == 0
    # A 1x1 closed grid is a lone sink: its chips count as absorbed.
    lone = grid_config(GridSpec(1, 1, "closed"), {(0, 0): 7})
    assert lone.counts == () and lone.absorbed == 7


def test_grid_cell_limit():
    GridSpec(401, 401, "open")
    GridSpec(1, MAX_GRID_CELLS, "closed")
    GridSpec(1024, 1024, "open")
    for rows, cols in ((1, MAX_GRID_CELLS + 1), (1025, 1024), (3, 10**20), (10**20, 10**20)):
        with pytest.raises(ShapeError, match=f"MAX_GRID_CELLS = {MAX_GRID_CELLS}"):
            GridSpec(rows, cols, "open")


# --- stabilize_grid kernel: dtypes, active window, budget failures ----------

DTYPE_EDGES = (2**15, 2**31, 2**63)  # first totals that int16 / int32 / int64 cannot hold


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    mode=st.sampled_from(("open", "closed")),
    edge=st.sampled_from(DTYPE_EDGES),
    offset=st.integers(-2, 2),
    budget_edge=st.sampled_from(DTYPE_EDGES + (10**40,)),
    budget_offset=st.integers(-1, 0),
    data=st.data(),
)
def test_grid_matches_generic_at_every_dtype(rows, cols, mode, edge, offset, budget_edge, budget_offset, data):
    # Open grids hold chip totals next to each dtype's edge.  Closed grids
    # stabilize only with fewer chips than edges, so there the budget takes
    # the odometer across the edges.
    spec = GridSpec(rows, cols, mode)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    if mode == "closed":
        total = data.draw(st.integers(0, max(0, 2 * rows * cols - rows - cols - 1)))
    else:
        total = edge + offset
    placements: dict[tuple[int, int], int] = {}
    drops = data.draw(st.integers(1, 3))
    for i in range(drops):
        n = total if i == drops - 1 else data.draw(st.integers(0, total))
        cell = data.draw(st.sampled_from(cells))
        placements[cell] = placements.get(cell, 0) + n
        total -= n
    c = grid_config(spec, placements)
    budget = budget_edge + budget_offset
    # The generic stabilizer runs unbudgeted, so a grid budget failure can be
    # checked against the full odometer.
    generic_config, generic_odo = stabilize(make_grid(spec), c, budget=10**40)
    try:
        fast = stabilize_grid(spec, c, budget=budget)
    except Stopped:
        assert generic_odo.total() > budget
    else:
        assert fast == (generic_config, generic_odo) and generic_odo.total() <= budget


@pytest.mark.parametrize(
    "spec, placements",
    [
        (GridSpec(40, 40, "open"), {(3, 35): 2000}),
        (GridSpec(40, 40, "open"), {(5, 6): 1500, (33, 30): 1200}),
        (GridSpec(37, 23, "open"), {(0, 0): 900, (36, 22): 700, (18, 0): 300}),
        (GridSpec(30, 30, "closed"), {(4, 25): 1500}),
        (GridSpec(30, 30, "closed"), {(2, 2): 600, (27, 26): 600}),
    ],
)
def test_active_window_matches_generic(spec, placements):
    # Off-centre drops and drops far apart: the active windows cover only
    # part of the grid, and then grow and merge.
    c = grid_config(spec, placements)
    assert stabilize_grid(spec, c) == stabilize(make_grid(spec), c)


@pytest.mark.parametrize(
    "rows, cols, mode, chips, budget, expected",
    [
        # The README's drop: B(201) = 1.143 keeps 2^14 chips' odometer in int16.
        (201, 201, "open", 2**14, 10**9, (np.int16, np.int16)),
        (201, 201, "open", 2**15 - 1, 10**9, (np.int16, np.int32)),
        (201, 201, "open", 2**15, 10**9, (np.int32, np.int32)),
        (3, 3, "open", 5000, 10**9, (np.int16, np.int16)),
        (3, 3, "open", 2**31, 10**40, (np.int64, np.int64)),
        (101, 101, "open", 2**31, 10**40, (np.int64, np.int64)),
        # B(11) = 0.677: 2^60 chips fire each cell fewer than 2^63 times.
        (11, 11, "open", 2**60, 10**40, (np.int64, np.int64)),
        # Never an odometer narrower than the counts.
        (11, 11, "open", 2**60, 10**6, (np.int64, np.int64)),
        (3, 3, "open", 2**63, 10, (object, object)),
        (9, 9, "closed", 10, 10**9, (np.int16, np.int32)),
        (9, 9, "closed", 10, 2**15 - 1, (np.int16, np.int16)),
        (9, 9, "closed", 10, 2**31, (np.int16, np.int64)),
        (9, 9, "closed", 10, 2**63, (object, object)),
        (9, 9, "closed", 2**40, 10, (np.int64, np.int64)),
        (9, 9, "closed", 2**15, 2**15 - 1, (np.int32, np.int32)),
    ],
)
def test_stabilizer_dtype_choice(rows, cols, mode, chips, budget, expected):
    spec = GridSpec(rows, cols, mode)
    assert _stabilizer_dtype(spec, grid_config(spec, {(1, 1): chips}), budget) == expected


def green_diagonal_max(rows: int, cols: int) -> Fraction:
    """The largest diagonal entry of G = (4I - A)^-1 on an open rows x cols
    grid, exactly.  Banded LDL^T of 4I - A with the band as wide as the
    shorter side, then G(x, x) = sum over k >= x of (L^-1)[k, x]^2 / D[k].
    By the grid's reflections only the cells of one quadrant are needed,
    the one whose columns of L^-1 are shortest."""
    rows, cols = max(rows, cols), min(rows, cols)
    n, w = rows * cols, cols

    def laplacian(i, j):
        if i == j:
            return 4
        return -1 if j == i - w or (j == i - 1 and i % w) else 0

    lower = [{} for _ in range(n)]  # lower[i][j] for i - w <= j < i
    pivots = []
    for i in range(n):
        for j in range(max(0, i - w), i):
            inner = sum(lower[i][k] * lower[j][k] * pivots[k] for k in range(max(0, j - w), j) if k in lower[i])
            lower[i][j] = (laplacian(i, j) - inner) / pivots[j]
        pivots.append(Fraction(4) - sum(v * v * pivots[k] for k, v in lower[i].items()))
    best = Fraction(0)
    for x in (r * w + c for r in range(rows // 2, rows) for c in range(w // 2, w)):
        column = {x: Fraction(1)}
        green = 1 / pivots[x]
        for k in range(x + 1, n):
            column[k] = -sum(lower[k][j] * column[j] for j in range(max(x, k - w), k))
            green += column[k] ** 2 / pivots[k]
        best = max(best, green)
    return best


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 12))
def test_strip_green_bounds_the_grids_green_function(rows, cols):
    # The float bound against the exact diagonal of the grid's inverse
    # Laplacian; sympy agrees with the factorization on small grids.
    assert Fraction(_strip_green(min(rows, cols))) >= green_diagonal_max(rows, cols)


def test_green_diagonal_matches_sympy():
    import sympy

    for rows, cols in ((1, 1), (1, 3), (2, 2), (3, 2), (3, 3)):
        n = rows * cols
        lap = sympy.zeros(n, n)
        for r in range(rows):
            for c in range(cols):
                lap[r * cols + c, r * cols + c] = 4
                for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                    if 0 <= rr < rows and 0 <= cc < cols:
                        lap[r * cols + c, rr * cols + cc] = -1
        inverse = lap.inv()
        assert max(inverse[i, i] for i in range(n)) == green_diagonal_max(rows, cols)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 16),
    cols=st.integers(1, 16),
    drops=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 3000)), min_size=1, max_size=4),
)
def test_open_odometer_stays_within_its_bound(rows, cols, drops):
    spec = GridSpec(rows, cols, "open")
    placements: dict[tuple[int, int], int] = {}
    for r, c, n in drops:
        placements[(r % rows, c % cols)] = placements.get((r % rows, c % cols), 0) + n
    start = grid_config(spec, placements)
    _, odometer = stabilize_grid(spec, start)
    assert max(odometer.firings) <= _odometer_bound(spec, start.total(), 10**40)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
def test_int16_edge_matches_generic(m):
    # The most chips whose counts and odometer bound both fit int16, dropped
    # on the centre of an open m x (m + 3) grid, where the odometer peaks.
    spec = GridSpec(m, m + 3, "open")
    lo, hi = 0, INT16_MAX
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _odometer_bound(spec, mid, 10**9) <= INT16_MAX else (lo, mid - 1)
    edge = lo
    start = grid_config(spec, {(m // 2, (m + 3) // 2): edge})
    assert _stabilizer_dtype(spec, start, 10**9) == (np.int16, np.int16)
    over = grid_config(spec, {(m // 2, (m + 3) // 2): edge + 1})
    assert _stabilizer_dtype(spec, over, 10**9) != (np.int16, np.int16)
    assert stabilize_grid(spec, start) == stabilize(make_grid(spec), start)


@pytest.mark.parametrize(
    "spec, placements, budget",
    [
        (GridSpec(21, 21, "open"), {(10, 10): 2000}, 5000),
        # A budget above a window's worth of chips: totals are skipped at first.
        (GridSpec(21, 21, "open"), {(10, 10): 2000}, 40000),
        (GridSpec(21, 17, "open"), {(2, 3): 3000, (18, 14): 800}, 12345),
        (GridSpec(5, 5, "open"), {(2, 2): 2**70}, 10**6),
        (GridSpec(6, 6, "closed"), {(1, 1): 80}, 1000),
        (GridSpec(4, 5, "closed"), {(1, 1): 2**40, (3, 4): 7}, 10**5),
        (GridSpec(4, 4, "closed"), {(0, 3): 2**70}, 10**5),
        (GridSpec(30, 30, "closed"), {(3, 3): 2000}, 4000),
        # At the edge of int16 on a 1-wide closed grid.
        (GridSpec(1, 5, "closed"), {(0, 2): 2**15 - 2}, 10**4),
    ],
)
def test_budget_failure_partial_state_obeys_odometer(spec, placements, budget):
    start = grid_config(spec, placements)
    with pytest.raises(Stopped) as err:
        stabilize_grid(spec, start, budget=budget)
    assert_partial_state_obeys_odometer(spec, start, budget, err.value)
    assert budget < err.value.work + next_half_sweep_firings(spec, err.value.config)


def grid_thresholds(spec):
    """(degree, threshold) arrays of the grid's cells as exact integers: the
    grid degree, and the firing threshold, which is 4 on an open grid."""
    degree = np.full((spec.rows, spec.cols), 4, dtype=object)
    degree[0, :] -= 1
    degree[-1, :] -= 1
    degree[:, 0] -= 1
    degree[:, -1] -= 1
    return degree, degree if spec.mode == "closed" else np.full_like(degree, 4)


def neighbour_sum(a):
    """Each cell's sum of ``a`` over its grid neighbours."""
    total = np.zeros_like(a)
    total[:-1, :] += a[1:, :]
    total[1:, :] += a[:-1, :]
    total[:, :-1] += a[:, 1:]
    total[:, 1:] += a[:, :-1]
    return total


def assert_partial_state_obeys_odometer(spec, start, budget, err):
    """The partial state of a budget failure is the start fired by its
    odometer, which holds ``fired`` firings, at most the budget."""
    partial, odometer, fired = err.config, err.odometer, err.work
    assert fired == odometer.total() <= budget
    odo = np.array(odometer.firings, dtype=object).reshape(spec.rows, spec.cols)
    degree, thresh = grid_thresholds(spec)
    expected = config_to_array(spec, start, object) - thresh * odo + neighbour_sum(odo)
    assert (config_to_array(spec, partial, object) == expected).all()
    shed = int(((thresh - degree) * odo).sum())
    assert partial.absorbed == start.absorbed + shed


def colour_unstable(spec, counts, colour):
    """Whether a cell of ``colour`` (the parity of row + column) is unstable."""
    _, thresh = grid_thresholds(spec)
    rows, cols = np.indices(counts.shape)
    return bool(((counts >= thresh) & ((rows + cols) % 2 == colour)).any())


def next_half_sweep_firings(spec, partial):
    """The firings of the half-sweep after a budget cut at ``partial``.  The
    first half-sweep has the colour of cell (0, 0) when that colour holds
    unstable cells, and after any half-sweep only the other colour holds
    them, so the next half-sweep has cell (0, 0)'s colour, 0, if that colour
    holds unstable cells, and colour 1 if not."""
    counts = config_to_array(spec, partial, object)
    _, thresh = grid_thresholds(spec)
    colour = 0 if colour_unstable(spec, counts, 0) else 1
    rows, cols = np.indices(counts.shape)
    return int((counts // thresh)[(rows + cols) % 2 == colour].sum())


def jacobi_reference(spec, start, budget):
    """Whole-grid Jacobi sweeps, each toppling every unstable cell
    floor(count / threshold) times at once, stopped before the sweep that
    would pass the budget: (counts, odometer, fired) of the cut, or None
    when the pile stabilizes within the budget."""
    counts = config_to_array(spec, start, object)
    _, thresh = grid_thresholds(spec)
    odo = np.zeros_like(counts)
    fired = 0
    while True:
        topple = counts // thresh
        total = int(topple.sum())
        if total == 0:
            return None
        if fired + total > budget:
            return counts, odo, fired
        counts = counts - thresh * topple + neighbour_sum(topple)
        odo = odo + topple
        fired += total


@st.composite
def budget_cut_piles(draw):
    """A grid up to 12x12 (not a lone sink), a pile of up to 4 drops, at
    times on cells of one colour only, and a budget that often cuts the run
    short."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    spec = GridSpec(rows, cols, "open" if rows * cols == 1 else draw(st.sampled_from(("open", "closed"))))
    cells = [(r, c) for r in range(spec.rows) for c in range(spec.cols)]
    if draw(st.booleans()):
        colour = draw(st.integers(0, 1))
        cells = [cell for cell in cells if sum(cell) % 2 == colour] or cells
    placements: dict[tuple[int, int], int] = {}
    for _ in range(draw(st.integers(1, 4))):
        cell = draw(st.sampled_from(cells))
        placements[cell] = placements.get(cell, 0) + draw(st.integers(0, 600))
    return spec, placements, draw(st.integers(0, 3000))


@settings(max_examples=150, deadline=None)
@given(pile=budget_cut_piles())
def test_half_sweep_budget_rule(pile):
    # A cut keeps the state after the last whole half-sweep that fits in the
    # budget.  When the start's unstable cells all have one colour, whole-grid
    # Jacobi sweeps topple one colour at a time, alternately, so the cut is
    # also the one Jacobi sweeps give.
    spec, placements, budget = pile
    start = grid_config(spec, placements)
    try:
        stabilize_grid(spec, start, budget=budget)
    except Stopped as err:
        assert_partial_state_obeys_odometer(spec, start, budget, err)
        assert budget < err.work + next_half_sweep_firings(spec, err.config)
        counts = config_to_array(spec, start, object)
        if not (colour_unstable(spec, counts, 0) and colour_unstable(spec, counts, 1)):
            jacobi_counts, jacobi_odo, jacobi_fired = jacobi_reference(spec, start, budget)
            assert err.work == jacobi_fired
            assert err.config.counts == tuple(jacobi_counts.reshape(-1).tolist())
            assert err.odometer.firings == tuple(jacobi_odo.reshape(-1).tolist())
    else:
        assert jacobi_reference(spec, start, budget) is None


def grid_outcome(spec, placements, budget):
    """(stabilized, counts, absorbed, odometer, fired) of ``stabilize_grid``,
    counts and odometer as rows x cols arrays, the partial state when the
    budget runs out."""
    start = grid_config(spec, placements)
    try:
        config, odometer = stabilize_grid(spec, start, budget=budget)
        stabilized, fired = True, odometer.total()
    except Stopped as err:
        config, odometer, stabilized, fired = err.config, err.odometer, False, err.work
    odo = np.array(odometer.firings, dtype=object).reshape(spec.rows, spec.cols)
    return stabilized, config_to_array(spec, config, object), config.absorbed, odo, fired


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    mode=st.sampled_from(("open", "closed")),
    drops=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(0, 700)), min_size=1, max_size=4),
    budget=st.integers(0, 20000),
)
def test_transposed_pile_gives_transposed_result(rows, cols, mode, drops, budget):
    # Odd and even widths give the one- and two-ring-column layouts, and a
    # transpose swaps them.  Transposing keeps each cell's colour, so even a
    # budget cut transposes.
    if mode == "closed" and rows * cols == 1:
        return
    placements: dict[tuple[int, int], int] = {}
    for r, c, n in drops:
        placements[(r % rows, c % cols)] = placements.get((r % rows, c % cols), 0) + n
    transposed = {(c, r): n for (r, c), n in placements.items()}
    stabilized, counts, absorbed, odo, fired = grid_outcome(GridSpec(rows, cols, mode), placements, budget)
    t_stabilized, t_counts, t_absorbed, t_odo, t_fired = grid_outcome(GridSpec(cols, rows, mode), transposed, budget)
    assert (stabilized, absorbed, fired) == (t_stabilized, t_absorbed, t_fired)
    assert (counts.T == t_counts).all() and (odo.T == t_odo).all()


@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(0, 19),
    mode=st.sampled_from(("open", "closed")),
    chips=st.integers(0, 3000),
    budget=st.sampled_from((10**5, 5000, 777)),
)
def test_centred_drop_has_the_squares_symmetries(half, mode, chips, budget):
    # The dihedral group of the square is generated by the transpose and a
    # reflection; both must fix the counts and the odometer, cut or not.
    side = 2 * half + 1
    if mode == "closed" and side == 1:
        return
    _, counts, _, odo, _ = grid_outcome(GridSpec(side, side, mode), {(half, half): chips}, budget)
    for a in (counts, odo):
        assert (a == a.T).all() and (a == a[::-1]).all()


def pile_digest(spec, placements):
    final, odometer = stabilize_grid(spec, grid_config(spec, placements))
    payload = json.dumps([list(final.counts), final.absorbed, list(odometer.firings)])
    return hashlib.sha256(payload.encode()).hexdigest()


def test_readme_drop_is_pinned():
    # The 201x201 open grid with 2^14 chips in the centre (the README's drop):
    # counts, absorbed chips and odometer as the whole-grid int64 sweeps gave.
    digest = pile_digest(GridSpec(201, 201, "open"), {(100, 100): 2**14})
    assert digest == "40d7d2d286834626c33682d7a44a80babebaca5dd89197a042f271f1fa85ca4e"


def test_loose_multi_drop_pile_is_pinned():
    spec = GridSpec(60, 60, "open")
    digest = pile_digest(spec, {(12, 17): 3000, (45, 40): 2500, (20, 50): 1234})
    assert digest == "4fad772cec8a0a05f35ef5e878611c1ffacec1975b9855e7821dc0e3c372f672"


def background_pile(rows, cols, seed, drop, chips):
    rng = random.Random(seed)
    placements = {(r, c): rng.randint(0, 3) for r in range(rows) for c in range(cols)}
    placements[drop] += chips
    return placements


@pytest.mark.parametrize(
    "spec, placements, digest",
    [
        (GridSpec(30, 30, "closed"), {(15, 15): 1500}, "aee64a62b33ce92e055fdf090aa0a527061140874716bd282fefe8b6edb94b8c"),
        (GridSpec(1, 40, "closed"), {(0, 7): 30}, "711df7cb3a4d7632cffb126a3861ac6965c1d9cb20a451dbe2a251efe20a8c7f"),
        (GridSpec(40, 1, "closed"), {(31, 0): 30}, "6057003b5d40d1b78639ea53cbf925daa5a88808f36025067e71dbbbef0a3502"),
        (GridSpec(2, 30, "closed"), {(1, 4): 50, (0, 22): 30}, "c580381e988d3ebc5369bdd63893eab53f1e06a1751436ca2800f919794d130e"),
        (
            GridSpec(48, 48, "closed"),
            background_pile(48, 48, 11, (20, 30), 500),
            "36f1215ebcf041057de8582d5e30c6c90b656345b5d69130898e4ba5a9f90337",
        ),
    ],
    ids=["30x30-drop", "1x40", "40x1", "2x30", "48x48-background"],
)
def test_closed_pile_is_pinned(spec, placements, digest):
    # Counts, absorbed chips and odometer as the floor(count / degree)
    # sweeps with a separate threshold array gave.
    assert pile_digest(spec, placements) == digest


def failure_digest(spec, placements, budget):
    with pytest.raises(Stopped) as err:
        stabilize_grid(spec, grid_config(spec, placements), budget=budget)
    partial, odometer = err.value.config, err.value.odometer
    payload = json.dumps([list(partial.counts), partial.absorbed, list(odometer.firings), err.value.work])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize(
    "spec, placements, budget, digest",
    [
        (GridSpec(21, 21, "open"), {(10, 10): 2000}, 5000, "e3796af7bc4d12345280fe3449e0468d8eb02a8355eb86eceecf5dad374a64af"),
        (GridSpec(21, 21, "open"), {(10, 10): 2000}, 40000, "ab3f815cea9ab1c61193f72d42079e6633b5808a1a19129151062cb3e854b7ad"),
        # Both drops start unstable and have different colours, so the cut
        # is a state of half-sweeps that Jacobi sweeps, which topple both
        # drops at once, never reach.
        (
            GridSpec(21, 17, "open"),
            {(2, 3): 3000, (18, 14): 800},
            12345,
            "4c42ba6f72d1cad7268290a0868aa3be45877dcc7724b82f61358d72f768d0b5",
        ),
        (GridSpec(5, 5, "open"), {(2, 2): 2**70}, 10**6, "ca1dcf7f183c7c552a386115171460585dd783d7a9554c73a8e185264fde2217"),
        (GridSpec(6, 6, "closed"), {(1, 1): 80}, 1000, "b1a0354e4bffb263c7c6e4cec989cb26089e42e9a35950f89a89b083f3431146"),
        # Both drops start unstable and have different colours, but the first
        # half-sweep, of cell (0, 0)'s colour, which (1, 1) has, already
        # passes the budget: the cut is the start, as under Jacobi sweeps.
        (
            GridSpec(4, 5, "closed"),
            {(1, 1): 2**40, (3, 4): 7},
            10**5,
            "127a155ca7c670c88d7401787ee8045b4b315920a36739f64e5ec383a5b8f7c1",
        ),
        (GridSpec(4, 4, "closed"), {(0, 3): 2**70}, 10**5, "c0c6828bdf127697cb3bcfba1c54f04c22ee6c64f5c8ce91049fdd4ec21eb476"),
        (GridSpec(30, 30, "closed"), {(3, 3): 2000}, 4000, "64fe918801e3fe8fa025953b54fd40fabb8abce5dde84747d7aee7fcb2968356"),
        (GridSpec(1, 5, "closed"), {(0, 2): 2**15 - 2}, 10**4, "cce66d157210e1cf15cbbc13da0ebcfa2a1afc27ce447e76a7903b6d70e9c775"),
        # Fewer chips than edges, so the game ends, but past the budget; edge
        # cells come to hold at least twice their degree before it runs out.
        (GridSpec(30, 30, "closed"), {(0, 10): 1500}, 20000, "882886c0d54eff6f759dc0e047796bd212e6d40e0bd2b2fefa3a0c68c1c9d8d8"),
        (GridSpec(1, 40, "closed"), {(0, 0): 30}, 50, "bb5d531ce5e396b2a4cfbb0d20d5614df996be5ab4d20276824fcb02110f5ffb"),
        (GridSpec(12, 1, "closed"), {(11, 0): 10}, 20, "316050ff837846706f77d4350d58d8d80a4b6ac1232c7a7e66f04260e81eaf94"),
    ],
)
def test_budget_failure_is_pinned(spec, placements, budget, digest):
    # The partial configuration, odometer and firings of each failure as the
    # floor(count / threshold) sweeps gave, closed edge cells included; all
    # but the 21x17 pile start with unstable cells of one colour, or are cut
    # before their first half-sweep, so half-sweeps keep those cuts.
    assert failure_digest(spec, placements, budget) == digest


# --- cell names and images without a graph or numpy --------------------------


def reference_render(spec, c, palette=DEFAULT_PALETTE):
    """The numpy render that ``render_ppm`` replaced: a palette lookup on the
    counts clamped to 3."""
    arr = config_to_array(spec, c)
    pixels = np.array(palette.colors, dtype=np.uint8)[np.minimum(arr, 3).astype(np.intp)]
    return f"P6\n{spec.cols} {spec.rows}\n255\n".encode("ascii") + pixels.tobytes()


def parse_outcome(g, text):
    """(config, absorbed, saved text) of ``parse_config`` on ``g``, or the
    ParseError's message and line."""
    try:
        c = parse_config(g, text)
    except ParseError as err:
        return ("error", str(err), err.line)
    return (c, c.absorbed, serialize_config(g, c))


# Open and closed grids, the 1x1 grids (a lone sink when closed) and single
# rows and columns.
GRID_SPECS = st.builds(
    GridSpec,
    st.one_of(st.integers(1, 4), st.just(1), st.integers(5, 9)),
    st.one_of(st.integers(1, 4), st.just(1), st.integers(5, 9)),
    st.sampled_from(("closed", "open")),
)


@st.composite
def config_texts(draw, spec):
    """Config files over the spec's cells, mostly valid lines, with
    comments, blank lines, repeated cells, unknown names, ``sink`` lines,
    negative and non-integer counts and lines of the wrong length."""
    cells = st.sampled_from([f"r{r}c{c}" for r in range(spec.rows) for c in range(spec.cols)])
    odd_names = st.sampled_from(
        ("sink", f"r{spec.rows}c0", f"r0c{spec.cols}", "r-1c0", "nowhere", "R0C0", "r00c0", "r0c01", "r+0c0", "r\u0660c0")
    )
    odd_counts = st.one_of(st.integers(-5, -1).map(str), st.sampled_from(("x", "1.5", "+2", "0x10", "1_000")))
    valid = st.tuples(cells, st.one_of(st.integers(0, 3), st.integers(0, 2**70)))
    good = st.one_of(
        valid.map(lambda t: f"{t[0]} {t[1]}"),
        valid.map(lambda t: f"  {t[0]}\t{t[1]}  # chips"),
        st.sampled_from(("", "# comment", "   ", "#r0c0 5")),
    )
    bad = st.one_of(
        st.tuples(odd_names, st.integers(0, 3)).map(lambda t: f"{t[0]} {t[1]}"),
        st.tuples(cells, odd_counts).map(lambda t: f"{t[0]} {t[1]}"),
        st.sampled_from(("r0c0", "r0c0 1 2")),
    )
    # One line in ten is malformed, so about half the files parse.
    lines = [draw(bad if draw(st.integers(0, 9)) == 0 else good) for _ in range(draw(st.integers(0, 8)))]
    return "\n".join(lines)


def test_grid_vertices_name_the_grids_graph():
    for spec in (GridSpec(1, 1, "closed"), GridSpec(1, 1, "open"), GridSpec(1, 5, "closed"), GridSpec(4, 1, "open"), GridSpec(3, 4, "closed")):
        g, cells = make_grid(spec), GridVertices(spec)
        assert tuple(cells.nonsink_vertices) == g.nonsink_vertices
        assert [cells.nonsink_position(v) for v in g.vertices] == [g.nonsink_position(v) for v in g.vertices]
        for name in ("sink", f"r{spec.rows}c0", "r00c0", "r0c01", "r+0c0", "r\u0660c0", "r0c0 ", "nowhere"):
            if name not in g.index:
                with pytest.raises(KeyError):
                    cells.nonsink_position(name)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), spec=GRID_SPECS)
def test_grid_vertices_parse_and_save_like_the_grids_graph(data, spec):
    text = data.draw(config_texts(spec))
    assert parse_outcome(GridVertices(spec), text) == parse_outcome(make_grid(spec), text)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    spec=GRID_SPECS,
    counts=st.sampled_from(((0, 3), (4, 255), (256, 2**70))),
    palette=st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=4, max_size=4).map(lambda cs: Palette(tuple(cs))),
)
def test_render_matches_the_numpy_render(data, spec, counts, palette):
    cells = 0 if spec.mode == "closed" and spec.rows * spec.cols == 1 else spec.rows * spec.cols
    low, high = counts
    # Mostly small counts, as after stabilizing, with some from the range.
    values = st.one_of(st.integers(0, 3), st.integers(low, high))
    c = ChipConfig(tuple(data.draw(st.lists(values, min_size=cells, max_size=cells))), data.draw(st.integers(0, 9)))
    assert render_ppm(spec, c, palette) == reference_render(spec, c, palette)
    wrong = ChipConfig(tuple(data.draw(st.lists(values, max_size=40).filter(lambda v: len(v) != cells))))
    with pytest.raises(ShapeError) as new:
        render_ppm(spec, wrong, palette)
    with pytest.raises(ShapeError) as old:
        reference_render(spec, wrong, palette)
    assert str(new.value) == str(old.value)


def test_render_lone_sink_is_one_pixel_of_color_0():
    spec = GridSpec(1, 1, "closed")
    c = grid_config(spec, {(0, 0): 300})
    assert render_ppm(spec, c) == reference_render(spec, c) == b"P6\n1 1\n255\n" + bytes(DEFAULT_PALETTE.colors[0])
