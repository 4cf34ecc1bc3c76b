"""Grid sandpile models and image rendering.

Closed mode encodes the undirected grid as a directed graph with reciprocal
edges, so the firing threshold of a cell is its grid degree and chips are
conserved.  Open mode adds one explicit sink absorbing each boundary cell's
missing neighbors, which makes every cell's threshold exactly 4.

``stabilize_grid`` is a flat-array stabilizer by red-black half-sweeps (the
red-black ordering of Saad, *Iterative Methods for Sparse Linear Systems*,
2003, section 4.1): a grid is bipartite, so the cells of one colour of its
checkerboard are never neighbours, and a half-sweep topples every unstable
cell of one colour in bulk.  By order independence its final configuration and odometer are
identical to the generic graph stabilizer's, which the test suite checks
cell for cell.  One kernel serves both modes: each half-sweep takes the
topplings by a shift, as if every degree were 4, redoes them on a closed
grid's edge cells by dividing each grid edge by its degrees, takes the shed
chips off the counts, and adds the topplings to the odometer and to the four
neighbours.  The counts sit in a padded array of odd width with a ring
around the grid, so a cell's colour is the parity of its flat index, and
each colour is kept in its own half-size array; the top and bottom ring rows
are written and never read.  A half-sweep is 8 array calls on an open grid
and at most 13 on a closed one.  The firings are summed only once the
half-sweeps done and the next few could pass the firing budget, since a
half-sweep fires at most once per chip.
The arrays use the narrowest integer type that provably cannot overflow,
and each half-sweep covers only the band of rows around the unstable cells.

On an open grid the odometer is bounded cell by cell.  With Delta = 4I - A
the grid's reduced Laplacian (A the cells' adjacency), a stable end f of a
start s has odometer u = G(s - f) <= G s, where G = Delta^-1 >= 0 is the
Green's function of the random walk killed on leaving the grid, divided by
4.  Since G(x, y) = P_x(the walk hits y) G(y, y) <= G(y, y), every entry of
u is at most chips * max_y G(y, y).  By domain monotonicity G(y, y) grows
with the domain, and the grid lies in a strip of width m, its shorter side,
which lies in the strip of width 2m - 1 centred on y; so G(y, y) is at most
``_strip_green(m)``, the Green's function at the centre of the infinite
strip of width 2m - 1, an O(m) sum of its Fourier modes (Lawler-Limic,
*Random Walk: A Modern Introduction*, 2010).  By the least action principle
(Fey-Levine-Peres, "Growth rates and explosions in sandpiles", 2010) no
legal firing sequence, a run of half-sweeps cut by the budget among them,
fires a cell more often than stabilization does.  With B(105) = 1.036, a 2^14
drop keeps its odometer in int16 like its counts.

Images are binary PPM (P6), one pixel per cell, built from the counts by
``bytes.translate``.

Saved configurations and images name the cells with ``GridVertices``, the
vertex names of ``make_grid`` without its edges, so neither builds a graph
or a name per cell.
Only the stabilizer and ``config_to_array``/``decode_ppm`` use numpy, which
they import when they run, so importing this module loads neither numpy nor
the graph module.  A grid has at most ``MAX_GRID_CELLS`` cells;
``GridSpec`` refuses a larger one before any array or graph is built.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .config import DEFAULT_BOUNDS
from .errors import BudgetExceededError, Frozen, ParseError, ShapeError, integer
from .sandpile import ChipConfig, Odometer

if TYPE_CHECKING:
    import numpy as np

    from .graph import Graph

CLOSED = "closed"
OPEN = "open"
SINK = "sink"

INT16_MAX = 2**15 - 1
INT32_MAX = 2**31 - 1
INT64_MAX = 2**63 - 1

# The stabilizer recomputes its band of active rows every _WINDOW half-sweeps
# and keeps a margin of at least _WINDOW rows around the unstable cells.
# Instability spreads at most one cell per half-sweep, so no cell outside the
# band can topple before the next recomputation.  A recomputation that moves
# the band makes the views of both colours, so windows of 16 half-sweeps
# cost less than windows of 8.
_WINDOW = 16

# The most cells a grid may have, a 1024 x 1024 grid.  Arrays, images and
# cell names grow with the cell count, so a size beyond this is refused up
# front rather than failing or running on.
MAX_GRID_CELLS = 1 << 20


class GridSpec(Frozen):
    __slots__ = ("rows", "cols", "mode")

    def __init__(self, rows: int, cols: int, mode: str = CLOSED):
        if rows < 1 or cols < 1:
            raise ShapeError("grid dimensions must be positive")
        if rows * cols > MAX_GRID_CELLS:
            raise ShapeError(
                f"a {rows}x{cols} grid exceeds the limit of MAX_GRID_CELLS = {MAX_GRID_CELLS} cells"
            )
        if mode not in (CLOSED, OPEN):
            raise ParseError(f"grid mode must be 'closed' or 'open', got {mode!r}")
        super().__init__(rows, cols, mode)

    def cell_name(self, r: int, c: int) -> str:
        return f"r{r}c{c}"

    def cells(self):
        for r in range(self.rows):
            for c in range(self.cols):
                yield r, c

    def neighbors(self, r: int, c: int):
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < self.rows and 0 <= cc < self.cols:
                yield rr, cc


def make_grid(spec: GridSpec) -> Graph:
    from .graph import Graph

    names = [spec.cell_name(r, c) for r, c in spec.cells()]
    edges: list[tuple[str, str, int]] = []
    for r, c in spec.cells():
        src = spec.cell_name(r, c)
        degree = 0
        for rr, cc in spec.neighbors(r, c):
            edges.append((src, spec.cell_name(rr, cc), 1))
            degree += 1
        if spec.mode == OPEN and degree < 4:
            edges.append((src, SINK, 4 - degree))
    if spec.mode == OPEN:
        names.append(SINK)
    return Graph.build(names, edges)


class _CellNames:
    """The names ``r{r}c{c}`` of ``rows`` x ``cols`` cells, row-major, as a
    sequence whose items are made when they are read."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int):
        self.rows, self.cols = rows, cols

    def __len__(self) -> int:
        return self.rows * self.cols

    def __getitem__(self, i: int) -> str:
        if not 0 <= i < self.rows * self.cols:
            raise IndexError(i)
        r, c = divmod(i, self.cols)
        return f"r{r}c{c}"


class GridVertices:
    """The vertices of ``make_grid(spec)`` without its edges: the cells
    row-major as ``r{r}c{c}``, then ``sink`` on an open grid.  On a 1x1
    closed grid the lone cell is a sink.  It holds what
    ``sandpile.parse_config`` and ``serialize_config`` read of a graph,
    ``nonsink_vertices`` and ``nonsink_position``, and keeps no name per
    cell: a name is made when it is read, and a position is read off the
    name."""

    __slots__ = ("spec", "nonsink_vertices")

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.nonsink_vertices = _CellNames(0 if _lone_sink(spec) else spec.rows, spec.cols)

    def nonsink_position(self, v: str) -> int | None:
        """As ``Graph.nonsink_position``.  A cell's name is ``r``, its row,
        ``c`` and its column, both in canonical decimals as ``make_grid``
        writes them."""
        spec = self.spec
        row, sep, col = v[1:].partition("c")
        if not (v[:1] == "r" and sep and _canonical_decimal(row) and _canonical_decimal(col)):
            if v == SINK and spec.mode == OPEN:
                return None
            raise KeyError(v)
        if len(row) > len(str(spec.rows)) or len(col) > len(str(spec.cols)):
            raise KeyError(v)  # no cell, and may be past int()'s digit limit
        r, c = int(row), int(col)
        if r >= spec.rows or c >= spec.cols:
            raise KeyError(v)
        return None if _lone_sink(spec) else r * spec.cols + c


def _canonical_decimal(text: str) -> bool:
    """Whether ``text`` is ``str(n)`` for an integer n >= 0: ASCII digits
    without a leading zero."""
    return text.isascii() and text.isdigit() and (text[0] != "0" or text == "0")


def grid_config(spec: GridSpec, placements: dict[tuple[int, int], int]) -> ChipConfig:
    """Configuration from (row, col) -> chips placements, summed exactly."""
    counts = [0] * (spec.rows * spec.cols)
    for (r, c), n in placements.items():
        if not (0 <= r < spec.rows and 0 <= c < spec.cols):
            raise ShapeError(f"placement ({r},{c}) outside {spec.rows}x{spec.cols} grid")
        if n < 0:
            raise ParseError("negative placement")
        counts[r * spec.cols + c] += n
    return _chip_config(spec, counts)


def _lone_sink(spec: GridSpec) -> bool:
    """A 1x1 closed grid is a lone sink: it carries no counts, and its chips
    count as absorbed."""
    return spec.mode == CLOSED and spec.rows * spec.cols == 1


def _chip_config(spec: GridSpec, counts: list[int], absorbed: int = 0) -> ChipConfig:
    """The configuration of row-major grid counts."""
    if _lone_sink(spec):
        return ChipConfig((), absorbed + counts[0])
    return ChipConfig(tuple(counts), absorbed)


def _count_cells(spec: GridSpec, c: ChipConfig) -> int:
    """How many counts the grid's configurations hold: none on a lone sink,
    else one per cell.  Refuses a configuration with another number."""
    expected = 0 if _lone_sink(spec) else spec.rows * spec.cols
    if len(c.counts) != expected:
        raise ShapeError(
            f"config has {len(c.counts)} counts, grid expects {expected}"
        )
    return expected


def config_to_array(spec: GridSpec, c: ChipConfig, dtype=None) -> np.ndarray:
    """Counts as a rows x cols array, all zeros on a lone sink.  The array
    is int64 unless ``dtype`` says otherwise or a count does not fit, in
    which case it holds exact Python integers (dtype object)."""
    import numpy as np

    expected = _count_cells(spec, c)
    if dtype is None:
        dtype = np.int64 if max(c.counts, default=0) <= INT64_MAX else object
    arr = np.zeros(spec.rows * spec.cols, dtype=dtype)
    if expected:
        arr[:] = np.asarray(c.counts, dtype=dtype)
    return arr.reshape(spec.rows, spec.cols)


def array_to_config(spec: GridSpec, arr: np.ndarray, absorbed: int = 0) -> ChipConfig:
    return _chip_config(spec, arr.reshape(-1).tolist(), int(absorbed))


def _narrowest_dtype(bound: int):
    import numpy as np

    for dtype, top in ((np.int16, INT16_MAX), (np.int32, INT32_MAX), (np.int64, INT64_MAX)):
        if bound <= top:
            return dtype
    return object


def _strip_green(m: int) -> float:
    """G(x, x) at the centre x of the infinite strip of width W = 2m - 1,
    for G = (4I - A)^-1 with the walk killed on leaving the strip.

    Across the strip the modes are sin(j pi k / (W + 1)), j = 1..W, with
    eigenvalue 2 cos(j pi / (W + 1)) of the vertical neighbour sum; along
    it, mode j leaves mu_j - (S + S^-1) with mu_j = 4 - 2 cos(j pi / (W + 1))
    and S the shift, whose Green's function at 0 is 1 / sqrt(mu_j^2 - 4).
    At the centre row k = m the even modes vanish and the odd ones have
    sin^2 = 1, so G(x, x) = (2 / (W + 1)) sum over odd j of
    1 / sqrt(mu_j^2 - 4).  With t = sin(j pi / (2 (W + 1))), mu_j - 2 = 4t^2
    and mu_j + 2 = 4(1 + t^2), which keeps the small modes exact in floats.
    """
    total = 0.0
    for j in range(1, 2 * m, 2):
        t = math.sin(j * math.pi / (4 * m))
        total += 1.0 / (t * math.sqrt(1.0 + t * t))
    return total / (4 * m)


def _stabilizer_dtype(spec: GridSpec, c: ChipConfig, budget: int):
    """(count dtype, odometer dtype) for ``stabilize_grid``: for each, the
    narrowest of int16, int32 and int64 that no value it holds can overflow,
    and never a narrower odometer than counts, which would only turn the
    odometer add into a casting one; or object (exact Python integers) for
    both when either needs it.

    Counts stay nonnegative, so every count and every sum over cells is at
    most the number of chips on the grid.  A ring-column cell holds at most
    one half-sweep's topplings of its grid neighbours (two of them when one
    ring column ends each row, one when two do), no more than the chips,
    since the stabilizer clears it after every half-sweep that reaches it;
    the top and bottom ring rows are never read, so they may wrap.

    Each odometer entry is at most the number of firings, which the budget
    caps.  On an open grid, it is also at most chips * B(m) for the shorter
    side m, with B = ``_strip_green``: the odometer u of stabilization is
    G(s - f) <= G s for G = (4I - A)^-1 >= 0, G(x, y) <= G(y, y), and by
    domain monotonicity G(y, y) is at most the Green's function at the
    centre of the strip of width 2m - 1, which holds the strip of width m
    that holds the grid, wherever y sits in it; by the least action
    principle a run of half-sweeps cut short fires no cell more than that
    (see the module docstring).  The factor 1 + 1e-9 covers the rounding of
    the float sum, whose relative error is below 1e-12 for m up to 1024, the
    shorter side of the largest grid.  A topple count never exceeds the
    count it is taken from or the odometer entry it is added to.
    """
    chips = sum(c.counts)
    if chips > INT64_MAX:
        return object, object
    odometer = _odometer_bound(spec, chips, budget)
    dtypes = (_narrowest_dtype(chips), _narrowest_dtype(max(chips, odometer)))
    return (object, object) if object in dtypes else dtypes


def _odometer_bound(spec: GridSpec, chips: int, budget: int) -> int:
    """The most firings of one cell in ``stabilize_grid`` from ``chips``
    chips, at most ``INT64_MAX``: the budget, and on an open grid
    chips * B(m) for the shorter side m, as ``_stabilizer_dtype`` proves."""
    if spec.mode == CLOSED:
        return budget
    bound = chips * _strip_green(min(spec.rows, spec.cols)) * (1 + 1e-9)
    return min(budget, math.ceil(bound))


def stabilize_grid(
    spec: GridSpec, c: ChipConfig, *, budget: int | None = None
) -> tuple[ChipConfig, Odometer]:
    """Bulk-toppling stabilizer over flat arrays, by red-black half-sweeps.

    A grid is bipartite: colour each cell by the parity of its row plus its
    column, and its neighbours all have the other colour.  A half-sweep
    topples every unstable cell of one colour floor(count / degree) times
    at once.  No two of those cells are adjacent, so a half-sweep is a legal
    firing sequence, and by the abelian property the result matches single
    firings.  The half-sweeps alternate colours, starting with the colour
    of cell (0, 0) unless none of its cells is unstable.  A cell's degree
    is 4, less its missing neighbours on a closed grid.

    The counts live row-major in a padded array of odd width W: the grid
    rows sit between a top and a bottom ring row (two bottom rows when the
    grid has an odd number of rows, so the array holds whole pairs of
    rows), and each grid row ends in one ring column when ``cols`` is even,
    two when it is odd.  With W odd a cell's colour is the parity of its
    flat index, so each colour lives in its own contiguous array
    ``flat[p::2]``, with its own odometer.  The neighbours of flat index i
    are i - W, i - 1, i + 1 and i + W, so for a band of colour-0 cells they
    are four slices of the colour-1 array, the band shifted by -(W + 1) / 2,
    -1, 0 and (W - 1) / 2, and for colour-1 cells the band shifted by
    -(W - 1) / 2, 0, 1 and (W + 1) / 2 in the colour-0 array.  A band of
    whole grid rows is one slice of each colour array.  An open-grid
    half-sweep is 8 array calls, as many as a sweep of both colours would
    take, on arrays half the size:
    - the topple counts, by a shift;
    - ``&= 3``;
    - the odometer add;
    - the four neighbour adds into the other colour;
    - one fill that clears the other colour's ring-column cells in the band.
    A closed-grid half-sweep adds, for each grid edge in the band (at most
    4), a ``floor_divide`` by the edge's degrees that overwrites its topple
    counts after the shift, so every cell topples floor(count / degree)
    times, and in place of the mask it subtracts topple * degree: 13 calls
    at most.  A grid column's cells of one colour are every W-th entry of
    its colour array, and a grid row's are contiguous.
    The top and bottom ring rows are never read, so nothing clears them.
    Chips pushed into the ring are the sink's on an open grid and fall off
    a closed one, whose cells lose only their degree a firing; the open
    grid's absorbed total follows from the odometer at the end.  Scalar
    operands are 0-d arrays of the count type, so numpy does not convert a
    Python integer on every call.

    Every ``_WINDOW`` half-sweeps the band shrinks to the rows of the
    unstable cells grown by at least ``_WINDOW`` rows each way, its ends
    rounded out to multiples of ``_WINDOW / 2`` rows; it holds every cell
    that can topple until the next recomputation.  Each recomputation after
    the first follows a half-sweep of the other colour than the next one,
    which left all its cells stable.  So only the next colour's cells are
    searched, and only in the band's rows and one row each side of it, the
    only rows that can have changed.
    A half-sweep fires at most once per chip, so the odometer is summed
    only once ``(sweeps + _WINDOW) * chips`` passes the budget.  From then
    on, while the next ``_WINDOW`` half-sweeps could overrun the budget,
    each half-sweep's firings are counted, and one that fires nothing
    leaves a stable grid: the half-sweep before it stabilized the other
    colour, which has got no chips since (the first half-sweep always
    fires).  Otherwise a stable grid shows at the next recomputation, after
    at most ``_WINDOW - 1`` half-sweeps that topple nothing.  So the
    half-sweep sequence, the result, the odometer and any
    ``BudgetExceededError`` are those of half-sweeping the whole grid.  The
    error carries the state after the last whole half-sweep that fits in
    the budget: ``fired <= budget``, and one more half-sweep would pass it.
    So unlike ``sandpile.stabilize``, which stops at exactly ``fired ==
    budget``, the partial state is a half-sweep boundary.  When the
    unstable cells of the start all have one colour, a Jacobi sweep of the
    whole grid, which topples every unstable cell at once, topples one
    colour at a time, alternately; the half-sweeps are those sweeps, and
    the partial state is the one Jacobi sweeps give.

    The arrays use the narrowest integer type that cannot overflow (see
    ``_stabilizer_dtype``) and exact Python integers when int64 could, so
    chips are conserved at any size.
    """
    import numpy as np

    if budget is None:
        budget = DEFAULT_BOUNDS.firing_budget
    rows, cols = spec.rows, spec.cols
    count_dtype, odo_dtype = _stabilizer_dtype(spec, c, budget)
    start = config_to_array(spec, c, count_dtype)
    if _lone_sink(spec):
        return array_to_config(spec, start, c.absorbed), Odometer(())

    width = cols + 1 if cols % 2 == 0 else cols + 2
    height = rows + 2 + rows % 2
    padded = np.zeros((height, width), dtype=count_dtype)
    padded[1 : rows + 1, :cols] = start
    counts = [padded.reshape(-1)[p::2].copy() for p in (0, 1)]
    size = counts[0].size
    odos = [np.zeros(size, dtype=odo_dtype) for _ in (0, 1)]  # ring entries stay 0
    buf = np.zeros(size, dtype=count_dtype)
    shed_buf = np.zeros(size, dtype=count_dtype)
    two, three = (np.array(k, dtype=count_dtype) for k in (2, 3))
    right_shift, bitwise_and, add = np.right_shift, np.bitwise_and, np.add
    floor_divide, multiply, subtract = np.floor_divide, np.multiply, np.subtract
    open_mode = spec.mode == OPEN
    # The firing thresholds; 1 on the ring, whose cells hold no chips when
    # a half-sweep of their colour starts.
    degree = np.ones((height, width), dtype=count_dtype)
    grid_degree = degree[1 : rows + 1, :cols]
    grid_degree.fill(4)
    if not open_mode:
        grid_degree[0] -= 1
        grid_degree[-1] -= 1
        grid_degree[:, 0] -= 1
        grid_degree[:, -1] -= 1
    degrees = [degree.reshape(-1)[p::2].copy() for p in (0, 1)]
    # Where the neighbours of a band of one colour sit in the other colour's
    # array, relative to the band: up, left, right and down.
    half_row = (width - 1) // 2
    offsets = ((-half_row - 1, -1, 0, half_row), (-half_row, 0, 1, half_row + 1))
    # A colour array cut into rows of W holds a pair of padded rows in each,
    # with its ring-column cells at one spot, or at two spots a < b with
    # a + 2 (b - a) past the row's end.
    pairs = [a.reshape(-1, width) for a in counts]
    ring_flats = (*range(cols, width), *range(width + cols, 2 * width))
    rings = []
    for p in (0, 1):
        spots = [(f - p) // 2 for f in ring_flats if f % 2 == p]
        rings.append(spots[0] if len(spots) == 1 else slice(spots[0], None, spots[1] - spots[0]))

    def first(f: int, p: int) -> int:
        """The index in colour p's array of its first cell at flat index f
        or after."""
        return (f - p + 1) // 2

    def unstable_rows(p: int, t0: int, t1: int) -> list[int]:
        """The first and last grid row, among rows t0 to t1 - 1, of the
        unstable cells of colour p; empty when there are none."""
        k0, k1 = first((t0 + 1) * width, p), first((t1 + 1) * width, p)
        unstable = counts[p][k0:k1] >= degrees[p][k0:k1]
        k = int(unstable.argmax())
        if not unstable[k]:
            return []
        return [(2 * (k0 + i) + p) // width - 1 for i in (k, k1 - k0 - 1 - int(unstable[::-1].argmax()))]

    def half_sweep_views(p: int, r0: int, r1: int):
        """The arrays a half-sweep of colour p over grid rows r0 to r1 - 1
        reads and writes."""
        q = 1 - p
        k0, k1 = first((r0 + 1) * width, p), first((r1 + 1) * width, p)
        band, topple = counts[p][k0:k1], buf[: k1 - k0]
        neighbours = [counts[q][k0 + o : k1 + o] for o in offsets[p]]
        # The ring-column cells those slices reach with nonzero topplings,
        # in padded rows r0 to r1.
        ring = pairs[q][r0 // 2 : r1 // 2 + 1, rings[q]]
        degree_band = shed = None
        edges = []
        if not open_mode:
            degree_band, shed = degrees[p][k0:k1], shed_buf[: k1 - k0]
            # The band's cells of degree below 4, in disjoint slices: its
            # first and last column, and the rest of the first and last
            # grid row when the band holds them.
            cuts = []
            for col in {0, cols - 1}:
                row = r0 + 1 + (r0 + 1 + col + p) % 2  # the band's first of colour p
                start, stop = first(row * width + col, p), first(r1 * width + col + 1, p)
                cuts.append(slice(start - k0, stop - k0, width))
            for row in {1, rows}:
                if r0 < row <= r1:
                    cuts.append(slice(first(row * width + 1, p) - k0, first(row * width + cols - 1, p) - k0))
            edges = [[a[cut] for a in (band, degree_band, topple)] for cut in cuts]
            edges = [edge for edge in edges if edge[0].size]
        return (band, topple, odos[p][k0:k1], degree_band, shed, *neighbours, ring, edges)

    def result() -> tuple[ChipConfig, Odometer]:
        # Flat entries alternate between the colours, colour 0 first.
        final, firings = (
            np.stack(halves, axis=1).reshape(height, width)[1 : rows + 1, :cols] for halves in (counts, odos)
        )
        absorbed = c.absorbed
        if open_mode:
            # A cell sheds one chip per firing for each side on the boundary.
            sides = (firings[0], firings[-1], firings[:, 0], firings[:, -1])
            absorbed += sum(int(side.sum()) for side in sides)
        return array_to_config(spec, final, absorbed), Odometer(tuple(firings.reshape(-1).tolist()))

    chips = c.total()
    sweeps = 0
    exact = False
    band_rows = None
    while True:
        if sweeps % _WINDOW == 0:
            if sweeps == 0:
                found = [unstable_rows(p, 0, rows) for p in (0, 1)]
                colour = 1 if found[1] else 0  # cell (0, 0), at the odd flat index W, has colour 1
                found = found[0] + found[1]
            else:
                found = unstable_rows(colour, max(r0 - 1, 0), min(r1 + 1, rows))
            if not found:
                break
            # A half-sweep fires at most once per chip.
            if not exact and (sweeps + _WINDOW) * chips > budget:
                fired = int(odos[0].sum()) + int(odos[1].sum())
                exact = fired + _WINDOW * chips > budget
            # The band's ends are rounded out to multiples of half a window,
            # so the band moves, and its views are made, less often.
            step = _WINDOW // 2
            r0 = max((min(found) - _WINDOW) // step * step, 0)
            r1 = min(-(-(max(found) + 1 + _WINDOW) // step) * step, rows)
            if (r0, r1) != band_rows:
                band_rows = (r0, r1)
                views = [half_sweep_views(p, r0, r1) for p in (0, 1)]

        band, topple, odo_band, degree_band, shed, up, left, right, down, ring, edges = views[colour]
        right_shift(band, two, out=topple)
        for edge, edge_degree, edge_topple in edges:
            floor_divide(edge, edge_degree, out=edge_topple)
        if exact:
            total = int(topple.sum())
            if total == 0:
                break
            if fired + total > budget:
                config, odometer = result()
                raise BudgetExceededError(
                    f"did not stabilize within budget of {budget} firings",
                    config=config,
                    odometer=odometer,
                    fired=fired,
                )
            fired += total
        if open_mode:
            bitwise_and(band, three, out=band)
        else:
            subtract(band, multiply(topple, degree_band, out=shed), out=band)
        add(odo_band, topple, out=odo_band)
        add(up, topple, out=up)
        add(left, topple, out=left)
        add(right, topple, out=right)
        add(down, topple, out=down)
        ring.fill(0)
        colour ^= 1
        sweeps += 1

    return result()


class Palette(Frozen):
    """RGB triples for chip counts 0..3; larger counts clamp to the last."""

    __slots__ = ("colors",)

    def __init__(self, colors: tuple[tuple[int, int, int], ...]):
        if len(colors) != 4:
            raise ParseError("palette needs exactly four colors")
        for rgb in colors:
            if len(rgb) != 3 or any(not (0 <= ch <= 255) for ch in rgb):
                raise ParseError("palette channels must be in 0..255")
        super().__init__(colors)


DEFAULT_PALETTE = Palette(((0, 0, 255), (0, 255, 255), (255, 255, 0), (139, 69, 19)))


def render_ppm(spec: GridSpec, c: ChipConfig, palette: Palette = DEFAULT_PALETTE) -> bytes:
    """Binary PPM (P6), one pixel per grid cell, 255 max-val; a lone sink is
    one pixel of count 0.  The counts, clamped to 255 when one is larger,
    are one byte each, and each colour channel is one ``bytes.translate``
    of them through that channel's 256-entry table."""
    counts = c.counts if _count_cells(spec, c) else (0,)
    if max(counts) > 255:
        counts = [min(n, 255) for n in counts]
    cells = bytes(counts)
    pixels = bytearray(3 * len(cells))
    for channel in range(3):
        table = bytes(palette.colors[min(n, 3)][channel] for n in range(256))
        pixels[channel::3] = cells.translate(table)
    header = f"P6\n{spec.cols} {spec.rows}\n255\n".encode("ascii")
    return header + pixels


def decode_ppm(data: bytes) -> tuple[int, int, np.ndarray]:
    """Parse a binary P6 image back into (width, height, pixel array)."""
    import numpy as np

    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise ParseError("not a binary P6 image")
    width, height = (int(x) for x in parts[1].split())
    if parts[2] != b"255":
        raise ParseError("expected 255 max-val")
    raw = parts[3]
    if len(raw) != width * height * 3:
        raise ParseError("pixel payload size mismatch")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return width, height, pixels


def parse_palette(text: str) -> Palette:
    """Palette given as ``r,g,b;r,g,b;r,g,b;r,g,b``."""
    chunks = text.split(";")
    if len(chunks) != 4:
        raise ParseError("palette needs exactly four ;-separated colors")
    colors = []
    for chunk in chunks:
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ParseError(f"bad color {chunk!r}")
        colors.append(tuple(integer(p, f"bad color {chunk!r}") for p in parts))
    return Palette(tuple(colors))
