"""Grid sandpile models and image rendering.

Closed mode encodes the undirected grid as a directed graph with reciprocal
edges, so the firing threshold of a cell is its grid degree and chips are
conserved.  Open mode adds one explicit sink absorbing each boundary cell's
missing neighbors, which makes every cell's threshold exactly 4.

``stabilize_grid`` is a flat-array stabilizer that topples every unstable
cell in bulk per sweep; by order independence its final configuration and
odometer are identical to the generic graph stabilizer's, which the test
suite checks cell for cell.  One kernel serves both modes: each sweep takes
the topplings by a shift, as if every degree were 4, redoes them on a closed
grid's edge cells by dividing each grid edge by its degrees, takes the shed
chips off the counts, and adds the topplings to the odometer and to the four
neighbours.  The counts sit in a padded array with a ring around the grid;
the top and bottom ring rows are written and never read.  A sweep is 8
array calls on an open grid and at most 13 on a closed one.  The firings
are summed only once the sweeps done and the next few could pass the firing
budget, since a sweep fires at most once per chip.
The arrays use the narrowest integer type that provably cannot overflow,
and each sweep covers only the band of rows around the unstable cells.

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
legal firing sequence, a run of sweeps cut by the budget among them, fires
a cell more often than stabilization does.  With B(105) = 1.036, a 2^14
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
from .errors import BudgetExceededError, Frozen, ParseError, ShapeError
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

# The stabilizer recomputes its band of active rows every _WINDOW sweeps and
# keeps a margin of _WINDOW rows around the unstable cells.  Instability
# spreads at most one cell per sweep, so no cell outside the band can topple
# before the next recomputation.
_WINDOW = 8

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
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mode", mode)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.cols, self.mode) == (other.rows, other.cols, other.mode)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.mode))

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
    most the number of chips on the grid.  A cell of the ring column holds
    at most one sweep's topplings of its two grid neighbours, no more than
    the chips, since the stabilizer clears it after every sweep; the top and
    bottom ring rows are never read, so they may wrap.

    Each odometer entry is at most the number of firings, which the budget
    caps.  On an open grid, it is also at most chips * B(m) for the shorter
    side m, with B = ``_strip_green``: the odometer u of stabilization is
    G(s - f) <= G s for G = (4I - A)^-1 >= 0, G(x, y) <= G(y, y), and by
    domain monotonicity G(y, y) is at most the Green's function at the
    centre of the strip of width 2m - 1, which holds the strip of width m
    that holds the grid, wherever y sits in it; by the least action
    principle a run of sweeps cut short fires no cell more than that (see
    the module docstring).  The factor 1 + 1e-9 covers the rounding of the
    float sum, whose relative error is below 1e-12 for m up to 1024, the
    shorter side of the largest grid.  A
    topple count never exceeds the count it is taken from or the odometer
    entry it is added to.
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
    """Bulk-toppling stabilizer over flat arrays.

    Each sweep topples every unstable cell floor(count / degree) times at
    once (a Jacobi sweep); the abelian property guarantees the result
    matches single firings.  A cell's degree is 4, less its missing
    neighbours on a closed grid.

    The counts live row-major in a (rows + 2) x (cols + 1) array: the grid
    rows sit between a top and a bottom ring row, and one ring column ends
    each grid row, so a row's last cell and the next row's first cell share
    their ring neighbour.  A band of whole grid rows is then one contiguous
    slice of the flattened array, and its four neighbour slices are that
    slice shifted by one cell and by one row.  An open-grid sweep is 8
    array calls:
    - the topple counts, by a shift;
    - ``&= 3``;
    - the odometer add;
    - the four neighbour adds;
    - one fill that clears the band's part of the ring column.
    A closed-grid sweep adds, for each grid edge in the band (at most 4),
    a ``floor_divide`` by the edge's degrees that overwrites its topple
    counts after the shift, so every cell topples floor(count / degree)
    times, and in place of the mask it subtracts topple * degree: 13 calls
    at most.  The edges are separate 1-d slices, since a 2-d view of both
    columns costs more per call than the two columns.
    The top and bottom ring rows are never read, so nothing clears them.
    Chips pushed into the ring are the sink's on an open grid and fall off
    a closed one, whose cells lose only their degree a firing; the open
    grid's absorbed total follows from the odometer at the end.  Scalar
    operands are 0-d arrays of the count type, so numpy does not convert a
    Python integer on every call.

    Every ``_WINDOW`` sweeps the band shrinks to the rows of the unstable
    cells grown by ``_WINDOW`` rows each way, which holds every cell that
    can topple until the next recomputation.  After the first window step,
    only the band's rows and one row each side of it can have changed, so
    only they are searched for unstable cells.  A sweep fires at most once
    per chip, so the odometer is summed only once ``(sweeps + _WINDOW) *
    chips`` passes the budget.  From then on, while the next ``_WINDOW``
    sweeps could overrun the budget, each sweep's firings are counted.
    Otherwise a stable grid shows at the next recomputation, after at most
    ``_WINDOW - 1`` sweeps that topple nothing.  So the sweep sequence, the
    result, the odometer and any ``BudgetExceededError`` are those of
    sweeping the whole grid.  The error carries the state after the last
    whole sweep that fits in the budget: ``fired <= budget``, and one more
    sweep would pass it.  So unlike ``sandpile.stabilize``, which stops at
    exactly ``fired == budget``, the partial state is a sweep boundary.

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

    width = cols + 1
    padded = np.zeros((rows + 2, width), dtype=count_dtype)
    padded[1:-1, :-1] = start
    flat = padded.reshape(-1)
    odo = np.zeros((rows, width), dtype=odo_dtype)  # the ring column stays 0
    buf = np.zeros(rows * width, dtype=count_dtype)
    shed_buf = np.zeros(rows * width, dtype=count_dtype)
    two, three = (np.array(k, dtype=count_dtype) for k in (2, 3))
    right_shift, bitwise_and, add = np.right_shift, np.bitwise_and, np.add
    floor_divide, multiply, subtract = np.floor_divide, np.multiply, np.subtract
    open_mode = spec.mode == OPEN
    # The firing thresholds; 1 on the ring column, whose cells hold no chips
    # when a sweep starts.
    degree = np.full((rows, width), 4, dtype=count_dtype)
    if not open_mode:
        degree[0] -= 1
        degree[-1] -= 1
        degree[:, 0] -= 1
        degree[:, cols - 1] -= 1
    degree[:, -1] = 1

    def result() -> tuple[ChipConfig, Odometer]:
        firings = odo[:, :-1]
        absorbed = c.absorbed
        if open_mode:
            # A cell sheds one chip per firing for each side on the boundary.
            sides = (firings[0], firings[-1], firings[:, 0], firings[:, -1])
            absorbed += sum(int(side.sum()) for side in sides)
        return (
            array_to_config(spec, padded[1:-1, :-1], absorbed),
            Odometer(tuple(firings.reshape(-1).tolist())),
        )

    chips = c.total()
    sweeps = 0
    exact = False
    r0, r1 = 0, rows
    while True:
        if sweeps % _WINDOW == 0:
            # After the first step, only the band and the rows next to it
            # can have changed.
            t0, t1 = (0, rows) if sweeps == 0 else (max(r0 - 1, 0), min(r1 + 1, rows))
            hit = np.flatnonzero((padded[t0 + 1 : t1 + 1] >= degree[t0:t1]).any(axis=1))
            if not hit.size:
                break
            # A sweep fires at most once per chip.
            if not exact and (sweeps + _WINDOW) * chips > budget:
                fired = int(odo.sum())
                exact = fired + _WINDOW * chips > budget
            r0 = max(t0 + int(hit[0]) - _WINDOW, 0)
            r1 = min(t0 + int(hit[-1]) + 1 + _WINDOW, rows)
            lo, hi = (r0 + 1) * width, (r1 + 1) * width
            band = flat[lo:hi]
            up, down = flat[lo - width : hi - width], flat[lo + width : hi + width]
            left, right = flat[lo - 1 : hi - 1], flat[lo + 1 : hi + 1]
            # The ring column cells those slices reach with nonzero topplings.
            ring = padded[r0 : r1 + 1, -1]
            odo_band = odo.reshape(-1)[r0 * width : r1 * width]
            degree_band = degree.reshape(-1)[r0 * width : r1 * width]
            topple, shed = buf[: hi - lo], shed_buf[: hi - lo]
            edges = []
            if not open_mode:
                # The band's cells of degree below 4, in disjoint slices: its
                # first and last column, and the rest of the first and last
                # grid row when the band holds them.
                grids = [a.reshape(-1, width) for a in (band, degree_band, topple)]
                edges = [[a[:, 0] for a in grids]]
                if cols > 1:
                    edges.append([a[:, cols - 1] for a in grids])
                if r0 == 0:
                    edges.append([a[0, 1 : cols - 1] for a in grids])
                if r1 == rows and rows > 1:
                    edges.append([a[-1, 1 : cols - 1] for a in grids])

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
        add(down, topple, out=down)
        add(left, topple, out=left)
        add(right, topple, out=right)
        ring.fill(0)
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
        object.__setattr__(self, "colors", colors)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.colors == other.colors
        return NotImplemented

    def __hash__(self):
        return hash((self.colors,))


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
        colors.append(tuple(int(p) for p in parts))
    return Palette(tuple(colors))
