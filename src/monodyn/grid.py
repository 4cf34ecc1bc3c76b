"""Grid sandpile models and image rendering.

Closed mode encodes the undirected grid as a directed graph with reciprocal
edges, so the firing threshold of a cell is its grid degree and chips are
conserved.  Open mode adds one explicit sink absorbing each boundary cell's
missing neighbors, which makes every cell's threshold exactly 4.

``stabilize_grid`` is a flat-array stabilizer that topples every unstable
cell in bulk per sweep; by order independence its final configuration and
odometer are identical to the generic graph stabilizer's, which the test
suite checks cell for cell.  Images are binary PPM (P6), one pixel per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BOUNDS
from .errors import BudgetExceededError, ParseError, ShapeError
from .graph import Graph
from .sandpile import ChipConfig, Odometer

CLOSED = "closed"
OPEN = "open"
SINK = "sink"

INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    mode: str = CLOSED

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeError("grid dimensions must be positive")
        if self.mode not in (CLOSED, OPEN):
            raise ParseError(f"grid mode must be 'closed' or 'open', got {self.mode!r}")

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


def grid_config(spec: GridSpec, placements: dict[tuple[int, int], int]) -> ChipConfig:
    """Configuration from (row, col) -> chips placements, summed exactly."""
    counts = np.zeros((spec.rows, spec.cols), dtype=object)
    for (r, c), n in placements.items():
        if not (0 <= r < spec.rows and 0 <= c < spec.cols):
            raise ShapeError(f"placement ({r},{c}) outside {spec.rows}x{spec.cols} grid")
        if n < 0:
            raise ParseError("negative placement")
        counts[r, c] += n
    return array_to_config(spec, counts)


def config_to_array(spec: GridSpec, c: ChipConfig, dtype=None) -> np.ndarray:
    """Counts as a rows x cols array.  A 1x1 closed grid is a lone sink and
    carries no counts, so the array is all zeros there.  The array is int64
    unless ``dtype`` says otherwise or a count does not fit, in which case it
    holds exact Python integers (dtype object)."""
    expected = spec.rows * spec.cols
    if spec.mode == CLOSED and expected == 1:
        expected = 0
    if len(c.counts) != expected:
        raise ShapeError(
            f"config has {len(c.counts)} counts, grid expects {expected}"
        )
    if dtype is None:
        dtype = np.int64 if max(c.counts, default=0) <= INT64_MAX else object
    arr = np.zeros(spec.rows * spec.cols, dtype=dtype)
    if expected:
        arr[:] = np.asarray(c.counts, dtype=dtype)
    return arr.reshape(spec.rows, spec.cols)


def array_to_config(spec: GridSpec, arr: np.ndarray, absorbed: int = 0) -> ChipConfig:
    if spec.mode == CLOSED and spec.rows * spec.cols == 1:
        return ChipConfig((), int(absorbed) + int(arr.sum()))
    return ChipConfig(tuple(int(x) for x in arr.reshape(-1)), int(absorbed))


def _thresholds(spec: GridSpec) -> np.ndarray:
    if spec.mode == OPEN:
        return np.full((spec.rows, spec.cols), 4, dtype=np.int64)
    t = np.full((spec.rows, spec.cols), 4, dtype=np.int64)
    t[0, :] -= 1
    t[-1, :] -= 1
    t[:, 0] -= 1
    t[:, -1] -= 1
    return t


def _stabilizer_dtype(spec: GridSpec, c: ChipConfig, budget: int):
    """int64 when no value the stabilizer computes can overflow it, else
    object (exact Python integers).

    Counts stay nonnegative, so every count and every sum over cells is at
    most the number of chips on the grid.  Each odometer entry is at most
    the number of firings, which the budget caps.  On an open grid, with
    phi(x) the expected number of steps a random walk from x takes to reach
    the sink, each firing lowers sum(count * phi) by exactly 4, and phi is at
    most (m + 1)^2 / 2 for the shorter side m; that caps the firings too.
    """
    chips = sum(c.counts)
    firings = budget
    if spec.mode == OPEN:
        m = min(spec.rows, spec.cols)
        firings = min(budget, chips * (m + 1) ** 2 // 8)
    return np.int64 if max(chips, firings) <= INT64_MAX else object


def stabilize_grid(
    spec: GridSpec, c: ChipConfig, *, budget: int | None = None
) -> tuple[ChipConfig, Odometer]:
    """Bulk-toppling stabilizer over flat arrays.

    Each sweep topples every unstable cell floor(count / threshold) times at
    once; the abelian property guarantees the result matches single firings.
    The arrays are int64 when that cannot overflow and exact Python integers
    otherwise, so chips are conserved at any size.
    """
    if budget is None:
        budget = DEFAULT_BOUNDS.firing_budget
    counts = config_to_array(spec, c, _stabilizer_dtype(spec, c, budget))
    thresh = _thresholds(spec)
    odo = np.zeros_like(counts)
    absorbed = c.absorbed
    fired = 0
    if spec.mode == CLOSED and spec.rows * spec.cols == 1:
        return array_to_config(spec, counts, absorbed), Odometer(())

    shed = np.zeros_like(counts)  # chips to sink per topple, open mode only
    if spec.mode == OPEN:
        inner = np.full_like(counts, 4)
        inner[0, :] -= 1
        inner[-1, :] -= 1
        inner[:, 0] -= 1
        inner[:, -1] -= 1
        shed = 4 - inner

    while True:
        topple = counts // thresh
        total = int(topple.sum())
        if total == 0:
            break
        if fired + total > budget:
            partial = array_to_config(spec, counts, absorbed)
            raise BudgetExceededError(
                f"did not stabilize within budget of {budget} firings",
                config=partial,
                odometer=Odometer(tuple(int(x) for x in odo.reshape(-1))),
                fired=fired,
            )
        fired += total
        odo += topple
        counts -= topple * thresh
        counts[:-1, :] += topple[1:, :]
        counts[1:, :] += topple[:-1, :]
        counts[:, :-1] += topple[:, 1:]
        counts[:, 1:] += topple[:, :-1]
        if spec.mode == OPEN:
            absorbed += int((topple * shed).sum())

    return (
        array_to_config(spec, counts, absorbed),
        Odometer(tuple(int(x) for x in odo.reshape(-1))),
    )


@dataclass(frozen=True)
class Palette:
    """RGB triples for chip counts 0..3; larger counts clamp to the last."""

    colors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.colors) != 4:
            raise ParseError("palette needs exactly four colors")
        for rgb in self.colors:
            if len(rgb) != 3 or any(not (0 <= ch <= 255) for ch in rgb):
                raise ParseError("palette channels must be in 0..255")


DEFAULT_PALETTE = Palette(((0, 0, 255), (0, 255, 255), (255, 255, 0), (139, 69, 19)))


def render_ppm(spec: GridSpec, c: ChipConfig, palette: Palette = DEFAULT_PALETTE) -> bytes:
    """Binary PPM (P6), one pixel per grid cell, 255 max-val."""
    arr = config_to_array(spec, c)
    clamped = np.minimum(arr, 3).astype(np.intp)
    lut = np.array(palette.colors, dtype=np.uint8)
    pixels = lut[clamped]
    header = f"P6\n{spec.cols} {spec.rows}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def decode_ppm(data: bytes) -> tuple[int, int, np.ndarray]:
    """Parse a binary P6 image back into (width, height, pixel array)."""
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
