"""Direct-limit arithmetic over a fixed nonnegative square matrix, and
windowed presentations of the stage-graded vertex monoid.

An element of the limit group is a pair (vec, stage) with (vec, stage)
identified with (vec . A, stage + 1).  Equality is decided exactly.
Positivity is decided against an explicit power bound and answers with a
third "inconclusive" state when the bound runs out, because an exact
decision in general needs spectral machinery that is out of scope here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .config import DEFAULT_BOUNDS
from .errors import Frozen, MonodynError, ParseError, ShapeError, integer
from .matrix import IntMatrix, vec_mat_mul

if TYPE_CHECKING:
    from .graph import Graph
    from .monoid import Vector


POSITIVE = "positive"
NOT_POSITIVE = "not_positive"
INCONCLUSIVE = "inconclusive"
YES = "yes"
NO = "no"

FORWARD = "forward"
BACKWARD = "backward"

# The largest talented window radius.  The window's presentation stores each
# of its relations as a dense vector over every stage's vertices, so its size
# grows with radius^2; a larger radius is refused before anything is built.
MAX_WINDOW_RADIUS = 100


class DimElement(Frozen):
    __slots__ = ("matrix", "vec", "stage")

    def __init__(self, matrix: IntMatrix, vec: tuple[int, ...], stage: int = 0):
        if not matrix.is_square:
            raise ShapeError("stage matrix must be square")
        if not matrix.is_nonnegative:
            raise ShapeError("stage matrix must be nonnegative")
        if len(vec) != matrix.rows:
            raise ShapeError(f"vector length {len(vec)} does not match matrix size {matrix.rows}")
        super().__init__(matrix, vec, stage)


def _require_same_matrix(x: DimElement, y: DimElement):
    if x.matrix != y.matrix:
        raise ShapeError("elements live over different matrices")


def _common_stage(x: DimElement, y: DimElement) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Both vectors pushed to the later of the two stages, and that stage.
    The earlier vector is multiplied by the matrix power of the stage gap,
    which raises ``MonodynError`` when its entries need more than
    ``matrix.MAX_POWER_BITS`` bits."""
    _require_same_matrix(x, y)
    stage = max(x.stage, y.stage)
    vecs = []
    for e in (x, y):
        v = e.vec
        if e.stage < stage:
            v = vec_mat_mul(v, e.matrix.pow(stage - e.stage, bounded=True))
        vecs.append(v)
    return vecs[0], vecs[1], stage


def dim_equal(x: DimElement, y: DimElement) -> str:
    """Push both elements to a common stage, then n more times, and compare.

    The elements are equal when their difference d satisfies d . A^k = 0 for
    some k.  The kernels of right multiplication by A^k grow with k and stop
    growing by k = n (Fitting's lemma), so k = n decides.
    """
    vx, vy, _ = _common_stage(x, y)
    d = tuple(p - q for p, q in zip(vx, vy))
    for _ in range(x.matrix.rows):
        if not any(d):
            break
        d = vec_mat_mul(d, x.matrix)
    return NO if any(d) else YES


def dim_positive(x: DimElement, max_power: int = DEFAULT_BOUNDS.max_power) -> str:
    """Positive iff some power pushes the vector into the nonnegative orthant.

    A strictly negative vector stays strictly negative under any nonnegative
    matrix without zero columns, which certifies the negative answer.
    """
    a = x.matrix
    no_zero_column = all(
        any(a.at(i, j) != 0 for i in range(a.rows)) for j in range(a.cols)
    )
    v = x.vec
    for _ in range(max_power + 1):
        if all(c >= 0 for c in v):
            return POSITIVE
        if no_zero_column and all(c < 0 for c in v):
            return NOT_POSITIVE
        v = vec_mat_mul(v, a)
    return INCONCLUSIVE


def dim_add(x: DimElement, y: DimElement) -> DimElement:
    """Sum after moving both to a common stage."""
    vx, vy, stage = _common_stage(x, y)
    return DimElement(x.matrix, tuple(p + q for p, q in zip(vx, vy)), stage)


def delta_shift(x: DimElement, direction: str = FORWARD) -> DimElement:
    """The automorphism induced by the matrix: forward multiplies the vector,
    backward bumps the stage, and the two compose to the identity in the
    limit."""
    if direction == FORWARD:
        return DimElement(x.matrix, vec_mat_mul(x.vec, x.matrix), x.stage)
    if direction == BACKWARD:
        return DimElement(x.matrix, x.vec, x.stage + 1)
    raise ParseError(f"direction must be 'forward' or 'backward', got {direction!r}")


def normalize(x: DimElement) -> DimElement:
    """Smallest-stage representative reachable by exact pullbacks, floored at
    stage 0 (the base of the direct system).  Negative stages push forward."""
    from .smith import solve_integer_column

    a = x.matrix
    vec = x.vec
    stage = x.stage
    while stage < 0:
        vec = vec_mat_mul(vec, a)
        stage += 1
    at = a.transpose()
    while stage > 0:
        pre = solve_integer_column(at, vec)
        if pre is None:
            break
        vec = pre
        stage -= 1
    return DimElement(a, vec, stage)


def fib_cone_member(m: int, n: int) -> bool:
    """Exact integer test for (1+sqrt(5))/2 * m + n >= 0.

    With t = m + 2n the inequality reads m*sqrt(5) >= -t, which squares to
    the integer comparisons below without ever leaving the integers.
    """
    t = m + 2 * n
    if m >= 0 and t >= 0:
        return True
    if m >= 0 and 5 * m * m >= t * t:
        return True
    if m < 0 and t >= 0 and t * t >= 5 * m * m:
        return True
    return False


class TalentedWindow(Frozen):
    """Stage-graded presentation of a graph's vertex monoid, truncated to the
    stages -radius..radius.

    Generators are named ``v(i)``; for every non-sink vertex v and every
    stage i with i+1 still inside the window there is one relation
    ``v(i) = sum of targets at stage i+1``.  The stage shift moves every
    generator one stage up and is defined on elements whose support stays
    inside the window.
    """

    __slots__ = ("graph", "radius", "presentation")

    def stage_count(self) -> int:
        return 2 * self.radius + 1

    def shift(self, vec: Vector, n: int = 1) -> Vector:
        """Shift every stage by n; raises when support would leave the window."""
        vec = self.presentation.validate_element(vec)
        width = self.stage_count()
        out = [0] * len(vec)
        for idx, coeff in enumerate(vec):
            if coeff == 0:
                continue
            offset = idx % width
            target = offset + n
            if not (0 <= target < width):
                raise ShapeError("shifted element leaves the stage window")
            out[idx - offset + target] = coeff
        return tuple(out)


def talented_window(g: Graph, radius: int) -> TalentedWindow:
    """The window's presentation is the graph monoid of the stage graph: one
    vertex ``v(i)`` per vertex v and stage i, and for every edge v -> w of
    g an edge ``v(i)`` -> ``w(i+1)`` of the same multiplicity.  A radius
    above ``MAX_WINDOW_RADIUS`` raises ``MonodynError``."""
    from .graph import Graph
    from .monoid import graph_monoid_presentation

    if radius < 0:
        raise ShapeError("window radius must be nonnegative")
    if radius > MAX_WINDOW_RADIUS:
        raise MonodynError(f"window radius {radius} is over MAX_WINDOW_RADIUS = {MAX_WINDOW_RADIUS}")
    stages = range(-radius, radius + 1)
    stage_graph = Graph.build(
        [f"{v}({i})" for v in g.vertices for i in stages],
        [(f"{v}({i})", f"{w}({i + 1})", mult) for v, w, mult in g.edges for i in stages[:-1]],
    )
    return TalentedWindow(g, radius, graph_monoid_presentation(stage_graph))


def parse_dim_element(matrix: IntMatrix, text: str) -> DimElement:
    """Parse ``[v1 v2 ... vn]@stage``."""
    text = text.strip()
    if "@" not in text or not text.startswith("["):
        raise ParseError(f"element must look like '[1 0]@0', got {text!r}")
    vec_part, stage_part = text.rsplit("@", 1)
    vec_part = vec_part.strip()
    if not vec_part.endswith("]"):
        raise ParseError(f"unterminated vector in {text!r}")
    message = f"bad element syntax {text!r}"
    vec = tuple(integer(tok, message) for tok in vec_part[1:-1].split())
    return DimElement(matrix, vec, integer(stage_part, message))


def format_dim_element(x: DimElement) -> str:
    return "[" + " ".join(str(c) for c in x.vec) + f"]@{x.stage}"
