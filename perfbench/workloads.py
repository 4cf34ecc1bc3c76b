"""The four benchmark workloads: seeded inputs, the op each input drives,
and the correctness check of every op's output.

A workload hands out passes.  A pass is a list of ops with a fixed slot
structure (the same kinds and size classes every pass, in a seeded order);
the seed only picks the details inside each slot, so the work per pass is
nearly the same for every seed while the inputs differ.

``run(op, call)`` is the timed part: it calls into the package only through
``call`` (or ``span`` for child processes), so the tracer sees every layer
boundary.  ``check(op, value)`` runs outside the timed region and returns an
``Outcome`` holding the op's decisions, its counts (taken from the returned
values) and the reason it failed, if it did.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import numpy as np

from monodyn import cli, corpus, dimension, graph, grid, lpa, matrix, monoid, sandpile, shifteq, smith
from monodyn.graph import Graph
from monodyn.matrix import IntMatrix

SRC = Path(cli.__file__).resolve().parent.parent  # the src directory the package was imported from
CLI_CHILD = Path(__file__).with_name("cli_child.py")
LAYERS = ("cli", "graph", "sandpile", "grid", "monoid", "matrix", "smith", "shifteq", "dimension", "lpa")


@dataclass
class Op:
    kind: str
    inputs: tuple
    known_defect: str | None = None  # the known program defect this op shows, if any


@dataclass
class Outcome:
    decisions: list[bool] = field(default_factory=list)  # True for a definite answer
    counts: Counter = field(default_factory=Counter)
    failure: str | None = None


def _random_matrix(rng: Random, n: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(rng.randint(lo, hi) for _ in range(n * n)))


def _outdegree_product(g: Graph) -> int:
    return math.prod(g.outdegree(v) for v in g.nonsink_vertices)


def _sandpile_graph_in_band(rng: Random, lo: int, hi: int, max_vertices: int, max_outdegree: int) -> Graph:
    """A corpus graph whose stable-configuration count lies in [lo, hi)."""
    while True:
        g = corpus.random_sandpile_graph(rng, max_vertices, max_outdegree)
        if lo <= _outdegree_product(g) < hi:
            return g


def cycle_with_loops(k: int, d: int = 4) -> Graph:
    """k-cycle with a loop and d - 2 sink edges at every vertex: each vertex
    has outdegree d, so the sandpile monoid has d**k elements."""
    names = [f"c{i}" for i in range(k)] + ["s"]
    edges = []
    for i in range(k):
        edges += [(names[i], names[(i + 1) % k], 1), (names[i], names[i], 1), (names[i], "s", d - 2)]
    return Graph.build(names, edges)


# --- grid-piles -------------------------------------------------------------


def pile_side(chips: int) -> int:
    """Side of a square that just holds the stable pile of a centre drop; the
    pile covers about chips / 2.1 cells."""
    return 2 * math.isqrt(int(chips / (2.1 * math.pi))) + 3


class GridPiles:
    name = "grid-piles"
    host_kernel = "numpy"  # hostspeed kernel whose speed tracks these ops
    min_passes = 6
    # (mode, log2 chips, margin factor, drops); closed slots give the side.
    # Costs run from 3 ms to 0.5 s.  Nine slots cost under 20 ms; eight of
    # 30-60 ms, four of them tight 2^12 drops, hold the median; the four
    # tight 2^13 drops hold the 90th percentile, with only the 2^14 drop and
    # at times the 72x72 closed grid above them.  So neither percentile lands
    # on a jump between two cost classes.
    SLOTS = (
        [("open", k, 1, 1) for k in (9, 10, 11, 12, 12, 12, 12, 13, 13, 13, 14)]
        + [("open", k, 2, 1) for k in (9, 10, 11, 12)]
        + [("open", k, 1, d) for k, d in ((10, 3), (11, 3), (12, 2), (13, 2))]
        + [("open", k, 2, 2) for k in (11, 12)]
        + [("closed", n, 0, 1) for n in (24, 32, 48, 64, 64, 72)]
    )
    GENERIC_CHECK_CELLS = 40 * 40  # grids this small are also checked against sandpile.stabilize

    def make_pass(self, rng: Random) -> tuple[list[Op], dict]:
        ops = []
        for mode, size, margin, drops in self.SLOTS:
            if mode == "open":
                chips = 2**size + rng.randrange(2**size // 16)
                side = pile_side(chips) * margin
                per_drop = chips // drops
                places: dict[tuple[int, int], int] = {}
                for d in range(drops):
                    spread = 0 if drops == 1 else side // 6
                    r = side // 2 + rng.randint(-spread, spread) + rng.randint(-1, 1)
                    c = side // 2 + rng.randint(-spread, spread) + rng.randint(-1, 1)
                    places[(r, c)] = places.get((r, c), 0) + per_drop + (chips % drops if d == 0 else 0)
                rows = cols = side
                kind = f"open-{'tight' if margin == 1 else 'loose'}-{drops}x-2^{size}"
            else:
                rows = cols = size
                places = {(r, c): rng.randint(0, 3) for r in range(rows) for c in range(cols)}
                # The drop lands in the middle half, where its cost varies less.
                centre = (rows // 4 + rng.randrange(rows // 2), cols // 4 + rng.randrange(cols // 2))
                places[centre] += rows * cols // 4
                kind = f"closed-background-{size}"
            generic = rows * cols <= self.GENERIC_CHECK_CELLS and rng.random() < 0.5
            ops.append(Op(kind, (grid.GridSpec(rows, cols, mode), tuple(sorted(places.items())), generic)))
        rng.shuffle(ops)
        return ops, {}

    def warm_up(self, call) -> None:
        spec = grid.GridSpec(9, 9, "open")
        final, _ = call(grid.stabilize_grid, spec, call(grid.grid_config, spec, {(4, 4): 64}))
        call(grid.render_ppm, spec, final)

    def run(self, op: Op, call, span):
        spec, places, _ = op.inputs
        start = call(grid.grid_config, spec, dict(places))
        final, odometer = call(grid.stabilize_grid, spec, start)
        image = call(grid.render_ppm, spec, final)
        return start, final, odometer, image

    def check(self, op: Op, value) -> Outcome:
        spec, places, generic = op.inputs
        start, final, odometer, image = value
        out = Outcome(decisions=[True])
        out.counts["grid.firings"] = odometer.total()
        counts = grid.config_to_array(spec, final)
        before = grid.config_to_array(spec, start)
        odo = np.asarray(odometer.firings, dtype=np.int64).reshape(spec.rows, spec.cols)
        thresh = np.full((spec.rows, spec.cols), 4, dtype=np.int64)
        degree = np.full((spec.rows, spec.cols), 4, dtype=np.int64)
        degree[0, :] -= 1
        degree[-1, :] -= 1
        degree[:, 0] -= 1
        degree[:, -1] -= 1
        if spec.mode == "closed":
            thresh = degree
        inflow = np.zeros_like(odo)
        inflow[:-1, :] += odo[1:, :]
        inflow[1:, :] += odo[:-1, :]
        inflow[:, :-1] += odo[:, 1:]
        inflow[:, 1:] += odo[:, :-1]
        chips_in = sum(n for _, n in places)
        if (counts >= thresh).any():
            out.failure = "result is not stable"
        elif int(counts.sum()) + final.absorbed != chips_in:
            out.failure = "chips not conserved"
        elif not np.array_equal(counts, before - thresh * odo + inflow):
            out.failure = "result does not match its odometer"
        elif spec.mode == "open" and final.absorbed != int(((4 - degree) * odo).sum()):
            out.failure = "absorbed chips do not match the odometer"
        else:
            width, height, pixels = grid.decode_ppm(image)
            lut = np.array(grid.DEFAULT_PALETTE.colors, dtype=np.uint8)
            if (width, height) != (spec.cols, spec.rows) or not np.array_equal(pixels, lut[np.minimum(counts, 3)]):
                out.failure = "rendered image does not match the pile"
        if out.failure is None and generic:
            reference, ref_odo = sandpile.stabilize(grid.make_grid(spec), start)
            if reference.counts != final.counts or ref_odo.firings != odometer.firings:
                out.failure = "differs from sandpile.stabilize on the grid graph"
        return out


# --- monoid-tables ----------------------------------------------------------


class MonoidTables:
    name = "monoid-tables"
    host_kernel = "python"  # hostspeed kernel whose speed tracks these ops
    min_passes = 8
    # (count, size band) for corpus graphs, plus (count, k, d) members of the
    # cycle-with-loops family with seeded vertex order.  Corpus graphs of one
    # band differ in cost by up to tenfold, cycle members of one size hardly
    # at all.  About twelve corpus tables per pass cost less than the eight
    # 25-element cycles, which hold the median; only the largest corpus table
    # tends to cost more than the four 64-element cycles, which hold the 90th
    # percentile.  So neither percentile rests on a few heavy-tailed corpus
    # draws.  One table of 64-127 elements per pass, since their cost is the
    # most heavy-tailed and moves throughput most between seeds.  Tables stop
    # below 128 elements, since one 256-element table costs as much as forty
    # small ones and a run needs hundreds of ops for steady percentiles.
    BANDS = ((6, 8, 16), (8, 16, 32), (6, 32, 64), (1, 64, 128))
    CYCLES = ((8, 2, 5), (4, 3, 4))

    def make_pass(self, rng: Random) -> tuple[list[Op], dict]:
        ops = []
        for count, lo, hi in self.BANDS:
            for _ in range(count):
                ops.append(Op(f"corpus-{lo}", (_sandpile_graph_in_band(rng, lo, hi, 6, 4),)))
        for count, k, d in self.CYCLES:
            g = cycle_with_loops(k, d)
            for _ in range(count):
                order = list(g.vertices)
                rng.shuffle(order)
                ops.append(Op(f"cycle-{k}x{d}", (Graph.build(order, g.edges),)))
        rng.shuffle(ops)
        return ops, {}

    def warm_up(self, call) -> None:
        self.run(Op("warm", (cycle_with_loops(1),)), call, None)

    def run(self, op: Op, call, span):
        (g,) = op.inputs
        table = call(sandpile.sandpile_monoid, g)
        p = call(monoid.graph_monoid_presentation, g, weighted=True, sink_zero=True)
        return table, call(monoid.enumerate_monoid, p)

    def check(self, op: Op, value) -> Outcome:
        (g,) = op.inputs
        oracle, table = value
        # Both builders answer with a table or not: the sandpile table is always
        # definite, the enumeration can come back unknown.
        out = Outcome(decisions=[oracle is not None, table is not None])
        out.counts["sandpile.table_entries"] = oracle.size**2
        out.counts["monoid.enumerate_calls"] = 1
        if table is not None:
            out.counts["monoid.enumerate_decided"] = 1
            out.counts["monoid.table_elements"] = table.size
        nonsink = g.nonsink_vertices
        if oracle.size != _outdegree_product(g):
            out.failure = "sandpile table size is not the product of the outdegrees"
            return out
        # Recurrent configurations form the minimal ideal, the orbit of the
        # maximal stable configuration; their count is det of the reduced Laplacian.
        top = oracle.elements.index(tuple(g.outdegree(v) - 1 for v in nonsink))
        adjacency = graph.adjacency_matrix(g)
        keep = [g.index[v] for v in nonsink]
        laplacian = IntMatrix.from_rows(
            [[(g.outdegree(g.vertices[i]) if i == j else 0) - adjacency.at(i, j) for j in keep] for i in keep]
        )
        if len(set(oracle.add[top])) != matrix.det(laplacian):
            out.failure = "recurrent class count differs from det of the reduced Laplacian"
            return out
        if table is None:
            return out
        if table.size != oracle.size:
            out.failure = "enumerated table size differs from the sandpile table"
            return out
        mapping = [oracle.elements.index(sandpile.stabilize(g, sandpile.ChipConfig(rep))[0].counts) for rep in table.elements]
        n = table.size
        if sorted(mapping) != list(range(n)) or any(
            mapping[table.add[i][j]] != oracle.add[mapping[i]][mapping[j]] for i in range(n) for j in range(n)
        ):
            out.failure = "tables are not isomorphic through stabilization"
        return out


# --- algebra-queries --------------------------------------------------------


def _rewrite_walk(rng: Random, p: monoid.MonoidPresentation, x: tuple, steps: int) -> tuple:
    """Apply up to ``steps`` random relation rewrites (either direction) to x."""
    y = x
    for _ in range(steps):
        moves = []
        for lhs, rhs in p.relations:
            for src, dst in ((lhs, rhs), (rhs, lhs)):
                if all(a >= b for a, b in zip(y, src)):
                    moves.append(tuple(a - b + c for a, b, c in zip(y, src, dst)))
        if not moves:
            break
        y = rng.choice(moves)
    return y


def _coset_partner(rng: Random, p: monoid.MonoidPresentation, x: tuple) -> tuple:
    """x plus a random combination of relation differences, kept nonnegative:
    same lattice coset as x, so the coset certificate cannot separate them."""
    diffs = [tuple(a - b for a, b in zip(lhs, rhs)) for lhs, rhs in p.relations]
    for _ in range(64):
        y = list(x)
        for _ in range(rng.randint(1, 3)):
            sign = rng.choice((1, -1))
            y = [a + sign * b for a, b in zip(y, rng.choice(diffs))]
        if min(y) >= 0 and tuple(y) != x:
            return tuple(y)
    return _rewrite_walk(rng, p, x, 8)


def _es_pair(rng: Random) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    r = _random_matrix(rng, 2, 0, 2)
    s = _random_matrix(rng, 2, 0, 2)
    return r @ s, s @ r, r, s


def _random_graph(rng: Random, n: int, edges: int) -> Graph:
    names = [f"v{i}" for i in range(n)]
    return Graph.build(names, [(rng.choice(names), rng.choice(names)) for _ in range(edges)])


class AlgebraQueries:
    name = "algebra-queries"
    host_kernel = "python"  # hostspeed kernel whose speed tracks these ops
    min_passes = 8
    WORD_KINDS = ("walk", "coset", "random")
    # Eight 16x16 Smith forms of near-equal cost sit around the 90th percentile.
    SMITH_SIZES = (8, 8) + (16,) * 8 + (24, 32)

    def _word_ops(self, rng: Random, kind: str, count: int) -> list[Op]:
        ops = []
        for i in range(count):
            if kind == "vertex":
                g = corpus.random_sandpile_graph(rng, 5, 3)
                p = monoid.graph_monoid_presentation(g, weighted=True, sink_zero=True)
                x = tuple(rng.randint(0, 2) for _ in p.generators)
            else:
                g = corpus.random_sandpile_graph(rng, 4, 3)
                p = dimension.talented_window(g, 2).presentation
                x = tuple(rng.randint(0, 1) for _ in p.generators)
            y_kind = self.WORD_KINDS[i % 3]
            if y_kind == "walk":
                y = _rewrite_walk(rng, p, x, rng.randint(1, 6))
            elif y_kind == "coset":
                y = _coset_partner(rng, p, x)
            else:
                y = tuple(rng.randint(0, 2) for _ in p.generators)
            ops.append(Op(f"words-{kind}-{y_kind}", (p, x, y)))
        return ops

    def make_pass(self, rng: Random) -> tuple[list[Op], dict]:
        ops = self._word_ops(rng, "vertex", 12) + self._word_ops(rng, "window", 12)
        ops += [Op("smith", (_random_matrix(rng, n, -5, 5),)) for n in self.SMITH_SIZES]
        ops.append(Op("charpoly", (_random_matrix(rng, rng.choice((8, 12, 16)), -3, 3),)))
        ops.append(Op("det", (_random_matrix(rng, rng.choice((16, 24)), -9, 9),)))
        for _ in range(2):
            ops.append(Op("pow", (_random_matrix(rng, 3, 0, 2), rng.randint(16, 48))))
        for i in range(4):
            a = _random_matrix(rng, rng.randint(2, 4), 0, 3)
            if i % 2:
                perm = list(range(a.rows))
                rng.shuffle(perm)
                ops.append(Op("invariants-conjugate", (a, shifteq.apply_permutation(a, tuple(perm)))))
            else:
                ops.append(Op("invariants-random", (a, _random_matrix(rng, a.rows, 0, 3))))
        for _ in range(3):
            a, b, _, _ = _es_pair(rng)
            ops.append(Op("se-search", (a, b)))
        for _ in range(3):
            a, b, _, _ = _es_pair(rng)
            ops.append(Op("sse-search", (a, b)))
        for i in range(6):
            a = _random_matrix(rng, 3, 0, 2)
            x = dimension.DimElement(a, tuple(rng.randint(-5, 5) for _ in range(3)), rng.randint(0, 2))
            if i % 2:
                y = dimension.DimElement(a, matrix.vec_mat_mul(x.vec, a), x.stage + 1)
                ops.append(Op("dim-equal-pushed", (x, y)))
            else:
                y = dimension.DimElement(a, tuple(rng.randint(-5, 5) for _ in range(3)), rng.randint(0, 2))
                ops.append(Op("dim-equal-random", (x, y)))
        fib = IntMatrix(2, 2, (1, 1, 1, 0))
        for _ in range(3):
            ops.append(Op("dim-positive-fib", (dimension.DimElement(fib, (rng.randint(-50, 50), rng.randint(-50, 50))),)))
        for _ in range(3):
            a = _random_matrix(rng, 3, 0, 2)
            vec = tuple(rng.randint(-5, 5) for _ in range(3))
            ops.append(Op("dim-positive-random", (dimension.DimElement(a, vec, rng.randint(0, 2)),)))
        for _ in range(3):
            n = rng.randint(2, 6)
            ops.append(Op("lpa-simple", (_random_graph(rng, n, rng.randint(n, 2 * n)),)))
        # Two-vertex graphs keep the SE kernel search of every pair small; on
        # three vertices a relabelled pair can take seconds.
        for i in range(4):
            g = _random_graph(rng, 2, rng.randint(2, 4))
            if i % 2:
                ops.append(Op("kp-graded-relabelled", (g, Graph.build(g.vertices[::-1], g.edges))))
            else:
                ops.append(Op("kp-graded-random", (g, _random_graph(rng, 2, rng.randint(2, 4)))))
        rng.shuffle(ops)
        return ops, {}

    def warm_up(self, call) -> None:
        call(smith.smith_normal_form, IntMatrix(2, 2, (2, 4, 6, 8)))
        p = monoid.MonoidPresentation(("a", "b"), (((2, 0), (0, 1)),))
        call(monoid.words_equal, p, (2, 0), (0, 1))

    def run(self, op: Op, call, span):
        kind = op.kind
        if kind.startswith("words"):
            return call(monoid.words_equal, *op.inputs)
        if kind == "smith":
            return call(smith.smith_normal_form, *op.inputs)
        if kind == "charpoly":
            return call(matrix.charpoly, *op.inputs)
        if kind == "det":
            return call(matrix.det, *op.inputs)
        if kind == "pow":
            m, k = op.inputs
            return call(m.pow, k)
        if kind.startswith("invariants"):
            return call(shifteq.invariants_report, *op.inputs)
        if kind == "se-search":
            return call(shifteq.se_search, *op.inputs)
        if kind == "sse-search":
            return call(shifteq.sse_search, *op.inputs, max_depth=1, max_inner_dim=2)
        if kind.startswith("dim-equal"):
            return call(dimension.dim_equal, *op.inputs)
        if kind.startswith("dim-positive"):
            return call(dimension.dim_positive, *op.inputs)
        if kind == "lpa-simple":
            return call(lpa.lpa_simple, *op.inputs)
        if kind.startswith("kp-graded"):
            return call(lpa.kp_compare, *op.inputs, lpa.GRADED)
        raise ValueError(f"unknown op kind {kind!r}")

    def check(self, op: Op, value) -> Outcome:
        out = Outcome()
        kind = op.kind
        c = out.counts
        if kind.startswith("words"):
            p, x, y = op.inputs
            decided = value.verdict != monoid.UNKNOWN
            out.decisions.append(decided)
            c["monoid.word_queries"] += 1
            c["monoid.word_decided"] += decided
            if value.verdict == monoid.YES:
                c["monoid.path_steps"] += len(value.path) - 1
                if value.path[0] != x or value.path[-1] != y or not monoid.replay_path(p, value.path):
                    out.failure = "yes path does not replay from x to y"
            elif value.verdict == monoid.NO and kind.endswith("walk"):
                out.failure = "no for a pair joined by a rewrite walk"
        elif kind == "smith":
            (m,) = op.inputs
            u, d, v = value
            c["smith.transform_bits_max"] = max(abs(e).bit_length() for e in u.entries + v.entries)
            n = m.rows
            diag = [d.at(i, i) for i in range(n)]
            if (u @ m) @ v != d or not smith.is_unimodular(u) or not smith.is_unimodular(v):
                out.failure = "U M V != D or a transform is not unimodular"
            elif any(d.at(i, j) for i in range(n) for j in range(n) if i != j) or min(diag) < 0:
                out.failure = "D is not a nonnegative diagonal"
            elif any((diag[i + 1] % diag[i]) if diag[i] else diag[i + 1] for i in range(n - 1)):
                out.failure = "invariant factors do not divide each other"
        elif kind == "charpoly":
            (m,) = op.inputs
            if value[0] != 1 or value[-1] != (-1) ** m.rows * matrix.det(m):
                out.failure = "charpoly constant term is not (-1)^n det"
        elif kind == "det":
            (m,) = op.inputs
            if value != matrix.det(m.transpose()):
                out.failure = "det M != det M^T"
        elif kind == "pow":
            m, k = op.inputs
            if value != m.pow(k // 2) @ m.pow(k - k // 2):
                out.failure = "M^k != M^(k/2) M^(k - k/2)"
        elif kind.startswith("invariants"):
            out.decisions.append(True)
            if kind.endswith("conjugate") and value.verdict != "no_obstruction":
                out.failure = "obstruction between conjugate matrices"
        elif kind in ("se-search", "sse-search"):
            a, b = op.inputs
            c["shifteq.searches"] += 1
            if isinstance(value, shifteq.SearchExhausted):
                out.decisions.append(value.obstruction is not None)
                c["shifteq.decided"] += value.obstruction is not None
            else:
                out.decisions.append(True)
                c["shifteq.found"] += 1
                c["shifteq.decided"] += 1
                if kind == "se-search":
                    ok = shifteq.verify_se(a, b, value)
                else:
                    ok = shifteq.verify_sse_chain(value)[0] and value.matrices[0] == a and value.matrices[-1] == b
                if not ok:
                    out.failure = "witness does not verify"
        elif kind.startswith("dim"):
            decided = value != dimension.INCONCLUSIVE
            out.decisions.append(decided)
            c["dimension.queries"] += 1
            c["dimension.decided"] += decided
            if kind == "dim-equal-pushed" and value == dimension.NO:
                out.failure = "no for an element and its push"
            elif kind == "dim-positive-fib" and decided:
                (x,) = op.inputs
                if (value == dimension.POSITIVE) != dimension.fib_cone_member(*x.vec):
                    out.failure = "dim_positive disagrees with fib_cone_member"
        elif kind == "lpa-simple":
            (g,) = op.inputs
            if value.failure == "exitless_cycle" and lpa.lpa_zorn(g):
                out.failure = "exit-less cycle reported on a graph satisfying the cycle-exit condition"
        elif kind.startswith("kp-graded"):
            a, b = (graph.adjacency_matrix(g) for g in op.inputs)
            out.decisions.append(value.kind != "unknown")
            if value.kind == "iso_witness" and not shifteq.verify_se(a, b, value.se_witness):
                out.failure = "SE witness does not verify"
            elif kind.endswith("relabelled") and value.kind == "not_iso":
                out.failure = "not_iso for a relabelled copy"
        return out


# --- cli-session ------------------------------------------------------------

FOUR_VERTEX = "v u\nv v\nv z\nv s\ne u s\ne u v\ne u z\ne v s\ne v v\ne v u\ne z s\ne z z\ne z u\n"
README_FILES = {
    "e.graph": FOUR_VERTEX,
    "f.graph": "v u\nv v\nv s\ne u u\ne u v\ne v u\ne v s\n",
    "eightv.cfg": "v 8\n",
    "fib.mat": "2 2\n1 1\n1 0\n",
    "two.mat": "1 1\n2\n",
    "ones.mat": "2 2\n1 1\n1 1\n",
    "left.mat": "2 2\n1 3\n2 1\n",
    "right.mat": "2 2\n1 6\n1 1\n",
}
# The README worked session in order.  The two grid drops run at 51x51 with
# 2^10 chips instead of 201x201 with 2^14: every CLI op keeps its compute
# small, so this workload measures start-up, parsing and output.
README_SESSION = (
    ("trace", ["sandpile", "stabilize", "e.graph", "eightv.cfg", "--trace"], None),
    ("check", ["graph", "check", "e.graph"], None),
    ("monoid27", ["sandpile", "monoid", "e.graph"], None),
    ("grid", ["sandpile", "grid", "51", "51", "--mode", "open", "--place", "25,25,1024"], None),
    ("grid-save", ["sandpile", "grid", "51", "51", "--mode", "open", "--place", "25,25,1024", "--save-config", "pile.cfg"], None),
    ("render", ["sandpile", "render", "51", "51", "pile.cfg", "--mode", "open", "--out", "pile.ppm"], None),
    ("present", ["monoid", "present", "e.graph", "--weighted", "--sink-zero"], "e.pres"),
    ("equal", ["monoid", "equal", "e.pres", "3u", "v+z"], None),
    ("enumerate", ["monoid", "enumerate", "e.pres"], None),
    ("window", ["talented", "window", "e.graph", "1"], None),
    ("fib", ["dimgroup", "fib", "1", "0"], None),
    ("positive", ["dimgroup", "positive", "fib.mat", "[-1 2]@0"], None),
    ("search-sse", ["shift", "search-sse", "two.mat", "ones.mat", "--depth", "1", "--inner-dim", "2"], None),
    ("invariants", ["shift", "invariants", "left.mat", "right.mat"], None),
    ("matrix-iso", ["lpa", "matrix-iso", "2", "1", "2", "3"], None),
    ("compare", ["lpa", "compare", "f.graph", "e.graph", "--presentation", "sandpile"], None),
)
README_FILE_OUTPUTS = {"grid-save": "pile.cfg", "render": "pile.ppm"}
README_TRACE = "8v ⟿ 6v+u ⟿ 4v+2u ⟿ 2v+3u ⟿ 3v+z ⟿ v+u+z"
PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text("utf-8"))

# Verdicts and outcomes in CLI reports that are not definite answers.
_UNDECIDED = {"unknown", "inconclusive", "not_found"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(argv: list[str], workdir: Path, stdout_file: str | None, wrapper: list[str] | None = None) -> ChildResult:
    """One CLI process, waited for with wait4 so its own peak RSS is known."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    out_path = workdir / (stdout_file or ".stdout")
    err_path = workdir / ".stderr"
    cmd = (wrapper or [sys.executable, "-m", "monodyn.cli"]) + argv
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss)


def cli_in_process(argv: list[str], workdir: Path) -> tuple[int, bytes]:
    """The same invocation through monodyn.cli.run in this process."""
    buf = io.BytesIO()
    text = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    old = Path.cwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            text.flush()
    finally:
        os.chdir(old)
    return code, buf.getvalue()


def _report_decision(report: dict) -> bool | None:
    """Whether a CLI report answers a decision definitely; None when the
    command makes no decision."""
    kind = report.get("kind")
    if kind in ("word-equal", "dim-equal", "dim-positive", "invariants"):
        return report["verdict"] not in _UNDECIDED
    if kind in ("monoid-table", "sse-search", "compare"):
        return report["outcome"] not in _UNDECIDED
    if kind == "se-search":
        return report["outcome"] == "found" or "obstruction" in report
    if kind in ("fib-cone", "verify", "iso", "simple", "zorn"):
        return True
    return None


class CliSession:
    name = "cli-session"
    host_kernel = "interpreter"  # hostspeed kernel whose speed tracks these ops
    min_passes = 3

    def __init__(self):
        self.workdir: Path | None = None

    def _seeded(self, rng: Random, tag: str) -> tuple[list, dict]:
        """Small seeded CLI ops and their input files, named per pass."""
        files: dict[str, str] = {}
        ops: list = []

        def put(name: str, text: str) -> str:
            files[f"{tag}-{name}"] = text
            return f"{tag}-{name}"

        g = corpus.random_sandpile_graph(rng, 4, 3)
        ga = put("g.graph", graph.serialize_graph(g))
        cfg = {v: rng.randint(0, 9) for v in g.nonsink_vertices}
        stable = [{v: rng.randrange(g.outdegree(v)) for v in g.nonsink_vertices} for _ in range(2)]
        ca = put("c.cfg", "".join(f"{v} {n}\n" for v, n in cfg.items()))
        s1 = put("s1.cfg", "".join(f"{v} {n}\n" for v, n in stable[0].items()))
        s2 = put("s2.cfg", "".join(f"{v} {n}\n" for v, n in stable[1].items()))
        p = monoid.graph_monoid_presentation(g, weighted=True, sink_zero=True)
        pa = put("p.pres", monoid.serialize_presentation(p))
        x = tuple(rng.randint(0, 2) for _ in p.generators)
        y = _rewrite_walk(rng, p, x, rng.randint(1, 4))
        side = rng.randint(5, 15)
        m = _random_matrix(rng, 2, 0, 3)
        ma = put("m.mat", matrix.serialize_matrix(m))
        a, b, r, s = _es_pair(rng)
        aa, ba = put("a.mat", matrix.serialize_matrix(a)), put("b.mat", matrix.serialize_matrix(b))
        ra, sa = put("r.mat", matrix.serialize_matrix(r)), put("s.mat", matrix.serialize_matrix(s))
        chain = {"matrices": [a.to_rows(), b.to_rows()], "witnesses": [{"r": r.to_rows(), "s": s.to_rows()}]}
        cha = put("chain.json", json.dumps(chain))
        h = _random_graph(rng, rng.randint(2, 4), rng.randint(3, 7))
        ha = put("h.graph", graph.serialize_graph(h))

        def vec() -> str:
            return "[" + " ".join(str(rng.randint(-4, 4)) for _ in range(2)) + f"]@{rng.randint(0, 2)}"

        def term(v: tuple) -> str:
            return "+".join(name if c == 1 else f"{c}{name}" for c, name in zip(v, p.generators) if c) or "0"

        n, rr, mm, ss = rng.randint(2, 6), rng.randint(1, 9), rng.randint(2, 6), rng.randint(1, 9)
        mode = rng.choice(("open", "closed"))
        # A closed grid with fewer chips than edges always stabilizes.
        chips = rng.randint(16, 256) if mode == "open" else rng.randint(side, side * (side - 1))
        # Every subcommand the README session leaves out, and a seeded twin of
        # one README command per group.
        for argv in (
            ["graph", "check", ga],
            ["graph", "matrix", ga],
            ["sandpile", "stabilize", ga, ca],
            ["sandpile", "add", ga, s1, s2],
            ["sandpile", "monoid", ga],
            ["sandpile", "grid", str(side), str(side), "--mode", mode, "--place", f"{side // 2},{side // 2},{chips}"],
            ["monoid", "equal", pa, term(x), term(y)],
            ["talented", "window", ga, "1"],
            ["dimgroup", "equal", ma, vec(), vec()],
            ["dimgroup", "shift", ma, vec(), "--direction", rng.choice(("forward", "backward"))],
            ["shift", "verify-es", aa, ba, ra, sa],
            ["shift", "verify-se", aa, ba, ra, sa, "--lag", str(rng.randint(1, 2))],
            ["shift", "verify-chain", cha],
            ["shift", "search-se", aa, ba],
            ["lpa", "simple", ha],
            ["lpa", "zorn", ha],
            ["lpa", "ht-iso", str(n), str(rr), str(mm), str(ss)],
        ):
            ops.append(Op("seeded", (argv, None, None)))
        # The two malformed inputs listed in ROADMAP.md: both should end in a
        # JSON error report; when this benchmark was written both printed a
        # traceback instead.
        bad = put("bad-chain.json", '{"matrices": [[[1]]], "witnesses": [')
        ops.append(Op("malformed", (["sandpile", "grid", "3", "3", "--place", "a,b,c"], None, None), "ValueError traceback"))
        ops.append(Op("malformed", (["shift", "verify-chain", bad], None, None), "JSONDecodeError traceback"))
        return ops, files

    def make_pass(self, rng: Random) -> tuple[list[Op], dict]:
        ops, files = self._seeded(rng, f"x{rng.randrange(10**6)}")
        rng.shuffle(ops)
        readme = [Op(f"readme-{label}", (argv, stdout_file, label)) for label, argv, stdout_file in README_SESSION]
        at = rng.randrange(len(ops) + 1)
        return ops[:at] + readme + ops[at:], {**README_FILES, **files}

    def warm_up(self, call) -> None:
        run_child(["lpa", "matrix-iso", "2", "1", "2", "3"], self.workdir, None)

    def run(self, op: Op, call, span):
        argv, stdout_file, _ = op.inputs
        with span("cli", " ".join(argv[:2])) as spans_file:
            wrapper = None if spans_file is None else [sys.executable, str(CLI_CHILD), str(spans_file)]
            return run_child(argv, self.workdir, stdout_file, wrapper)

    def check(self, op: Op, value: ChildResult) -> Outcome:
        argv, _, label = op.inputs
        out = Outcome()
        report = None
        try:
            report = json.loads(value.stdout)
        except ValueError:
            pass
        if isinstance(report, dict):
            decided = _report_decision(report)
            if decided is not None:
                out.decisions.append(decided)
        if op.kind == "malformed":
            out.counts["cli.error_expected"] += 1
            is_error = isinstance(report, dict) and report.get("kind") == "error"
            out.counts["cli.error_json"] += is_error
            if not is_error or value.code not in (2, 3) or b"Traceback" in value.stderr:
                out.failure = f"no JSON error report (exit {value.code})"
            return out
        if value.code not in (0, 1, 2, 3) or b"Traceback" in value.stderr:
            out.failure = f"exit {value.code} or traceback"
        elif label is not None:
            code, digest, file_digest = PINNED[label]
            if value.code != code or _sha(value.stdout) != digest:
                out.failure = "report differs from its pinned bytes"
            elif file_digest and _sha((self.workdir / README_FILE_OUTPUTS[label]).read_bytes()) != file_digest:
                out.failure = "written file differs from its pinned bytes"
            elif label == "trace" and value.stdout.decode("utf-8").strip() != README_TRACE:
                out.failure = "worked trace differs from the README"
            elif label in ("monoid27", "enumerate") and len(report["table"]["elements"]) != 27:
                out.failure = "four-vertex table does not have 27 elements"
        else:
            code, data = cli_in_process(argv, self.workdir)
            if (code, data) != (value.code, value.stdout):
                out.failure = "report differs from monodyn.cli.run in process"
        return out


WORKLOADS = {w.name: w for w in (GridPiles, MonoidTables, AlgebraQueries, CliSession)}
