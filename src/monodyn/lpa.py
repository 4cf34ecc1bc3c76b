"""Graph-combinatorial classifiers for Leavitt path algebras.

``lpa_simple`` evaluates the two simplicity conditions on a finite graph:
every vertex connects to every cycle and every sink, and every cycle has an
exit.  ``lpa_zorn`` is the cycle-exit condition alone.  The gcd classifiers
decide isomorphism of matrix algebras over the classical Leavitt algebras
and of the corresponding Higman-Thompson groups; both theorems share one
arithmetic condition.

``kp_compare`` is deliberately an exploration tool for two open
classification questions: it reports monoid- and matrix-level evidence
(explicit witnesses or invariant obstructions) and never claims anything
about the algebras themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_BOUNDS
from .errors import ShapeError
from .graph import Graph, adjacency_matrix, every_cycle_has_exit, strongly_connected_components
from .monoid import (
    enumerate_monoid,
    find_unit_isomorphism,
    graph_monoid_presentation,
)
from .shifteq import SEWitness, invariants_report, se_search, verify_se

PLAIN = "plain"
GRADED = "graded"

UNWEIGHTED = "unweighted"
WEIGHTED = "weighted"
SANDPILE = "sandpile"


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    failure: str | None = None  # "cofinality" | "exitless_cycle"
    witness_vertex: str | None = None
    witness_target: tuple[str, ...] | None = None  # unreached sink or cycle component
    witness_cycle: tuple[str, ...] | None = None


@dataclass(frozen=True)
class CompareVerdict:
    kind: str  # "iso_witness" | "not_iso" | "unknown"
    detail: str
    generator_images: tuple[int, ...] | None = None
    se_witness: SEWitness | None = None
    invariants: object | None = None
    bounds: dict | None = None


def cycle_bearing_components(g: Graph) -> tuple[tuple[str, ...], ...]:
    """Strongly connected components that contain at least one cycle: more
    than one vertex, or a single vertex with a loop."""
    out = []
    for comp in strongly_connected_components(g):
        if len(comp) > 1:
            out.append(comp)
        else:
            v = comp[0]
            if any(dst == v for dst, _ in g.out_adj[v]):
                out.append(comp)
    return tuple(out)


def lpa_simple(g: Graph) -> SimplicityVerdict:
    sinks = g.sinks
    cycles = cycle_bearing_components(g)
    for v in g.vertices:
        reach = g.reachable_from(v)
        for s in sinks:
            if s not in reach:
                return SimplicityVerdict(
                    False, "cofinality", witness_vertex=v, witness_target=(s,)
                )
        for comp in cycles:
            if not any(u in reach for u in comp):
                return SimplicityVerdict(
                    False, "cofinality", witness_vertex=v, witness_target=comp
                )
    ok, cycle = every_cycle_has_exit(g)
    if not ok:
        return SimplicityVerdict(False, "exitless_cycle", witness_cycle=cycle)
    return SimplicityVerdict(True)


def lpa_zorn(g: Graph) -> bool:
    return every_cycle_has_exit(g)[0]


def _gcd_condition(n: int, r: int, m: int, s: int) -> bool:
    for name, value, low in (("n", n, 2), ("m", m, 2), ("r", r, 1), ("s", s, 1)):
        if value < low:
            raise ShapeError(f"parameter {name} must be >= {low}, got {value}")
    return n == m and math.gcd(r, n - 1) == math.gcd(s, n - 1)


def matrix_leavitt_iso(n: int, r: int, m: int, s: int) -> bool:
    """Whether the r x r and s x s matrix algebras over the classical Leavitt
    algebras of types (1, n) and (1, m) are isomorphic."""
    return _gcd_condition(n, r, m, s)


def higman_thompson_iso(n: int, r: int, m: int, s: int) -> bool:
    """Whether the Higman-Thompson groups of types (n, r) and (m, s) are
    isomorphic; the condition coincides with matrix_leavitt_iso."""
    return _gcd_condition(n, r, m, s)


def _presentation_for(g: Graph, presentation: str):
    if presentation == UNWEIGHTED:
        return graph_monoid_presentation(g)
    if presentation == WEIGHTED:
        return graph_monoid_presentation(g, weighted=True)
    if presentation == SANDPILE:
        return graph_monoid_presentation(g, weighted=True, sink_zero=True)
    raise ShapeError(f"unknown presentation kind {presentation!r}")


def kp_compare(
    first: Graph,
    second: Graph,
    mode: str = PLAIN,
    *,
    presentation: str = UNWEIGHTED,
    max_elements: int = DEFAULT_BOUNDS.max_elements,
    node_budget: int = DEFAULT_BOUNDS.node_budget,
    max_lag: int = DEFAULT_BOUNDS.max_lag,
    coeff_bound: int = DEFAULT_BOUNDS.coeff_bound,
) -> CompareVerdict:
    """Bounded comparison of the two graphs' monoid-level invariants.

    Plain mode enumerates the requested vertex-monoid presentations and, when
    both are finite, searches exhaustively for an order-unit-preserving
    isomorphism of the tables.  Graded mode works on the adjacency matrices:
    a verified lag witness counts as a positive certificate, an invariant
    mismatch as a negative one, anything else is unknown.
    """
    if mode == GRADED:
        a = adjacency_matrix(first)
        b = adjacency_matrix(second)
        report = invariants_report(a, b)
        if report.verdict == "obstruction":
            return CompareVerdict(
                "not_iso",
                "invariant obstruction on adjacency matrices",
                invariants=report,
            )
        found = se_search(a, b, max_lag=max_lag, coeff_bound=coeff_bound)
        if isinstance(found, SEWitness):
            if not verify_se(a, b, found):
                raise AssertionError("search returned a witness that does not verify")
            return CompareVerdict(
                "iso_witness", f"lag-{found.lag} witness", se_witness=found
            )
        return CompareVerdict(
            "unknown",
            "no witness within bounds and no invariant obstruction",
            bounds=found.bounds,
            invariants=report,
        )

    if mode != PLAIN:
        raise ShapeError(f"mode must be 'plain' or 'graded', got {mode!r}")

    p1 = _presentation_for(first, presentation)
    p2 = _presentation_for(second, presentation)
    t1 = enumerate_monoid(p1, max_elements, node_budget=node_budget)
    t2 = enumerate_monoid(p2, max_elements, node_budget=node_budget)
    if t1 is None or t2 is None:
        return CompareVerdict(
            "unknown",
            "monoid enumeration did not close within bounds",
            bounds={"max_elements": max_elements, "node_budget": node_budget},
        )
    if t1.size != t2.size:
        return CompareVerdict(
            "not_iso", f"element counts differ: {t1.size} vs {t2.size}"
        )
    images = find_unit_isomorphism(p1, t1, t2)
    if images is not None:
        return CompareVerdict(
            "iso_witness",
            "order-unit-preserving isomorphism of finite tables",
            generator_images=images,
        )
    return CompareVerdict(
        "not_iso",
        "exhaustive search found no order-unit-preserving isomorphism "
        f"between tables of size {t1.size}",
    )
