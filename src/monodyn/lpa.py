"""Graph-combinatorial classifiers for Leavitt path algebras.

``lpa_simple`` evaluates the two simplicity conditions on a finite graph
(Abrams-Aranda Pino, "The Leavitt path algebra of a graph", J. Algebra
2005): every vertex connects to every cycle and every sink (cofinality),
and every cycle has an exit.  ``lpa_zorn`` is the cycle-exit condition
alone.  Both read the structure a ``Graph`` caches, so only ``kp_compare``
loads graph code.  Cofinality holds exactly when the sinks and the
cycle-holding components together make at most one component, because

- a closed component (no edge leaving it) reaches no other component;
- every vertex reaches some closed component;
- every closed component is either a sink or holds a cycle;

and of two such components, one does not reach the other.  The gcd
classifiers decide isomorphism of matrix algebras over the classical
Leavitt algebras and of the corresponding Higman-Thompson groups; both
theorems share one arithmetic condition.

``kp_compare`` is deliberately an exploration tool for two open
classification questions: it reports monoid- and matrix-level evidence
(explicit witnesses or invariant obstructions) and never claims anything
about the algebras themselves.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .config import DEFAULT_BOUNDS
from .errors import Frozen, ShapeError

if TYPE_CHECKING:
    from .graph import Graph
    from .shifteq import SEWitness

PLAIN = "plain"
GRADED = "graded"

UNWEIGHTED = "unweighted"
WEIGHTED = "weighted"
SANDPILE = "sandpile"


class SimplicityVerdict(Frozen):
    __slots__ = ("simple", "failure", "witness_vertex", "witness_target", "witness_cycle")

    def __init__(
        self,
        simple: bool,
        failure: str | None = None,  # "cofinality" | "exitless_cycle"
        witness_vertex: str | None = None,
        witness_target: tuple[str, ...] | None = None,  # unreached sink or cycle component
        witness_cycle: tuple[str, ...] | None = None,
    ):
        super().__init__(simple, failure, witness_vertex, witness_target, witness_cycle)


class CompareVerdict(Frozen):
    __slots__ = (
        "kind", "detail", "generator_images", "se_witness", "invariants", "bounds", "stopped_by",
    )
    __hash__ = None  # ``bounds`` may be a dict

    def __init__(
        self,
        kind: str,  # "iso_witness" | "not_iso" | "unknown"
        detail: str,
        generator_images: tuple[int, ...] | None = None,
        se_witness: SEWitness | None = None,
        invariants: object | None = None,
        bounds: dict | None = None,
        stopped_by: str | None = None,  # why an enumeration stopped, for unknown
    ):
        super().__init__(kind, detail, generator_images, se_witness, invariants, bounds, stopped_by)


def lpa_simple(g: Graph) -> SimplicityVerdict:
    sinks = g.sinks
    cycles = g.cyclic_components
    if len(sinks) + len(cycles) > 1:
        # Cofinality fails.  The witness is the first vertex that misses a
        # target, with the first target it misses, sinks before cycles.  A
        # component's vertices reach the same set, and a target is reached
        # whole or not at all, so one question per component suffices.
        targets = tuple((s,) for s in sinks) + cycles
        for comp in g.components:
            for target in targets:
                if not g.reaches(comp[0], target[0]):
                    return SimplicityVerdict(
                        False, "cofinality", witness_vertex=comp[0], witness_target=target
                    )
    cycle = g.exitless_cycle
    if cycle is not None:
        return SimplicityVerdict(False, "exitless_cycle", witness_cycle=cycle)
    return SimplicityVerdict(True)


def lpa_zorn(g: Graph) -> bool:
    return g.exitless_cycle is None


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
    from .monoid import graph_monoid_presentation

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
    isomorphism of the tables.  Graded mode maps ``se_search`` on the
    adjacency matrices to a verdict: its verified lag witness counts as a
    positive certificate, its invariant obstruction as a negative one,
    anything else is unknown.
    """
    from .graph import adjacency_matrix
    from .monoid import _enumerate_monoid, find_unit_isomorphism
    from .shifteq import SEWitness, se_search

    if mode == GRADED:
        a = adjacency_matrix(first)
        b = adjacency_matrix(second)
        found = se_search(a, b, max_lag=max_lag, coeff_bound=coeff_bound)
        if isinstance(found, SEWitness):
            return CompareVerdict(
                "iso_witness", f"lag-{found.lag} witness", se_witness=found
            )
        if found.obstruction is not None:
            return CompareVerdict(
                "not_iso",
                "invariant obstruction on adjacency matrices",
                invariants=found.obstruction,
            )
        return CompareVerdict(
            "unknown",
            "no witness within bounds and no invariant obstruction",
            bounds=found.bounds,
            invariants=found.invariants,
        )

    if mode != PLAIN:
        raise ShapeError(f"mode must be 'plain' or 'graded', got {mode!r}")

    p1 = _presentation_for(first, presentation)
    p2 = _presentation_for(second, presentation)
    t1, why1 = _enumerate_monoid(p1, max_elements, node_budget)
    t2, why2 = _enumerate_monoid(p2, max_elements, node_budget)
    if t1 is None or t2 is None:
        return CompareVerdict(
            "unknown",
            "monoid enumeration did not close within bounds",
            bounds={"max_elements": max_elements, "node_budget": node_budget},
            stopped_by=why1 or why2,
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
