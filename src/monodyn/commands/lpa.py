"""``monodyn lpa``: simplicity, condition (L), the matrix-Leavitt and
Higman-Thompson isomorphism criteria, and Kirchberg-Phillips comparison."""

from __future__ import annotations

from . import invariants_json, load_graph, stopped_report, witness_json


def _cmd_lpa_simple(args, bounds):
    from ..lpa import lpa_simple

    g = load_graph(args.graph)
    v = lpa_simple(g)
    return (0 if v.simple else 1), {
        "kind": "simple",
        "simple": v.simple,
        "failure": v.failure,
        "witness_vertex": v.witness_vertex,
        "witness_target": list(v.witness_target) if v.witness_target else None,
        "witness_cycle": list(v.witness_cycle) if v.witness_cycle else None,
    }


def _cmd_lpa_zorn(args, bounds):
    g = load_graph(args.graph)
    cycle = g.exitless_cycle
    report = {"kind": "zorn", "zorn": cycle is None, "witness_cycle": list(cycle) if cycle else None}
    return (0 if cycle is None else 1), report


def _cmd_lpa_iso(args, bounds):
    from ..lpa import higman_thompson_iso, matrix_leavitt_iso

    test = matrix_leavitt_iso if args.condition == "matrix-leavitt" else higman_thompson_iso
    result = test(args.n, args.r, args.m, args.s)
    return (0 if result else 1), {"kind": "iso", "result": result, "condition": args.condition}


def _cmd_lpa_compare(args, bounds):
    from ..lpa import kp_compare

    first = load_graph(args.graph_a)
    second = load_graph(args.graph_b)
    verdict = kp_compare(
        first,
        second,
        mode=args.mode,
        presentation=args.presentation,
        max_elements=bounds.max_elements,
        node_budget=bounds.node_budget,
        max_lag=bounds.max_lag,
        coeff_bound=bounds.coeff_bound,
    )
    report = {"kind": "compare", "outcome": verdict.kind, "detail": verdict.detail, "mode": args.mode}
    if verdict.generator_images is not None:
        report["generator_images"] = list(verdict.generator_images)
    if verdict.se_witness is not None:
        report["se_witness"] = witness_json(verdict.se_witness.r, verdict.se_witness.s)
        report["lag"] = verdict.se_witness.lag
    if verdict.invariants is not None:
        report["invariants"] = invariants_json(verdict.invariants)
    if verdict.stopped is not None:
        return stopped_report(report, verdict.stopped)
    return (0 if verdict.kind == "iso_witness" else 1), report


def add_commands(group, command) -> None:
    p = command(group, "simple", _cmd_lpa_simple)
    p.add_argument("graph")
    p = command(group, "zorn", _cmd_lpa_zorn)
    p.add_argument("graph")
    for name, condition in (("matrix-iso", "matrix-leavitt"), ("ht-iso", "higman-thompson")):
        p = command(group, name, _cmd_lpa_iso)
        p.set_defaults(condition=condition)
        for arg in ("n", "r", "m", "s"):
            p.add_argument(arg, type=int)
    p = command(
        group,
        "compare",
        _cmd_lpa_compare,
        ("max_elements", "node_budget", "max_lag", "coeff_bound"),
    )
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--mode", choices=("plain", "graded"), default="plain")
    p.add_argument(
        "--presentation",
        choices=("unweighted", "weighted", "sandpile"),
        default="unweighted",
    )
