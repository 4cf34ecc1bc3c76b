"""Command-line front end.

Machine output is a single JSON report per invocation with a ``kind`` tag,
printed with sorted keys so identical inputs give byte-identical bytes;
images are binary PPM and stabilization traces are plain text.  Exit codes:
0 for an affirmative result, 1 for a negative, not-found, or unknown
verdict, 2 for usage errors, 3 for runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .config import DEFAULT_BOUNDS, Bounds, load_bounds
from .dimension import (
    delta_shift,
    dim_equal,
    dim_positive,
    fib_cone_member,
    format_dim_element,
    parse_dim_element,
    talented_window,
)
from .errors import BudgetExceededError, MonodynError, ParseError
from .graph import adjacency_matrix, parse_graph, structure_report
from .grid import (
    DEFAULT_PALETTE,
    GridSpec,
    grid_config,
    make_grid,
    parse_palette,
    render_ppm,
    stabilize_grid,
)
from .lpa import higman_thompson_iso, kp_compare, lpa_simple, matrix_leavitt_iso
from .matrix import IntMatrix, parse_matrix, serialize_matrix
from .monoid import (
    enumerate_monoid,
    graph_monoid_presentation,
    parse_element,
    parse_presentation,
    serialize_presentation,
    words_equal,
    _format_side,
)
from .sandpile import (
    ChipConfig,
    format_config_terms,
    parse_config,
    sandpile_monoid,
    stable_add,
    stabilize,
)
from .shifteq import (
    ESWitness,
    SEWitness,
    SSEChain,
    invariants_report,
    se_search,
    sse_search,
    verify_elementary,
    verify_se,
    verify_sse_chain,
)


def load_report_schema() -> dict:
    """The published JSON schema every report validates against."""
    text = resources.files("monodyn").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def _matrix_json(m: IntMatrix) -> list[list[int]]:
    return m.to_rows()


def _witness_json(r: IntMatrix, s: IntMatrix) -> dict:
    return {"r": _matrix_json(r), "s": _matrix_json(s)}


def _invariants_json(rep) -> dict:
    return {
        "bowen_franks_a": list(rep.bf_factors_a),
        "bowen_franks_b": list(rep.bf_factors_b),
        "free_rank_a": rep.bf_free_rank_a,
        "free_rank_b": rep.bf_free_rank_b,
        "charpoly_core_a": list(rep.charpoly_core_a),
        "charpoly_core_b": list(rep.charpoly_core_b),
        "verdict": rep.verdict,
    }


def _chain_json(chain: SSEChain) -> dict:
    return {
        "matrices": [_matrix_json(m) for m in chain.matrices],
        "witnesses": [_witness_json(w.r, w.s) for w in chain.witnesses],
    }


def _matrix_from_json(rows) -> IntMatrix:
    # IntMatrix.from_rows would truncate 1.9 to 1 and read "7" as 7.
    if not all(type(x) is int for row in rows for x in row):
        raise ParseError("chain matrices must hold JSON integers")
    return IntMatrix.from_rows(rows)


def _chain_from_json(text: str) -> SSEChain:
    try:
        doc = json.loads(text)
        matrices = tuple(_matrix_from_json(rows) for rows in doc["matrices"])
        witnesses = tuple(
            ESWitness(_matrix_from_json(w["r"]), _matrix_from_json(w["s"]))
            for w in doc["witnesses"]
        )
    except (ValueError, KeyError, TypeError) as err:
        # json.JSONDecodeError is a ValueError; KeyError and TypeError come
        # from documents of the wrong shape.
        raise ParseError(f"malformed chain document: {err}") from None
    return SSEChain(matrices, witnesses)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str):
    return parse_graph(_read(path))


def _load_matrix(path: str) -> IntMatrix:
    return parse_matrix(_read(path))


class _Out:
    """Collects the result of a handler: JSON report, raw text, or bytes."""

    def __init__(self):
        self.code = 0
        self.report: dict | None = None
        self.text: str | None = None
        self.binary: bytes | None = None


# --- handlers ---------------------------------------------------------------


def _cmd_graph_check(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    rep = structure_report(g)
    out.report = {
        "kind": "structure",
        "sinks": list(rep.sinks),
        "strongly_connected": rep.strongly_connected,
        "scc_partition": [list(c) for c in rep.scc_partition],
        "sandpile": rep.sandpile,
        "sink": rep.sink_name,
        "outdegrees": dict(zip(g.vertices, rep.outdegrees)),
        "indegrees": dict(zip(g.vertices, rep.indegrees)),
    }


def _cmd_graph_matrix(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    m = adjacency_matrix(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_matrix(m))
    out.report = {
        "kind": "matrix",
        "rows": m.rows,
        "cols": m.cols,
        "entries": _matrix_json(m),
    }


def _cmd_sandpile_stabilize(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    start = parse_config(g, _read(args.config))
    trace: list[ChipConfig] | None = [] if args.trace else None
    try:
        config, odometer = stabilize(g, start, budget=bounds.firing_budget, trace_to=trace)
    except BudgetExceededError as err:
        out.code = 1
        out.report = {
            "kind": "stabilize",
            "stabilized": False,
            "budget": bounds.firing_budget,
            "firings": err.fired,
        }
        return
    if args.trace:
        out.text = " ⟿ ".join(format_config_terms(g, [start] + trace))
        return
    out.report = {
        "kind": "stabilize",
        "stabilized": True,
        "config": config.to_mapping(g),
        "odometer": odometer.to_mapping(g),
        "absorbed": config.absorbed,
        "firings": odometer.total(),
    }


def _cmd_sandpile_add(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    a = parse_config(g, _read(args.config_a))
    b = parse_config(g, _read(args.config_b))
    result = stable_add(g, a, b, budget=bounds.firing_budget)
    out.report = {
        "kind": "stable-add",
        "config": result.to_mapping(g),
        "absorbed": result.absorbed,
    }


def _cmd_sandpile_monoid(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    table = sandpile_monoid(g, max_elements=bounds.max_elements, budget=bounds.firing_budget)
    out.report = {"kind": "monoid-table", "outcome": "table", "table": table.to_json_dict()}


def _parse_places(raw: list[str]) -> dict[tuple[int, int], int]:
    places: dict[tuple[int, int], int] = {}
    for chunk in raw:
        parts = chunk.split(",")
        if len(parts) != 3:
            raise MonodynError(f"--place wants 'row,col,chips', got {chunk!r}")
        try:
            r, c, n = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"--place wants integers 'row,col,chips', got {chunk!r}") from None
        places[(r, c)] = places.get((r, c), 0) + n
    return places


def _cmd_sandpile_grid(args, bounds: Bounds, out: _Out):
    spec = GridSpec(args.rows, args.cols, args.mode)
    config = grid_config(spec, _parse_places(args.place))
    try:
        final, odometer = stabilize_grid(spec, config, budget=bounds.firing_budget)
    except BudgetExceededError as err:
        out.code = 1
        out.report = {
            "kind": "grid",
            "rows": spec.rows,
            "cols": spec.cols,
            "mode": spec.mode,
            "stabilized": False,
            "budget": bounds.firing_budget,
            "firings": err.fired,
        }
        return
    histogram: dict[str, int] = {}
    for count in final.counts:
        key = str(count)
        histogram[key] = histogram.get(key, 0) + 1
    if args.save_config:
        g = make_grid(spec)
        from .sandpile import serialize_config

        with open(args.save_config, "w", encoding="utf-8") as fh:
            fh.write(serialize_config(g, final))
    out.report = {
        "kind": "grid",
        "rows": spec.rows,
        "cols": spec.cols,
        "mode": spec.mode,
        "stabilized": True,
        "absorbed": final.absorbed,
        "firings": odometer.total(),
        "histogram": histogram,
    }


def _cmd_sandpile_render(args, bounds: Bounds, out: _Out):
    spec = GridSpec(args.rows, args.cols, args.mode)
    g = make_grid(spec)
    config = parse_config(g, _read(args.config))
    palette = parse_palette(args.palette) if args.palette else DEFAULT_PALETTE
    data = render_ppm(spec, config, palette)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        out.binary = data


def _cmd_monoid_present(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    p = graph_monoid_presentation(g, weighted=args.weighted, sink_zero=args.sink_zero)
    out.text = serialize_presentation(p).rstrip("\n")


def _cmd_monoid_equal(args, bounds: Bounds, out: _Out):
    p = parse_presentation(_read(args.presentation))
    x = parse_element(p, args.lhs)
    y = parse_element(p, args.rhs)
    res = words_equal(p, x, y, bounds.search_depth, node_budget=bounds.node_budget)
    report = {"kind": "word-equal", "verdict": res.verdict}
    if res.path is not None:
        report["path"] = [_format_side(p, v) for v in res.path]
    out.report = report
    out.code = 0 if res.verdict == "yes" else 1


def _cmd_monoid_enumerate(args, bounds: Bounds, out: _Out):
    p = parse_presentation(_read(args.presentation))
    table = enumerate_monoid(p, bounds.max_elements, node_budget=bounds.node_budget)
    if table is None:
        out.code = 1
        out.report = {
            "kind": "monoid-table",
            "outcome": "unknown",
            "bounds": {"max_elements": bounds.max_elements, "node_budget": bounds.node_budget},
        }
        return
    out.report = {"kind": "monoid-table", "outcome": "table", "table": table.to_json_dict()}


def _cmd_talented_window(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    w = talented_window(g, args.radius)
    out.text = serialize_presentation(w.presentation).rstrip("\n")


def _cmd_dim_equal(args, bounds: Bounds, out: _Out):
    m = _load_matrix(args.matrix)
    x = parse_dim_element(m, args.lhs)
    y = parse_dim_element(m, args.rhs)
    verdict = dim_equal(x, y, bounds.max_power)
    out.report = {"kind": "dim-equal", "verdict": verdict}
    out.code = 0 if verdict == "yes" else 1


def _cmd_dim_positive(args, bounds: Bounds, out: _Out):
    m = _load_matrix(args.matrix)
    x = parse_dim_element(m, args.element)
    verdict = dim_positive(x, bounds.max_power)
    out.report = {"kind": "dim-positive", "verdict": verdict}
    out.code = 0 if verdict == "positive" else 1


def _cmd_dim_shift(args, bounds: Bounds, out: _Out):
    m = _load_matrix(args.matrix)
    x = parse_dim_element(m, args.element)
    shifted = delta_shift(x, args.direction)
    out.report = {"kind": "dim-shift", "element": format_dim_element(shifted)}


def _cmd_dim_fib(args, bounds: Bounds, out: _Out):
    member = fib_cone_member(args.m, args.n)
    out.report = {"kind": "fib-cone", "member": member, "m": args.m, "n": args.n}
    out.code = 0 if member else 1


def _cmd_shift_verify_es(args, bounds: Bounds, out: _Out):
    a, b = _load_matrix(args.a), _load_matrix(args.b)
    w = ESWitness(_load_matrix(args.r), _load_matrix(args.s))
    ok = verify_elementary(a, b, w)
    out.report = {"kind": "verify", "check": "elementary", "ok": ok}
    out.code = 0 if ok else 1


def _cmd_shift_verify_se(args, bounds: Bounds, out: _Out):
    a, b = _load_matrix(args.a), _load_matrix(args.b)
    w = SEWitness(_load_matrix(args.r), _load_matrix(args.s), args.lag)
    ok = verify_se(a, b, w)
    out.report = {"kind": "verify", "check": "shift-equivalence", "ok": ok, "lag": args.lag}
    out.code = 0 if ok else 1


def _cmd_shift_verify_chain(args, bounds: Bounds, out: _Out):
    chain = _chain_from_json(_read(args.chain))
    ok, failing = verify_sse_chain(chain)
    out.report = {"kind": "verify", "check": "chain", "ok": ok, "failing_index": failing}
    out.code = 0 if ok else 1


def _cmd_shift_search_sse(args, bounds: Bounds, out: _Out):
    a, b = _load_matrix(args.a), _load_matrix(args.b)
    result = sse_search(a, b, max_depth=bounds.search_depth, max_inner_dim=bounds.max_inner_dim)
    if isinstance(result, SSEChain):
        out.report = {"kind": "sse-search", "outcome": "found", "chain": _chain_json(result)}
        return
    out.code = 1
    out.report = {"kind": "sse-search", "outcome": "not_found", "bounds": result.bounds}


def _cmd_shift_search_se(args, bounds: Bounds, out: _Out):
    a, b = _load_matrix(args.a), _load_matrix(args.b)
    result = se_search(a, b, max_lag=bounds.max_lag, coeff_bound=bounds.coeff_bound)
    if isinstance(result, SEWitness):
        out.report = {
            "kind": "se-search",
            "outcome": "found",
            "witness": _witness_json(result.r, result.s),
            "lag": result.lag,
        }
        return
    out.code = 1
    report = {"kind": "se-search", "outcome": "not_found", "bounds": result.bounds}
    if result.obstruction is not None:
        report["obstruction"] = _invariants_json(result.obstruction)
    out.report = report


def _cmd_shift_invariants(args, bounds: Bounds, out: _Out):
    a, b = _load_matrix(args.a), _load_matrix(args.b)
    rep = invariants_report(a, b)
    out.report = {"kind": "invariants", "verdict": rep.verdict, "report": _invariants_json(rep)}
    out.code = 0 if rep.verdict == "no_obstruction" else 1


def _cmd_lpa_simple(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    v = lpa_simple(g)
    out.report = {
        "kind": "simple",
        "simple": v.simple,
        "failure": v.failure,
        "witness_vertex": v.witness_vertex,
        "witness_target": list(v.witness_target) if v.witness_target else None,
        "witness_cycle": list(v.witness_cycle) if v.witness_cycle else None,
    }
    out.code = 0 if v.simple else 1


def _cmd_lpa_zorn(args, bounds: Bounds, out: _Out):
    g = _load_graph(args.graph)
    from .graph import every_cycle_has_exit

    ok, cycle = every_cycle_has_exit(g)
    out.report = {"kind": "zorn", "zorn": ok, "witness_cycle": list(cycle) if cycle else None}
    out.code = 0 if ok else 1


def _cmd_lpa_matrix_iso(args, bounds: Bounds, out: _Out):
    result = matrix_leavitt_iso(args.n, args.r, args.m, args.s)
    out.report = {"kind": "iso", "result": result, "condition": "matrix-leavitt"}
    out.code = 0 if result else 1


def _cmd_lpa_ht_iso(args, bounds: Bounds, out: _Out):
    result = higman_thompson_iso(args.n, args.r, args.m, args.s)
    out.report = {"kind": "iso", "result": result, "condition": "higman-thompson"}
    out.code = 0 if result else 1


def _cmd_lpa_compare(args, bounds: Bounds, out: _Out):
    first = _load_graph(args.graph_a)
    second = _load_graph(args.graph_b)
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
        report["se_witness"] = _witness_json(verdict.se_witness.r, verdict.se_witness.s)
        report["lag"] = verdict.se_witness.lag
    if verdict.invariants is not None:
        report["invariants"] = _invariants_json(verdict.invariants)
    if verdict.bounds is not None:
        report["bounds"] = dict(verdict.bounds)
    out.report = report
    out.code = 0 if verdict.kind == "iso_witness" else 1


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="compact single-line JSON output")
    common.add_argument("--bounds-file", metavar="FILE", help="key/value bounds overrides")
    for flag, dest in (
        ("--depth", "search_depth"),
        ("--max-elements", "max_elements"),
        ("--max-power", "max_power"),
        ("--budget", "firing_budget"),
        ("--inner-dim", "max_inner_dim"),
        ("--max-lag", "max_lag"),
        ("--coeff-bound", "coeff_bound"),
        ("--node-budget", "node_budget"),
    ):
        common.add_argument(flag, dest=f"bound_{dest}", type=int, default=None)

    parser = argparse.ArgumentParser(prog="monodyn", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    def sub(group, name, handler, **kwargs):
        p = group.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    graph = top.add_parser("graph").add_subparsers(dest="command", required=True)
    p = sub(graph, "check", _cmd_graph_check, help="structural report")
    p.add_argument("graph")
    p = sub(graph, "matrix", _cmd_graph_matrix, help="adjacency matrix")
    p.add_argument("graph")
    p.add_argument("--out", help="also write the matrix file format here")

    sp = top.add_parser("sandpile").add_subparsers(dest="command", required=True)
    p = sub(sp, "stabilize", _cmd_sandpile_stabilize)
    p.add_argument("graph")
    p.add_argument("config")
    p.add_argument("--trace", action="store_true", help="print the firing trace as plain text")
    p = sub(sp, "add", _cmd_sandpile_add)
    p.add_argument("graph")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p = sub(sp, "monoid", _cmd_sandpile_monoid)
    p.add_argument("graph")
    p = sub(sp, "grid", _cmd_sandpile_grid)
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    p.add_argument("--mode", choices=("closed", "open"), default="closed")
    p.add_argument("--place", action="append", default=[], metavar="R,C,N")
    p.add_argument("--save-config", metavar="FILE")
    p = sub(sp, "render", _cmd_sandpile_render)
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    p.add_argument("config")
    p.add_argument("--mode", choices=("closed", "open"), default="closed")
    p.add_argument("--palette", metavar="R,G,B;...x4")
    p.add_argument("--out", help="write the PPM here instead of stdout")

    mon = top.add_parser("monoid").add_subparsers(dest="command", required=True)
    p = sub(mon, "present", _cmd_monoid_present)
    p.add_argument("graph")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--sink-zero", action="store_true")
    p = sub(mon, "equal", _cmd_monoid_equal)
    p.add_argument("presentation")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p = sub(mon, "enumerate", _cmd_monoid_enumerate)
    p.add_argument("presentation")

    tal = top.add_parser("talented").add_subparsers(dest="command", required=True)
    p = sub(tal, "window", _cmd_talented_window)
    p.add_argument("graph")
    p.add_argument("radius", type=int)

    dim = top.add_parser("dimgroup").add_subparsers(dest="command", required=True)
    p = sub(dim, "equal", _cmd_dim_equal)
    p.add_argument("matrix")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p = sub(dim, "positive", _cmd_dim_positive)
    p.add_argument("matrix")
    p.add_argument("element")
    p = sub(dim, "shift", _cmd_dim_shift)
    p.add_argument("matrix")
    p.add_argument("element")
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p = sub(dim, "fib", _cmd_dim_fib)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    sh = top.add_parser("shift").add_subparsers(dest="command", required=True)
    p = sub(sh, "verify-es", _cmd_shift_verify_es)
    for name in ("a", "b", "r", "s"):
        p.add_argument(name)
    p = sub(sh, "verify-se", _cmd_shift_verify_se)
    for name in ("a", "b", "r", "s"):
        p.add_argument(name)
    p.add_argument("--lag", type=int, default=1)
    p = sub(sh, "verify-chain", _cmd_shift_verify_chain)
    p.add_argument("chain", help="JSON chain document")
    p = sub(sh, "search-sse", _cmd_shift_search_sse)
    p.add_argument("a")
    p.add_argument("b")
    p = sub(sh, "search-se", _cmd_shift_search_se)
    p.add_argument("a")
    p.add_argument("b")
    p = sub(sh, "invariants", _cmd_shift_invariants)
    p.add_argument("a")
    p.add_argument("b")

    lpa = top.add_parser("lpa").add_subparsers(dest="command", required=True)
    p = sub(lpa, "simple", _cmd_lpa_simple)
    p.add_argument("graph")
    p = sub(lpa, "zorn", _cmd_lpa_zorn)
    p.add_argument("graph")
    p = sub(lpa, "matrix-iso", _cmd_lpa_matrix_iso)
    for name in ("n", "r", "m", "s"):
        p.add_argument(name, type=int)
    p = sub(lpa, "ht-iso", _cmd_lpa_ht_iso)
    for name in ("n", "r", "m", "s"):
        p.add_argument(name, type=int)
    p = sub(lpa, "compare", _cmd_lpa_compare)
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--mode", choices=("plain", "graded"), default="plain")
    p.add_argument(
        "--presentation",
        choices=("unweighted", "weighted", "sandpile"),
        default="unweighted",
    )

    return parser


def _resolve_bounds(args) -> Bounds:
    bounds = DEFAULT_BOUNDS
    if getattr(args, "bounds_file", None):
        bounds = load_bounds(args.bounds_file, bounds)
    overrides = {}
    for name in (
        "search_depth",
        "max_elements",
        "max_power",
        "firing_budget",
        "max_inner_dim",
        "max_lag",
        "coeff_bound",
        "node_budget",
    ):
        value = getattr(args, f"bound_{name}", None)
        if value is not None:
            overrides[name] = value
    if overrides:
        from dataclasses import replace

        bounds = replace(bounds, **overrides)
    return bounds


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Out()
    try:
        bounds = _resolve_bounds(args)
        args.handler(args, bounds, out)
    except MonodynError as err:
        report = {"kind": "error", "message": str(err)}
        print(json.dumps(report, sort_keys=True, indent=2))
        return 3
    except OSError as err:
        report = {"kind": "error", "message": str(err)}
        print(json.dumps(report, sort_keys=True, indent=2))
        return 3
    if out.binary is not None:
        sys.stdout.buffer.write(out.binary)
        sys.stdout.buffer.flush()
    elif out.text is not None:
        print(out.text)
    elif out.report is not None:
        if getattr(args, "json", False):
            print(json.dumps(out.report, sort_keys=True, separators=(",", ":")))
        else:
            print(json.dumps(out.report, sort_keys=True, indent=2))
    return out.code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
