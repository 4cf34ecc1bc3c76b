"""``monodyn monoid``: graph monoid presentations, the word problem and
enumeration of finite monoids."""

from __future__ import annotations

from ..errors import Stopped
from . import load_graph, read_text, stopped_report


def _cmd_monoid_present(args, bounds):
    from ..monoid import graph_monoid_presentation, serialize_presentation

    g = load_graph(args.graph)
    p = graph_monoid_presentation(g, weighted=args.weighted, sink_zero=args.sink_zero)
    return 0, serialize_presentation(p).rstrip("\n")


def _cmd_monoid_equal(args, bounds):
    from ..monoid import _format_side, parse_element, parse_presentation, words_equal

    p = parse_presentation(read_text(args.presentation))
    x = parse_element(p, args.lhs)
    y = parse_element(p, args.rhs)
    res = words_equal(p, x, y, node_budget=bounds.node_budget)
    report = {"kind": "word-equal", "verdict": res.verdict}
    if res.path is not None:
        report["path"] = [_format_side(p, v) for v in res.path]
    if res.stopped is not None:
        return stopped_report(report, res.stopped)
    return (0 if res.verdict == "yes" else 1), report


def _cmd_monoid_enumerate(args, bounds):
    from ..monoid import _enumerate_monoid, parse_presentation

    p = parse_presentation(read_text(args.presentation))
    try:
        table = _enumerate_monoid(p, bounds.max_elements, bounds.node_budget)
    except Stopped as stop:
        return stopped_report({"kind": "monoid-table", "outcome": "unknown"}, stop)
    return 0, {"kind": "monoid-table", "outcome": "table", "table": table.to_json_dict()}


def add_commands(group, command) -> None:
    p = command(group, "present", _cmd_monoid_present)
    p.add_argument("graph")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--sink-zero", action="store_true")
    p = command(group, "equal", _cmd_monoid_equal, ("node_budget",))
    p.add_argument("presentation")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p = command(group, "enumerate", _cmd_monoid_enumerate, ("max_elements", "node_budget"))
    p.add_argument("presentation")
