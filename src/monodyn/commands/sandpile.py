"""``monodyn sandpile``: stabilization, stable addition, sandpile monoids,
and grid piles with their saved configurations and images.

The grid commands name a grid's cells with ``grid.GridVertices``, so they
build no graph of the grid."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import MonodynError, Stopped, integer
from . import load_graph, read_text, stopped_report

if TYPE_CHECKING:
    from ..sandpile import ChipConfig


def _cmd_sandpile_stabilize(args, bounds):
    from ..sandpile import format_config_terms, parse_config, stabilize

    g = load_graph(args.graph)
    start = parse_config(g, read_text(args.config))
    trace: list[ChipConfig] | None = [] if args.trace else None
    try:
        config, odometer = stabilize(g, start, budget=bounds.firing_budget, trace_to=trace)
    except Stopped as stop:
        report = {"kind": "stabilize", "stabilized": False, "budget": stop.bound, "firings": stop.work}
        return stopped_report(report, stop)
    if args.trace:
        return 0, " ⟿ ".join(format_config_terms(g, [start] + trace))
    return 0, {
        "kind": "stabilize",
        "stabilized": True,
        "config": config.to_mapping(g),
        "odometer": odometer.to_mapping(g),
        "absorbed": config.absorbed,
        "firings": odometer.total(),
    }


def _cmd_sandpile_add(args, bounds):
    from ..sandpile import parse_config, stable_add

    g = load_graph(args.graph)
    a = parse_config(g, read_text(args.config_a))
    b = parse_config(g, read_text(args.config_b))
    result = stable_add(g, a, b, budget=bounds.firing_budget)
    return 0, {
        "kind": "stable-add",
        "config": result.to_mapping(g),
        "absorbed": result.absorbed,
    }


def _cmd_sandpile_monoid(args, bounds):
    from ..sandpile import sandpile_monoid

    g = load_graph(args.graph)
    try:
        table = sandpile_monoid(g, max_elements=bounds.max_elements)
    except Stopped as stop:
        return stopped_report({"kind": "monoid-table", "outcome": "unknown"}, stop)
    return 0, {"kind": "monoid-table", "outcome": "table", "table": table.to_json_dict()}


def _parse_places(raw: list[str]) -> dict[tuple[int, int], int]:
    places: dict[tuple[int, int], int] = {}
    for chunk in raw:
        parts = chunk.split(",")
        if len(parts) != 3:
            raise MonodynError(f"--place wants 'row,col,chips', got {chunk!r}")
        r, c, n = (integer(p, f"--place wants integers 'row,col,chips', got {chunk!r}") for p in parts)
        total = places.get((r, c), 0)
        # A negative chunk keeps its cell negative, whatever other chunks on
        # the cell add, so that grid_config refuses it.
        places[(r, c)] = min(total, n) if total < 0 or n < 0 else total + n
    return places


def _cmd_sandpile_grid(args, bounds):
    from ..grid import GridSpec, GridVertices, grid_config, stabilize_grid
    from ..sandpile import serialize_config

    spec = GridSpec(args.rows, args.cols, args.mode)
    config = grid_config(spec, _parse_places(args.place))
    report = {"kind": "grid", "rows": spec.rows, "cols": spec.cols, "mode": spec.mode}
    try:
        final, odometer = stabilize_grid(spec, config, budget=bounds.firing_budget)
    except Stopped as stop:
        report |= {"stabilized": False, "budget": stop.bound, "firings": stop.work}
        return stopped_report(report, stop)
    histogram: dict[str, int] = {}
    for count in final.counts:
        key = str(count)
        histogram[key] = histogram.get(key, 0) + 1
    if args.save_config:
        cells = GridVertices(spec)
        with open(args.save_config, "w", encoding="utf-8") as fh:
            fh.write(serialize_config(cells, final))
    report |= {"stabilized": True, "absorbed": final.absorbed, "firings": odometer.total(),
               "histogram": histogram}
    return 0, report


def _cmd_sandpile_render(args, bounds):
    from ..grid import DEFAULT_PALETTE, GridSpec, GridVertices, parse_palette, render_ppm
    from ..sandpile import parse_config

    spec = GridSpec(args.rows, args.cols, args.mode)
    config = parse_config(GridVertices(spec), read_text(args.config))
    palette = parse_palette(args.palette) if args.palette else DEFAULT_PALETTE
    data = render_ppm(spec, config, palette)
    if not args.out:
        return 0, data
    with open(args.out, "wb") as fh:
        fh.write(data)
    return 0, None


def add_commands(group, command) -> None:
    p = command(group, "stabilize", _cmd_sandpile_stabilize, ("firing_budget",))
    p.add_argument("graph")
    p.add_argument("config")
    p.add_argument("--trace", action="store_true", help="print the firing trace as plain text")
    p = command(group, "add", _cmd_sandpile_add, ("firing_budget",))
    p.add_argument("graph")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p = command(group, "monoid", _cmd_sandpile_monoid, ("max_elements",))
    p.add_argument("graph")
    p = command(group, "grid", _cmd_sandpile_grid, ("firing_budget",))
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    p.add_argument("--mode", choices=("closed", "open"), default="closed")
    p.add_argument("--place", action="append", default=[], metavar="R,C,N")
    p.add_argument("--save-config", metavar="FILE")
    p = command(group, "render", _cmd_sandpile_render)
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    p.add_argument("config")
    p.add_argument("--mode", choices=("closed", "open"), default="closed")
    p.add_argument("--palette", metavar="R,G,B;...x4")
    p.add_argument("--out", help="write the PPM here instead of stdout")
