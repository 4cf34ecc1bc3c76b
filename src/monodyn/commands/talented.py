"""``monodyn talented``: finite windows of the talented monoid."""

from __future__ import annotations

from . import load_graph


def _cmd_talented_window(args, bounds):
    from ..dimension import talented_window
    from ..monoid import serialize_presentation

    g = load_graph(args.graph)
    w = talented_window(g, args.radius)
    return 0, serialize_presentation(w.presentation).rstrip("\n")


def add_commands(group, command) -> None:
    p = command(group, "window", _cmd_talented_window)
    p.add_argument("graph")
    p.add_argument("radius", type=int)
