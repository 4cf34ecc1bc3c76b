"""``monodyn graph``: structure reports and adjacency matrices."""

from __future__ import annotations

from . import load_graph


def _cmd_graph_check(args, bounds):
    from ..graph import structure_report

    g = load_graph(args.graph)
    rep = structure_report(g)
    return 0, {
        "kind": "structure",
        "sinks": list(rep.sinks),
        "strongly_connected": rep.strongly_connected,
        "scc_partition": [list(c) for c in rep.scc_partition],
        "sandpile": rep.sandpile,
        "sink": rep.sink_name,
        "outdegrees": dict(zip(g.vertices, rep.outdegrees)),
        "indegrees": dict(zip(g.vertices, rep.indegrees)),
    }


def _cmd_graph_matrix(args, bounds):
    from ..graph import adjacency_matrix
    from ..matrix import serialize_matrix

    g = load_graph(args.graph)
    m = adjacency_matrix(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_matrix(m))
    return 0, {
        "kind": "matrix",
        "rows": m.rows,
        "cols": m.cols,
        "entries": m.to_rows(),
    }


def add_commands(group, command) -> None:
    p = command(group, "check", _cmd_graph_check, help="structural report")
    p.add_argument("graph")
    p = command(group, "matrix", _cmd_graph_matrix, help="adjacency matrix")
    p.add_argument("graph")
    p.add_argument("--out", help="also write the matrix file format here")
