"""Subcommand handlers, one module per command group.

Each group module declares its subcommands in ``add_commands(group,
command)``, where ``command`` is the dispatcher's factory that adds the
``--json`` flag and the bound flags, and holds their handlers.  A handler
``(args, bounds)`` reads its files, runs its layer, imported inside the
handler so that a command loads only its own layers, and returns ``(exit
code, output)``: a dict for a JSON report, a str for text, bytes for an
image, or None when it has written its result to a file.  The dispatcher
prints the output.  This package holds the file and JSON helpers that more
than one group uses: ``stopped_report`` builds every report of a run that
ran out of a bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..errors import Stopped
    from ..matrix import IntMatrix


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_graph(path: str):
    from ..graph import parse_graph

    return parse_graph(read_text(path))


def load_matrix(path: str) -> IntMatrix:
    from ..matrix import parse_matrix

    return parse_matrix(read_text(path))


def stopped_report(report: dict, stop: Stopped) -> tuple[int, dict]:
    """Exit code 1 and ``report`` with the ``bounds`` that ``stop`` lists,
    if any, and ``stopped_by``, the bound that ran out, unless none did."""
    if stop.bounds:
        report["bounds"] = dict(stop.bounds)
    if stop.by is not None:
        report["stopped_by"] = stop.by
    return 1, report


def witness_json(r: IntMatrix, s: IntMatrix) -> dict:
    return {"r": r.to_rows(), "s": s.to_rows()}


def invariants_json(rep) -> dict:
    return {
        "bowen_franks_a": list(rep.bf_factors_a),
        "bowen_franks_b": list(rep.bf_factors_b),
        "free_rank_a": rep.bf_free_rank_a,
        "free_rank_b": rep.bf_free_rank_b,
        "charpoly_core_a": list(rep.charpoly_core_a),
        "charpoly_core_b": list(rep.charpoly_core_b),
        "verdict": rep.verdict,
    }
