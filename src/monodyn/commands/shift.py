"""``monodyn shift``: verification of elementary, shift and strong shift
equivalence certificates, the two searches and their invariant gate."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from ..errors import ParseError
from . import invariants_json, load_matrix, read_text, stopped_report, witness_json

if TYPE_CHECKING:
    from ..matrix import IntMatrix
    from ..shifteq import SearchExhausted, SSEChain


def _not_found(kind: str, result: SearchExhausted) -> tuple[int, dict]:
    """Report of a search that found nothing, with its invariant obstruction
    when there is one."""
    report = {"kind": kind, "outcome": "not_found"}
    if result.obstruction is not None:
        report["obstruction"] = invariants_json(result.obstruction)
    return stopped_report(report, result.stopped)


def _chain_json(chain: SSEChain) -> dict:
    return {
        "matrices": [m.to_rows() for m in chain.matrices],
        "witnesses": [witness_json(w.r, w.s) for w in chain.witnesses],
    }


def _matrix_from_json(rows) -> IntMatrix:
    from ..matrix import IntMatrix

    # IntMatrix.from_rows would truncate 1.9 to 1 and read "7" as 7.
    if not all(type(x) is int for row in rows for x in row):
        raise ParseError("chain matrices must hold JSON integers")
    return IntMatrix.from_rows(rows)


def _chain_from_json(text: str) -> SSEChain:
    from ..shifteq import ESWitness, SSEChain

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


def _cmd_shift_verify_es(args, bounds):
    from ..shifteq import ESWitness, verify_elementary

    a, b = load_matrix(args.a), load_matrix(args.b)
    w = ESWitness(load_matrix(args.r), load_matrix(args.s))
    ok = verify_elementary(a, b, w)
    return (0 if ok else 1), {"kind": "verify", "check": "elementary", "ok": ok}


def _cmd_shift_verify_se(args, bounds):
    from ..shifteq import SEWitness, verify_se

    a, b = load_matrix(args.a), load_matrix(args.b)
    w = SEWitness(load_matrix(args.r), load_matrix(args.s), args.lag)
    ok = verify_se(a, b, w)
    report = {"kind": "verify", "check": "shift-equivalence", "ok": ok, "lag": args.lag}
    return (0 if ok else 1), report


def _cmd_shift_verify_chain(args, bounds):
    from ..shifteq import verify_sse_chain

    chain = _chain_from_json(read_text(args.chain))
    ok, failing = verify_sse_chain(chain)
    report = {"kind": "verify", "check": "chain", "ok": ok, "failing_index": failing}
    return (0 if ok else 1), report


def _cmd_shift_search_sse(args, bounds):
    from ..shifteq import SSEChain, sse_search

    a, b = load_matrix(args.a), load_matrix(args.b)
    result = sse_search(a, b, max_depth=bounds.search_depth, max_inner_dim=bounds.max_inner_dim)
    if isinstance(result, SSEChain):
        return 0, {"kind": "sse-search", "outcome": "found", "chain": _chain_json(result)}
    return _not_found("sse-search", result)


def _cmd_shift_search_se(args, bounds):
    from ..shifteq import SEWitness, se_search

    a, b = load_matrix(args.a), load_matrix(args.b)
    result = se_search(a, b, max_lag=bounds.max_lag, coeff_bound=bounds.coeff_bound)
    if isinstance(result, SEWitness):
        return 0, {
            "kind": "se-search",
            "outcome": "found",
            "witness": witness_json(result.r, result.s),
            "lag": result.lag,
        }
    return _not_found("se-search", result)


def _cmd_shift_invariants(args, bounds):
    from ..shifteq import invariants_report

    a, b = load_matrix(args.a), load_matrix(args.b)
    rep = invariants_report(a, b)
    report = {"kind": "invariants", "verdict": rep.verdict, "report": invariants_json(rep)}
    return (0 if rep.verdict == "no_obstruction" else 1), report


def add_commands(group, command) -> None:
    p = command(group, "verify-es", _cmd_shift_verify_es)
    for name in ("a", "b", "r", "s"):
        p.add_argument(name)
    p = command(group, "verify-se", _cmd_shift_verify_se)
    for name in ("a", "b", "r", "s"):
        p.add_argument(name)
    p.add_argument("--lag", type=int, default=1)
    p = command(group, "verify-chain", _cmd_shift_verify_chain)
    p.add_argument("chain", help="JSON chain document")
    p = command(group, "search-sse", _cmd_shift_search_sse, ("search_depth", "max_inner_dim"))
    p.add_argument("a")
    p.add_argument("b")
    p = command(group, "search-se", _cmd_shift_search_se, ("max_lag", "coeff_bound"))
    p.add_argument("a")
    p.add_argument("b")
    p = command(group, "invariants", _cmd_shift_invariants)
    p.add_argument("a")
    p.add_argument("b")
