"""``monodyn dimgroup``: equality, positivity and shifts in dimension
groups, and the Fibonacci cone."""

from __future__ import annotations

from ..errors import Stopped
from . import load_matrix, stopped_report


def _cmd_dim_equal(args, bounds):
    from ..dimension import dim_equal, parse_dim_element

    m = load_matrix(args.matrix)
    x = parse_dim_element(m, args.lhs)
    y = parse_dim_element(m, args.rhs)
    verdict = dim_equal(x, y)
    return (0 if verdict == "yes" else 1), {"kind": "dim-equal", "verdict": verdict}


def _cmd_dim_positive(args, bounds):
    from ..dimension import INCONCLUSIVE, _dim_positive, parse_dim_element

    m = load_matrix(args.matrix)
    x = parse_dim_element(m, args.element)
    try:
        verdict = _dim_positive(x, bounds.max_power)
    except Stopped as stop:
        return stopped_report({"kind": "dim-positive", "verdict": INCONCLUSIVE}, stop)
    return (0 if verdict == "positive" else 1), {"kind": "dim-positive", "verdict": verdict}


def _cmd_dim_shift(args, bounds):
    from ..dimension import delta_shift, format_dim_element, parse_dim_element

    m = load_matrix(args.matrix)
    x = parse_dim_element(m, args.element)
    shifted = delta_shift(x, args.direction)
    return 0, {"kind": "dim-shift", "element": format_dim_element(shifted)}


def _cmd_dim_fib(args, bounds):
    from ..dimension import fib_cone_member

    member = fib_cone_member(args.m, args.n)
    return (0 if member else 1), {"kind": "fib-cone", "member": member, "m": args.m, "n": args.n}


def add_commands(group, command) -> None:
    p = command(group, "equal", _cmd_dim_equal)
    p.add_argument("matrix")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p = command(group, "positive", _cmd_dim_positive, ("max_power",))
    p.add_argument("matrix")
    p.add_argument("element")
    p = command(group, "shift", _cmd_dim_shift)
    p.add_argument("matrix")
    p.add_argument("element")
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p = command(group, "fib", _cmd_dim_fib)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
