"""``monodyn dimgroup``: equality, positivity and shifts in dimension
groups, and the Fibonacci cone."""

from __future__ import annotations

from . import load_matrix


def _cmd_dim_equal(args, bounds, out):
    from ..dimension import dim_equal, parse_dim_element

    m = load_matrix(args.matrix)
    x = parse_dim_element(m, args.lhs)
    y = parse_dim_element(m, args.rhs)
    verdict = dim_equal(x, y)
    out.report = {"kind": "dim-equal", "verdict": verdict}
    out.code = 0 if verdict == "yes" else 1


def _cmd_dim_positive(args, bounds, out):
    from ..dimension import dim_positive, parse_dim_element

    m = load_matrix(args.matrix)
    x = parse_dim_element(m, args.element)
    verdict = dim_positive(x, bounds.max_power)
    out.report = {"kind": "dim-positive", "verdict": verdict}
    out.code = 0 if verdict == "positive" else 1


def _cmd_dim_shift(args, bounds, out):
    from ..dimension import delta_shift, format_dim_element, parse_dim_element

    m = load_matrix(args.matrix)
    x = parse_dim_element(m, args.element)
    shifted = delta_shift(x, args.direction)
    out.report = {"kind": "dim-shift", "element": format_dim_element(shifted)}


def _cmd_dim_fib(args, bounds, out):
    from ..dimension import fib_cone_member

    member = fib_cone_member(args.m, args.n)
    out.report = {"kind": "fib-cone", "member": member, "m": args.m, "n": args.n}
    out.code = 0 if member else 1


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
