"""Command-line front end: the dispatcher.

``run`` builds the parser of the group that ``argv[0]`` names, or of every
group when it names none, runs the chosen handler and prints its result.
A handler maps ``(args, bounds)`` to ``(exit code, output)``, and ``run`` is
the one place that turns the output into bytes, by its type: a dict is a
JSON report (sorted keys, compact under ``--json``, else indented by 2), a
str is printed as text, bytes (a PPM image) go to ``sys.stdout.buffer``
as they are, and None prints nothing.  A ``MonodynError`` or ``OSError``
from the handler becomes exit code 3 with an indented JSON error report.
The handlers live in one module per group, ``monodyn.commands.<group>``,
each with an ``add_commands(group, command)`` that declares its subcommands
through ``command`` (``_command`` here, which owns the bound-flag table).
A run imports only its group's module, so a child process compiles this
dispatcher and one group module, not every handler.  No group module
imports this one: under ``python -m monodyn.cli`` this module is
``__main__``, and an import of ``monodyn.cli`` would compile and run it a
second time.

The output contract, reports and exit codes, is ``_DESCRIPTION``, which
``monodyn --help`` prints.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from .config import DEFAULT_BOUNDS, Bounds, load_bounds
from .errors import MonodynError

# The parser's description, the text of ``monodyn --help``.
_DESCRIPTION = """Command-line front end.

Machine output is a single JSON report per invocation with a ``kind`` tag,
printed with sorted keys so identical inputs give byte-identical bytes;
images are binary PPM and stabilization traces are plain text.  Exit codes:
0 for an affirmative result, 1 for a negative, not-found, or unknown
verdict, 2 for usage errors, 3 for runtime errors.
"""


def load_report_schema() -> dict:
    """The published JSON schema every report validates against."""
    from importlib import resources

    text = resources.files("monodyn").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


# --- parser -----------------------------------------------------------------


# Each bound's command-line flag.  A subcommand takes the flags, and
# --bounds-file, only for the bounds its handler reads.
_BOUND_FLAGS = {
    "search_depth": "--depth",
    "max_elements": "--max-elements",
    "max_power": "--max-power",
    "firing_budget": "--budget",
    "max_inner_dim": "--inner-dim",
    "max_lag": "--max-lag",
    "coeff_bound": "--coeff-bound",
    "node_budget": "--node-budget",
}


def _command(group, name, handler, bounds=(), **kwargs):
    p = group.add_parser(name, **kwargs)
    p.add_argument("--json", action="store_true", help="compact single-line JSON output")
    if bounds:
        p.add_argument("--bounds-file", metavar="FILE", help="key/value bounds overrides")
    for bound in bounds:
        p.add_argument(_BOUND_FLAGS[bound], dest=f"bound_{bound}", type=int, default=None)
    p.set_defaults(handler=handler, bound_names=bounds)
    return p


# The command groups in help order; each has its module in monodyn.commands.
_GROUPS = ("graph", "sandpile", "monoid", "talented", "dimgroup", "shift", "lpa")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  With ``only``, the name of a group, the
    other groups get no subcommands and their modules are not imported: a
    command of that group parses, and fails, exactly as with the whole tree,
    which costs several times more to build."""
    parser = argparse.ArgumentParser(prog="monodyn", description=_DESCRIPTION)
    top = parser.add_subparsers(dest="group", required=True)
    for name in _GROUPS:
        group = top.add_parser(name).add_subparsers(dest="command", required=True)
        if only in (None, name):
            importlib.import_module(f"monodyn.commands.{name}").add_commands(group, _command)
    return parser


def _resolve_bounds(args) -> Bounds:
    bounds = load_bounds(args.bounds_file) if getattr(args, "bounds_file", None) else DEFAULT_BOUNDS
    overrides = {}
    for name in args.bound_names:
        value = getattr(args, f"bound_{name}")
        if value is not None:
            overrides[name] = value
    if overrides:
        bounds = bounds.replace(**overrides)
    return bounds


def run(argv: list[str]) -> int:
    parser = build_parser(argv[0] if argv and argv[0] in _GROUPS else None)
    args = parser.parse_args(argv)
    try:
        code, output = args.handler(args, _resolve_bounds(args))
    except (MonodynError, OSError) as err:
        report = {"kind": "error", "message": str(err)}
        print(json.dumps(report, sort_keys=True, indent=2))
        return 3
    if isinstance(output, bytes):
        sys.stdout.buffer.write(output)
        sys.stdout.buffer.flush()
    elif isinstance(output, str):
        print(output)
    elif isinstance(output, dict):
        if args.json:
            print(json.dumps(output, sort_keys=True, separators=(",", ":")))
        else:
            print(json.dumps(output, sort_keys=True, indent=2))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
