"""Run one monodyn CLI invocation with a timing span around every call that
monodyn.cli makes into another package module, then write the spans to a file.

    python perfbench/cli_child.py SPANS_FILE <monodyn arguments...>

The traced cli-session run uses this in place of ``python -m monodyn.cli``;
the spans are (layer, function, start, end) in perf_counter seconds.
"""

import inspect
import json
import sys
import time

import monodyn.cli as cli

spans_path, argv = sys.argv[1], sys.argv[2:]
spans = []


def _timed(fn):
    layer = fn.__module__.rsplit(".", 1)[-1]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append((layer, fn.__name__, start, time.perf_counter()))

    return timed


for name, obj in list(vars(cli).items()):
    if inspect.isfunction(obj) and obj.__module__.startswith("monodyn.") and obj.__module__ != "monodyn.cli":
        setattr(cli, name, _timed(obj))

try:
    code = cli.run(argv)
finally:
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
sys.exit(code)
