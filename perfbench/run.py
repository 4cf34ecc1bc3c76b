"""monodyn benchmark: run one workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload grid-piles --seed 1 --seconds 10 --trace 0

Run it from the root of a monodyn checkout; it imports the package from
``src/`` there and exits with code 2 when there is none.  One client, no
threads: each op starts when the previous one has finished, and cli-session
runs one child process at a time.  Ops run in passes (see workloads.py) until
``--seconds`` of op time have been measured, at least ``MIN_OPS`` ops have run
(so p90 has ten samples beyond it) and the workload's ``min_passes`` are done.
Every op's output is checked after its pass, outside the timed region.

Op times are host-scaled: each op's wall time is multiplied by the factor of
the workload's host-speed kernel (hostspeed.py), probed just before and just
after it, so the drift of a shared host's speed cancels out.  Throughput is ops over the
summed scaled op time; the latency percentiles are taken over every op of
the run; set-up time is scaled by the interpreter kernel.  The line before
the result gives the same figures in plain wall time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every pass
traced and prints the per-layer metrics; its first passes also run untraced,
op by op, to measure the tracing overhead.  Counts, ratios and layer times
are taken over the first ``min_passes`` passes, so counts and ratios repeat
exactly for a given seed; the spans of those passes are written to
``.perfbench_spans/`` in the checkout.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from random import Random

MIN_OPS = 100
SETUP_REPS = 5
IMPORT_REPS = 5
PACKAGE_MODULES = ("cli", "corpus", "dimension", "graph", "grid", "lpa", "matrix", "monoid", "sandpile", "shifteq", "smith")

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
    "ok_ratio": "ratio",
}


def per_layer_units(layers) -> dict[str, str]:
    """Name and unit of every per-layer metric, in the order printed."""
    units = {}
    for layer in layers:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s", f"{layer}.self_s": "s", f"{layer}.busy_share": "ratio"})
    units.update(
        {
            "grid.firings": "count",
            "grid.firings_per_s": "1/s",
            "sandpile.table_entries": "count",
            "monoid.enumerate_decided_ratio": "ratio",
            "monoid.table_elements": "count",
            "monoid.word_calls": "count",
            "monoid.word_busy_s": "s",
            "monoid.word_decided_ratio": "ratio",
            "monoid.path_steps": "count",
            "smith.transform_bits_max": "bits",
            "shifteq.found_ratio": "ratio",
            "dimension.decided_ratio": "ratio",
            "cli.import_ms": "ms",
            "cli.error_json_ratio": "ratio",
            "bench.self_s": "s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


class Direct:
    """Untraced: calls go straight through."""

    op = None

    @staticmethod
    def call(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def span(layer, name):
        return contextlib.nullcontext(None)


class Tracer:
    """Keeps one span per layer call in memory: (layer, function, start, end,
    op, enclosing layer).  Spans of a traced child process arrive through the
    file that ``span`` hands out and nest inside the span that started it."""

    def __init__(self, workdir: Path):
        self.spans: list[tuple] = []
        self.op = None
        self.child_file = workdir / ".spans.json"

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((fn.__module__.rsplit(".", 1)[-1], fn.__name__, start, time.perf_counter(), self.op, None))

    @contextlib.contextmanager
    def span(self, layer, name):
        start = time.perf_counter()
        try:
            yield self.child_file
        finally:
            self.spans.append((layer, name, start, time.perf_counter(), self.op, None))
            if self.child_file.exists():
                for child_layer, child_name, s, e in json.loads(self.child_file.read_text("utf-8")):
                    self.spans.append((child_layer, child_name, s, e, self.op, layer))
                self.child_file.unlink()


def run_op(wl, op, tracer, key):
    tracer.op = key
    start = time.perf_counter()
    try:
        value = wl.run(op, tracer.call, tracer.span)
    except Exception:  # a raising op is a failed op; keep measuring the rest
        value = RuntimeError(traceback.format_exc(limit=3))
    return time.perf_counter() - start, value


def run_pass(wl, ops, tracer, host, pass_no, untraced_times=None):
    """Run the ops in order; return their wall times, those times scaled by
    their host factors, and their values.  With ``untraced_times`` given,
    each op also runs untraced, before the traced run for even ops and after
    it for odd ones, so warm caches favour neither side of the overhead
    comparison; those times are scaled too."""
    wall, untraced, marks, values = [], [], [], []
    for i, op in enumerate(ops):
        marks.append(host.mark())
        if untraced_times is not None and i % 2 == 0:
            untraced.append(run_op(wl, op, Direct, (pass_no, i))[0])
        elapsed, value = run_op(wl, op, tracer, (pass_no, i))
        if untraced_times is not None and i % 2 == 1:
            untraced.append(run_op(wl, op, Direct, (pass_no, i))[0])
        wall.append(elapsed)
        values.append(value)
    host.probe()
    factors = [host.factor(m) for m in marks]
    if untraced_times is not None:
        untraced_times += [t * f for t, f in zip(untraced, factors)]
    return wall, [t * f for t, f in zip(wall, factors)], values


def write_files(workdir: Path, files: dict) -> None:
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def write_spans(root: Path, workload: str, seed: int, spans) -> Path:
    """Write the kept spans, one JSON array per line:
    [layer, function, start, end, [pass, op], enclosing layer or null]."""
    path = root / ".perfbench_spans" / f"{workload}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path.relative_to(root)


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository;
    git is kept from searching the directories above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def import_seconds(src: Path, workdir: Path, modules) -> float:
    """Time to import the given package modules in a fresh interpreter,
    measured inside that child."""
    imports = ", ".join(f"monodyn.{name}" for name in modules)
    code = f"import time; t = time.perf_counter(); import {imports}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def cli_import_ms(src: Path, workdir: Path) -> float:
    return statistics.median(import_seconds(src, workdir, ("cli",)) for _ in range(IMPORT_REPS)) * 1000


def layer_metrics(workloads, wl, spans, op_seconds, counts, overhead, src, workdir):
    layers = workloads.LAYERS
    m = {}
    busy, calls, nested = Counter(), Counter(), Counter()
    top = 0.0
    for layer, name, start, end, _, parent in spans:
        busy[layer] += end - start
        calls[layer] += 1
        if parent is None:
            top += end - start
        else:
            nested[parent] += end - start
    self_s = {layer: busy[layer] - nested[layer] for layer in layers}
    total_self = sum(self_s.values())
    for layer in layers:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.busy_share"] = self_s[layer] / total_self if total_self else 0.0
    words = [end - start for layer, name, start, end, _, _ in spans if name == "words_equal"]

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    m.update(
        {
            "grid.firings": counts["grid.firings"],
            "grid.firings_per_s": counts["grid.firings"] / busy["grid"] if busy["grid"] else 0.0,
            "sandpile.table_entries": counts["sandpile.table_entries"],
            "monoid.enumerate_decided_ratio": ratio("monoid.enumerate_decided", "monoid.enumerate_calls"),
            "monoid.table_elements": counts["monoid.table_elements"],
            "monoid.word_calls": len(words),
            "monoid.word_busy_s": sum(words),
            "monoid.word_decided_ratio": ratio("monoid.word_decided", "monoid.word_queries"),
            "monoid.path_steps": counts["monoid.path_steps"],
            "smith.transform_bits_max": counts["smith.transform_bits_max"],
            "shifteq.found_ratio": ratio("shifteq.found", "shifteq.searches"),
            "dimension.decided_ratio": ratio("dimension.decided", "dimension.queries"),
            "cli.import_ms": cli_import_ms(src, workdir) if wl.name == "cli-session" else 0.0,
            "cli.error_json_ratio": ratio("cli.error_json", "cli.error_expected"),
            "bench.self_s": op_seconds - top,
            "trace.overhead_ratio": overhead,
        }
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "monodyn" / "__init__.py").is_file():
        print(f"perfbench: no src/monodyn under {root}; run from the root of a monodyn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hostspeed
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    workdir = root / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl.workdir = workdir
    try:
        return measure(args, wl, workloads, hostspeed, src, workdir, numpy.__version__)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def measure(args, wl, workloads, hostspeed, src, workdir, numpy_version) -> int:
    def pass_inputs(p):
        return wl.make_pass(Random(f"{wl.name}/{args.seed}/{p}"))

    # Set-up, repeated: the package import in a fresh interpreter, then input
    # generation, input files and warm-up in this process.  The import takes
    # most of it, so each sample is scaled by the interpreter kernel's factor.
    setup_host = hostspeed.HostSpeed("interpreter")
    setup_wall = []
    for _ in range(SETUP_REPS):
        setup_host.probe()
        imported = import_seconds(src, workdir, PACKAGE_MODULES)
        start = time.perf_counter()
        ops, files = pass_inputs(0)
        write_files(workdir, files)
        wl.warm_up(Direct.call)
        setup_wall.append(imported + time.perf_counter() - start)
    setup_host.probe()
    setup_s = statistics.median(t * setup_host.factor(i + 1) for i, t in enumerate(setup_wall))

    # With --trace 1 every pass runs traced, and the first passes also run
    # untraced, until half of --seconds of untraced op time is measured, for
    # the tracing overhead.
    tracer = Tracer(workdir) if args.trace else Direct
    host = hostspeed.HostSpeed(wl.host_kernel)
    times, wall_times, untraced_pairs, decisions, counts = [], [], [], [], Counter()
    prefix_seconds = 0.0
    attempted = failed = unexpected = 0
    child_rss = 0
    p = 0
    while True:
        if p:
            ops, files = pass_inputs(p)
            write_files(workdir, files)
        spans_before = len(tracer.spans) if args.trace else 0
        pair = args.trace and sum(untraced_pairs) < args.seconds / 2
        pass_wall, pass_times, values = run_pass(wl, ops, tracer, host, p, untraced_pairs if pair else None)
        wall_times += pass_wall
        times += pass_times
        if p < wl.min_passes:
            prefix_seconds += sum(pass_wall)
        elif args.trace:
            del tracer.spans[spans_before:]
        for op, value in zip(ops, values):
            attempted += 1
            if isinstance(value, Exception):
                outcome = workloads.Outcome(failure=str(value))
            else:
                outcome = wl.check(op, value)
                child_rss = max(child_rss, getattr(value, "maxrss_kb", 0))
            if outcome.failure is not None:
                failed += 1
                unexpected += op.known_defect is None
                print(f"failed op {op.kind}: {outcome.failure}" + (f" (known defect: {op.known_defect})" if op.known_defect else ""))
            if p < wl.min_passes:
                decisions += outcome.decisions
                for key, n in outcome.counts.items():
                    counts[key] = max(counts[key], n) if key.endswith("_max") else counts[key] + n
        p += 1
        if sum(times) >= args.seconds and len(times) >= MIN_OPS and p >= wl.min_passes:
            break

    rss_kb = child_rss if wl.name == "cli-session" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    env = {
        "git_sha": git_sha(Path.cwd()),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }
    tail = len(times) - int(0.9 * len(times))
    summary = {
        "env": env,
        "workload": wl.name,
        "seed": args.seed,
        "passes": p,
        "samples": len(times),
        "p90_tail_samples": tail,
        "host_kernel": wl.host_kernel,
        "host_factor_median": host.reference / statistics.median(host.times),
        "wall_ops_s": len(wall_times) / sum(wall_times),
        "wall_p50_ms": statistics.median(wall_times) * 1000,
        "wall_p90_ms": statistics.quantiles(wall_times, n=10)[8] * 1000,
        "wall_setup_s": statistics.median(setup_wall),
    }
    if args.trace:
        summary["spans_file"] = str(write_spans(Path.cwd(), wl.name, args.seed, tracer.spans))
    print(json.dumps(summary))
    if args.trace:
        overhead = sum(times[: len(untraced_pairs)]) / sum(untraced_pairs) - 1
        values = layer_metrics(workloads, wl, tracer.spans, prefix_seconds, counts, overhead, src, workdir)
        units = per_layer_units(workloads.LAYERS)
    else:
        values = {
            "throughput_ops_s": len(times) / sum(times),
            "latency_p50_ms": statistics.median(times) * 1000,
            "latency_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": rss_kb / 1024,
            "decided_ratio": sum(decisions) / len(decisions),
            "ok_ratio": 1 - failed / attempted,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
