"""Self-test of the benchmark: seeded inputs, repeatable counts, metric names.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a monodyn checkout.  For each workload (all four by
default) it checks that one seed always generates the same inputs and a
second seed different ones, and runs the benchmark twice per mode on one
seed to check that every count and ratio metric repeats exactly.  The four
workloads take about eight minutes on a 2-core machine, most of it in
cli-session.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# Metrics that are times (or derived from times) and so may differ between runs.
TIMED_UNITS = {"s", "ms", "1/s", "MB"}
TIMED_NAMES = {"trace.overhead_ratio"} | {f"{layer}.busy_share" for layer in workloads.LAYERS}


def inputs(name: str, seed: int, p: int = 0) -> str:
    ops, files = workloads.WORKLOADS[name]().make_pass(Random(f"{name}/{seed}/{p}"))
    return repr((ops, sorted(files.items())))


def bench(name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def check_metric_names() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(workloads.LAYERS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def check_workload(name: str) -> None:
    assert inputs(name, 1) == inputs(name, 1), "same seed, different inputs"
    assert inputs(name, 1) != inputs(name, 2), "second seed gives the same inputs"
    assert inputs(name, 1, 0) != inputs(name, 1, 1), "two passes share their inputs"
    for trace in (0, 1):
        first, second = bench(name, 1, trace), bench(name, 1, trace)
        assert first["correct"] and second["correct"], "benchmark reports incorrect output"
        for metric, m in first["metrics"].items():
            if m["unit"] in TIMED_UNITS or metric in TIMED_NAMES:
                continue
            assert m["value"] == second["metrics"][metric]["value"], f"{metric} differs between runs"
    print(f"ok {name}")


if __name__ == "__main__":
    check_metric_names()
    for name in sys.argv[1:] or workloads.WORKLOADS:
        check_workload(name)
