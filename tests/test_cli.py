import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import monodyn.cli
from monodyn.cli import build_parser, load_report_schema, run
from monodyn.dimension import MAX_WINDOW_RADIUS
from monodyn.grid import DEFAULT_PALETTE, MAX_GRID_CELLS, decode_ppm
from monodyn.matrix import MAX_POWER_BITS

from conftest import FOUR_VERTEX_SANDPILE_TEXT

SCHEMA = load_report_schema()
# Built once: jsonschema.validate checks the schema itself on every call.
SCHEMA_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)

GRAPH_F_TEXT = "v u\nv v\nv s\ne u u\ne u v\ne v u\ne v s\n"
ROSE2_TEXT = "v v\ne v v 2\n"
TWO_MAT = "1 1\n2\n"
ONES_MAT = "2 2\n1 1\n1 1\n"
ROW_MAT = "1 2\n1 1\n"
COL_MAT = "2 1\n1\n1\n"


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, content, binary=False):
        p = tmp_path / name
        if binary:
            p.write_bytes(content)
        else:
            p.write_text(content)
        paths[name] = str(p)
        return str(p)

    write("e.graph", FOUR_VERTEX_SANDPILE_TEXT)
    write("f.graph", GRAPH_F_TEXT)
    write("rose2.graph", ROSE2_TEXT)
    write("eightv.cfg", "v 8\n")
    write("x.cfg", "v 1\n")
    write("zero.cfg", "")
    write("two.mat", TWO_MAT)
    write("ones.mat", ONES_MAT)
    write("row.mat", ROW_MAT)
    write("col.mat", COL_MAT)
    write("fib.mat", "2 2\n1 1\n1 0\n")
    paths["dir"] = str(tmp_path)
    return paths


# Inputs for the tests that run every subcommand from one directory.
WORKDIR_INPUTS = {
    "e.graph": FOUR_VERTEX_SANDPILE_TEXT,
    "f.graph": GRAPH_F_TEXT,
    "eightv.cfg": "v 8\n",
    "x.cfg": "v 1\n",
    "zero.cfg": "",
    "bad.cfg": "nowhere 3\n",
    "two.mat": TWO_MAT,
    "ones.mat": ONES_MAT,
    "row.mat": ROW_MAT,
    "col.mat": COL_MAT,
    "fib.mat": "2 2\n1 1\n1 0\n",
    "p.pres": "gens: u v\nu = u+v\nv = u\n",
    "chain.json": json.dumps({"matrices": [[[2]], [[1, 1], [1, 1]]], "witnesses": [{"r": [[1, 1]], "s": [[1], [1]]}]}),
    "bounds.txt": "firing_budget = 50\n",
    "bad-bounds.txt": "firing_budget = -1\n",
}


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    for name, text in WORKDIR_INPUTS.items():
        (workdir / name).write_text(text)
    return workdir


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def invoke_json(capsys, argv):
    code, out = invoke(capsys, argv)
    report = json.loads(out)
    SCHEMA_VALIDATOR.validate(report)
    return code, report


def test_graph_check(files, capsys):
    code, report = invoke_json(capsys, ["graph", "check", files["e.graph"]])
    assert code == 0
    assert report["kind"] == "structure"
    assert report["sandpile"] and report["sink"] == "s"


def test_graph_matrix(files, capsys, tmp_path):
    out_file = str(tmp_path / "adj.mat")
    code, report = invoke_json(capsys, ["graph", "matrix", files["rose2.graph"], "--out", out_file])
    assert code == 0
    assert report["entries"] == [[2]]
    assert (tmp_path / "adj.mat").read_text() == "1 1\n2\n"


def test_stabilize_trace_line(files, capsys):
    code, out = invoke(
        capsys,
        ["sandpile", "stabilize", files["e.graph"], files["eightv.cfg"], "--trace"],
    )
    assert code == 0
    assert out.strip() == "8v ⟿ 6v+u ⟿ 4v+2u ⟿ 2v+3u ⟿ 3v+z ⟿ v+u+z"


def test_stabilize_json_report(files, capsys):
    code, report = invoke_json(
        capsys, ["sandpile", "stabilize", files["e.graph"], files["eightv.cfg"]]
    )
    assert code == 0
    assert report["stabilized"] is True
    assert report["config"] == {"u": 1, "v": 1, "z": 1}
    assert report["absorbed"] == 5
    assert report["odometer"] == {"u": 1, "v": 4, "z": 0}


def test_stabilize_budget_exit_1(files, capsys, tmp_path):
    cyc = tmp_path / "cyc.graph"
    cyc.write_text("v a\nv b\ne a b\ne b a\n")
    cfg = tmp_path / "one.cfg"
    cfg.write_text("a 1\n")
    code, report = invoke_json(
        capsys,
        ["sandpile", "stabilize", str(cyc), str(cfg), "--budget", "50"],
    )
    assert code == 1
    assert report["stabilized"] is False and report["firings"] == 50


def test_sandpile_add(files, capsys):
    code, report = invoke_json(
        capsys, ["sandpile", "add", files["f.graph"], files["x.cfg"], files["x.cfg"]]
    )
    assert code == 0
    assert report["config"] == {"u": 1, "v": 0}


def test_sandpile_monoid(files, capsys):
    code, report = invoke_json(capsys, ["sandpile", "monoid", files["f.graph"]])
    assert code == 0
    table = report["table"]
    assert len(table["elements"]) == 4


def test_sandpile_monoid_cap_names_max_elements(files, capsys):
    # Over its cap the table is unknown, as an enumeration's is, not an error.
    code, report = invoke_json(
        capsys, ["sandpile", "monoid", files["e.graph"], "--max-elements", "5"]
    )
    assert code == 1 and report == {
        "kind": "monoid-table", "outcome": "unknown", "bounds": {"max_elements": 5}, "stopped_by": "max_elements",
    }


def test_sandpile_grid(files, capsys):
    code, report = invoke_json(
        capsys,
        ["sandpile", "grid", "3", "3", "--mode", "closed", "--place", "1,1,4", "--place", "0,1,2"],
    )
    assert code == 0
    assert report["stabilized"] is True
    assert report["histogram"] == {"0": 3, "1": 6}
    assert report["absorbed"] == 0


def test_sandpile_grid_budget(files, capsys):
    code, report = invoke_json(
        capsys,
        ["sandpile", "grid", "3", "3", "--place", "1,1,100", "--budget", "1000"],
    )
    assert code == 1
    assert report["stabilized"] is False


def test_sandpile_render(files, capsys, tmp_path):
    g = tmp_path / "g22.cfg"
    g.write_text("r0c0 1\n")
    out_file = str(tmp_path / "img.ppm")
    code, out = invoke(
        capsys,
        ["sandpile", "render", "2", "2", str(g), "--mode", "open", "--out", out_file],
    )
    assert code == 0
    w, h, pixels = decode_ppm((tmp_path / "img.ppm").read_bytes())
    assert (w, h) == (2, 2)
    assert tuple(pixels[0, 0]) == (0, 255, 255)
    assert tuple(pixels[0, 1]) == (0, 0, 255)


def test_render_to_stdout(files, capsysbinary, tmp_path):
    g = tmp_path / "g11.cfg"
    g.write_text("")
    code = run(["sandpile", "render", "1", "1", str(g), "--mode", "open"])
    data = capsysbinary.readouterr().out
    assert code == 0
    assert data.startswith(b"P6\n1 1\n255\n")


def test_monoid_present(files, capsys):
    code, out = invoke(
        capsys, ["monoid", "present", files["f.graph"], "--weighted", "--sink-zero"]
    )
    assert code == 0
    assert out.splitlines()[0] == "gens: u v"
    assert "2u = u+v" in out and "2v = u" in out


def test_monoid_equal(files, capsys, tmp_path):
    pres = tmp_path / "p.pres"
    pres.write_text("gens: u v\nu = u+v\nv = u\n")
    code, report = invoke_json(capsys, ["monoid", "equal", str(pres), "u", "v"])
    assert code == 0
    assert report["verdict"] == "yes"
    assert report["path"][0] == "u" and report["path"][-1] == "v"
    code, report = invoke_json(capsys, ["monoid", "equal", str(pres), "0", "u"])
    assert code == 1 and report["verdict"] == "no" and "stopped_by" not in report


def test_monoid_equal_unknown_names_node_budget(capsys, tmp_path):
    pres = tmp_path / "p.pres"
    pres.write_text("gens: u v\nu = u+v\nv = u\n")
    code, report = invoke_json(capsys, ["monoid", "equal", str(pres), "u", "v", "--node-budget", "1"])
    assert code == 1 and report == {"kind": "word-equal", "verdict": "unknown", "stopped_by": "node_budget"}
    code, report = invoke_json(capsys, ["monoid", "equal", str(pres), "u", "v"])
    assert code == 0 and report == {"kind": "word-equal", "verdict": "yes", "path": ["u", "v"]}


# What each case answers.  A rule's path is walked only when a yes-path
# follows the rule, so a query that needs only a relation is answered.
HUGE_COEFFICIENT_ANSWERS = {
    # No completion; equal normal forms, but the path has 5*10^11 steps.
    "2a = b": (1, {"kind": "word-equal", "verdict": "unknown", "stopped_by": "node_budget"}),
    # The completion's rule 10^12 b -> b has a path of 10^12 steps; a = b
    # follows only the relation b = a.
    "1000000000000a = b\nb = a": (0, {"kind": "word-equal", "verdict": "yes", "path": ["a", "b"]}),
    # The rule 2a -> b has a path of about 5*10^5 steps; 3b = b is a relation.
    "2a = 1000001b\n3b = b": (0, {"kind": "word-equal", "verdict": "yes", "path": ["3b", "b"]}),
}


@pytest.mark.parametrize(
    "relations, lhs, rhs",
    [
        ("2a = b", "1000000000000a", "500000000000b"),
        ("1000000000000a = b\nb = a", "a", "b"),
        ("2a = 1000001b\n3b = b", "3b", "b"),
    ],
)
def test_monoid_equal_huge_coefficients_stay_in_budget(capsys, tmp_path, relations, lhs, rhs):
    pres = tmp_path / "p.pres"
    pres.write_text(f"gens: a b\n{relations}\n")
    start = time.perf_counter()
    code, report = invoke_json(capsys, ["monoid", "equal", str(pres), lhs, rhs])
    assert time.perf_counter() - start < 1
    assert (code, report) == HUGE_COEFFICIENT_ANSWERS[relations]


def test_monoid_enumerate(files, capsys, tmp_path):
    pres = tmp_path / "p.pres"
    pres.write_text("gens: u v\nu = u+v\nv = u\n")
    code, report = invoke_json(capsys, ["monoid", "enumerate", str(pres)])
    assert code == 0
    assert report["outcome"] == "table"
    assert len(report["table"]["elements"]) == 2
    free = tmp_path / "free.pres"
    free.write_text("gens: a b\n")
    code, report = invoke_json(capsys, ["monoid", "enumerate", str(free), "--max-elements", "10"])
    assert code == 1 and report["outcome"] == "unknown"


def test_unknown_enumeration_reports_its_bounds(files, capsys, tmp_path):
    free = tmp_path / "free.pres"
    free.write_text("gens: a b\n")
    code, report = invoke_json(capsys, ["monoid", "enumerate", str(free), "--node-budget", "500"])
    assert code == 1 and report["bounds"] == {"max_elements": 10_000, "node_budget": 500}
    code, report = invoke_json(
        capsys, ["lpa", "compare", files["f.graph"], files["f.graph"], "--max-elements", "7"]
    )
    assert code == 1 and report["outcome"] == "unknown"
    assert report["bounds"] == {"max_elements": 7, "node_budget": 200_000}


def test_unknown_enumeration_stopped_by_infinite(capsys, tmp_path):
    free = tmp_path / "free.pres"
    free.write_text("gens: a b\n")
    code, report = invoke_json(capsys, ["monoid", "enumerate", str(free)])
    assert code == 1 and report["stopped_by"] == "infinite"


def test_unknown_enumeration_stopped_by_node_budget(capsys, tmp_path):
    # u is in its own tail and u < u+v in grevlex: this needs a completion.
    pres = tmp_path / "p.pres"
    pres.write_text("gens: u v\nu = u+v\nv = u\n")
    code, report = invoke_json(capsys, ["monoid", "enumerate", str(pres), "--node-budget", "1"])
    assert code == 1 and report["stopped_by"] == "node_budget"
    assert report["bounds"] == {"max_elements": 10_000, "node_budget": 1}
    # A window's relations already are a Gröbner basis: no budget is spent,
    # and the free last stage makes the monoid infinite.
    graph = tmp_path / "window.graph"
    graph.write_text("v v1\nv v2\nv v3\nv s\ne v1 v2 2\ne v1 s\ne v2 v2\ne v2 v3 2\ne v3 v3\ne v3 s\n")
    code, window = invoke(capsys, ["talented", "window", str(graph), "2"])
    assert code == 0
    pres.write_text(window)
    code, report = invoke_json(capsys, ["monoid", "enumerate", str(pres), "--node-budget", "0"])
    assert code == 1 and report["stopped_by"] == "infinite"


def test_unknown_enumeration_stopped_by_max_elements(files, capsys, tmp_path):
    pres = tmp_path / "three.pres"
    pres.write_text("gens: a\na = 3a\n")
    code, report = invoke_json(capsys, ["monoid", "enumerate", str(pres), "--max-elements", "2"])
    assert code == 1 and report["stopped_by"] == "max_elements"
    code, report = invoke_json(capsys, ["monoid", "enumerate", str(pres), "--max-elements", "3"])
    assert code == 0 and len(report["table"]["elements"]) == 3 and "stopped_by" not in report
    code, report = invoke_json(
        capsys,
        ["lpa", "compare", files["f.graph"], files["f.graph"], "--presentation", "sandpile", "--max-elements", "2"],
    )
    assert code == 1 and report["stopped_by"] == "max_elements"


# One row per bounded command: its arguments, given the inputs below or the
# ``files`` fixture's, with a bound low enough to trip, and the bound its
# report names.  A search's report names its bounds in ``bounds`` alone.
STOPPED_ROWS = {
    "sandpile-stabilize": (["sandpile", "stabilize", "loops.graph", "three.cfg", "--budget", "10"], "firing_budget"),
    "sandpile-add": (["sandpile", "add", "loops.graph", "two.cfg", "two.cfg", "--budget", "7"], "firing_budget"),
    "sandpile-grid": (["sandpile", "grid", "4", "4", "--place", "1,1,100", "--budget", "1000"], "firing_budget"),
    "sandpile-monoid": (["sandpile", "monoid", "e.graph", "--max-elements", "5"], "max_elements"),
    "monoid-enumerate": (["monoid", "enumerate", "e.pres", "--max-elements", "5"], "max_elements"),
    "monoid-equal": (["monoid", "equal", "p.pres", "u", "v", "--node-budget", "1"], "node_budget"),
    "dimgroup-positive": (["dimgroup", "positive", "fib.mat", "[-1 2]@0", "--max-power", "0"], "max_power"),
    "shift-search-se": (["shift", "search-se", "baker-a.mat", "baker-b.mat", "--max-lag", "1"], "max_lag"),
    "lpa-compare": (
        ["lpa", "compare", "f.graph", "e.graph", "--mode", "plain", "--presentation", "sandpile", "--max-elements", "5"],
        "max_elements",
    ),
}
STOPPED_INPUTS = {
    "loops.graph": "v a\ne a a 3\n",
    "three.cfg": "a 3\n",
    "two.cfg": "a 2\n",
    "p.pres": "gens: u v\nu = u+v\nv = u\n",
    "baker-a.mat": "2 2\n1 3\n2 1\n",
    "baker-b.mat": "2 2\n1 6\n1 1\n",
}


@pytest.mark.parametrize("argv, bound", STOPPED_ROWS.values(), ids=STOPPED_ROWS)
def test_every_bounded_command_stops_the_same_way(files, capsys, tmp_path, argv, bound):
    for name, text in STOPPED_INPUTS.items():
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    code, present = invoke(capsys, ["monoid", "present", files["e.graph"], "--weighted", "--sink-zero"])
    (tmp_path / "e.pres").write_text(present)
    files["e.pres"] = str(tmp_path / "e.pres")
    code, report = invoke_json(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 1
    if argv[:2] == ["shift", "search-se"]:
        assert "stopped_by" not in report and bound in report["bounds"]
    else:
        assert report["stopped_by"] == bound


def test_cli_import_loads_no_layer():
    code = (
        "import json, sys, monodyn.cli; print(json.dumps(sorted(sys.modules)));"
        "import monodyn.graph, monodyn.sandpile, monodyn.monoid; print(json.dumps(sorted(sys.modules)));"
        "import monodyn.corpus, monodyn.dimension, monodyn.grid, monodyn.lpa, monodyn.matrix,"
        " monodyn.shifteq, monodyn.smith; print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    after_cli, after_monoid, after_all = (set(json.loads(line)) for line in proc.stdout.splitlines())
    assert {m for m in after_cli if m.startswith("monodyn")} == {
        "monodyn",
        "monodyn.cli",
        "monodyn.config",
        "monodyn.errors",
    }
    assert "numpy" not in after_cli
    # The value classes are plain slotted classes: no dataclasses, whose
    # import pulls in inspect, at start-up or in any layer.
    for modules in (after_cli, after_monoid, after_all):
        assert not modules & {"dataclasses", "inspect"}
    # The integer code loads only where a layer uses it.
    assert not after_monoid & {"monodyn.matrix", "monodyn.smith"}
    assert len({m for m in after_all if m.startswith("monodyn.")}) == 13  # every module outside monodyn.commands
    assert "numpy" not in after_all  # the grid module imports numpy only when it runs


def test_group_modules_load_no_layer_and_not_the_dispatcher():
    # Under ``python -m monodyn.cli`` the dispatcher is __main__: a group
    # module that imported monodyn.cli would compile and run it again.
    code = (
        "import importlib, json, sys\n"
        "for name in sys.argv[1:]:\n"
        "    assert hasattr(importlib.import_module('monodyn.commands.' + name), 'add_commands')\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code, *monodyn.cli._GROUPS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    groups = {f"monodyn.commands.{name}" for name in monodyn.cli._GROUPS}
    assert {m for m in modules if m.startswith("monodyn")} == {"monodyn", "monodyn.errors", "monodyn.commands", *groups}
    assert "numpy" not in modules


# Runs one command through cli.run in a fresh interpreter, then prints the
# exit code and every module the process has loaded.
LOADED_MODULES_CHILD = """
import contextlib, io, json, sys
from monodyn.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


# (argv, the layer it runs, layers it must not load, whether it loads numpy)
LAYER_ROWS = {
    "graph-check": (["graph", "check", "e.graph"], "graph", {"matrix", "monoid", "smith", "sandpile", "shifteq"}, False),
    "shift-invariants": (["shift", "invariants", "two.mat", "ones.mat"], "shifteq", {"graph", "monoid", "sandpile"}, False),
    "shift-verify-es": (["shift", "verify-es", "two.mat", "ones.mat", "row.mat", "col.mat"], "shifteq", {"graph", "monoid", "smith"}, False),
    "shift-verify-se": (["shift", "verify-se", "two.mat", "ones.mat", "row.mat", "col.mat"], "shifteq", {"graph", "monoid", "smith"}, False),
    "shift-verify-chain": (["shift", "verify-chain", "chain.json"], "shifteq", {"graph", "monoid", "smith"}, False),
    "sandpile-stabilize": (["sandpile", "stabilize", "e.graph", "eightv.cfg"], "sandpile", {"matrix", "monoid", "smith", "shifteq"}, False),
    "sandpile-monoid": (["sandpile", "monoid", "e.graph"], "monoid", {"matrix", "smith", "shifteq"}, False),
    "monoid-equal": (["monoid", "equal", "p.pres", "u", "v"], "monoid", {"graph", "matrix", "smith", "sandpile", "shifteq"}, False),
    "monoid-enumerate": (["monoid", "enumerate", "p.pres"], "monoid", {"graph", "matrix", "smith", "sandpile", "shifteq"}, False),
    "dimgroup-fib": (["dimgroup", "fib", "1", "0"], "dimension", {"graph", "monoid", "sandpile", "shifteq", "smith"}, False),
    "dimgroup-positive": (["dimgroup", "positive", "fib.mat", "[-1 2]@0"], "dimension", {"graph", "monoid", "smith"}, False),
    "dimgroup-shift": (["dimgroup", "shift", "fib.mat", "[1 0]@0"], "dimension", {"graph", "monoid", "smith"}, False),
    "lpa-matrix-iso": (["lpa", "matrix-iso", "2", "1", "2", "3"], "lpa", {"graph", "monoid", "smith", "sandpile", "shifteq"}, False),
    "lpa-ht-iso": (["lpa", "ht-iso", "2", "1", "2", "3"], "lpa", {"graph", "monoid", "smith", "sandpile", "shifteq"}, False),
    "grid": (["sandpile", "grid", "5", "5", "--place", "2,2,20"], "grid", {"graph", "matrix", "monoid", "smith", "shifteq"}, True),
    "grid-save-config": (["sandpile", "grid", "5", "5", "--place", "2,2,20", "--save-config", "g5.cfg"], "grid", {"graph", "monoid"}, True),
    # Saving and rendering name the cells without building the grid's graph,
    # and the image is built without numpy.
    "render": (["sandpile", "render", "2", "2", "zero.cfg", "--out", "z.ppm"], "grid", {"graph", "monoid", "shifteq"}, False),
}


@pytest.mark.parametrize("row", list(LAYER_ROWS))
def test_command_loads_only_its_layers(cli_workdir, row):
    argv, layer, absent, numpy = LAYER_ROWS[row]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_CHILD, *argv],
        capture_output=True,
        text=True,
        cwd=cli_workdir,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    layers = {m.split(".")[1] for m in result["modules"] if m.startswith("monodyn.")}
    assert layer in layers and not layers & absent
    assert ("numpy" in result["modules"]) == numpy
    # The dispatcher imports the module of the command's group only.
    groups = {m for m in result["modules"] if m.startswith("monodyn.commands.")}
    assert groups == {f"monodyn.commands.{argv[0]}"}


def test_talented_window(files, capsys):
    code, out = invoke(capsys, ["talented", "window", files["rose2.graph"], "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gens: v(-1) v(0) v(1)"
    assert "v(-1) = 2v(0)" in lines and "v(0) = 2v(1)" in lines


def test_dimgroup_equal(files, capsys):
    code, report = invoke_json(
        capsys, ["dimgroup", "equal", files["fib.mat"], "[1 0]@0", "[1 1]@1"]
    )
    assert code == 0 and report["verdict"] == "yes"
    code, report = invoke_json(
        capsys, ["dimgroup", "equal", files["fib.mat"], "[1 0]@0", "[0 1]@0"]
    )
    assert code == 1 and report["verdict"] == "no"


def test_dimgroup_positive(files, capsys):
    code, report = invoke_json(capsys, ["dimgroup", "positive", files["fib.mat"], "[-1 2]@0"])
    assert code == 0 and report["verdict"] == "positive"
    code, report = invoke_json(capsys, ["dimgroup", "positive", files["fib.mat"], "[-2 3]@0"])
    assert code == 1 and report["verdict"] == "not_positive"


def test_dimgroup_shift(files, capsys):
    code, report = invoke_json(
        capsys, ["dimgroup", "shift", files["fib.mat"], "[1 0]@0", "--direction", "forward"]
    )
    assert code == 0 and report["element"] == "[1 1]@0"
    code, report = invoke_json(
        capsys, ["dimgroup", "shift", files["fib.mat"], "[1 0]@0", "--direction", "backward"]
    )
    assert report["element"] == "[1 0]@1"


def test_dimgroup_fib(files, capsys):
    code, report = invoke_json(capsys, ["dimgroup", "fib", "1", "0"])
    assert code == 0 and report["member"] is True
    code, report = invoke_json(capsys, ["dimgroup", "fib", "--", "-2", "3"])
    assert code == 1 and report["member"] is False


def test_shift_verify_es(files, capsys):
    code, report = invoke_json(
        capsys,
        ["shift", "verify-es", files["two.mat"], files["ones.mat"], files["row.mat"], files["col.mat"]],
    )
    assert code == 0 and report["ok"] is True


def test_shift_verify_se(files, capsys):
    argv = ["shift", "verify-se", files["two.mat"], files["ones.mat"], files["row.mat"], files["col.mat"]]
    code, report = invoke_json(capsys, argv + ["--lag", "1"])
    assert code == 0 and report["ok"] is True
    code, report = invoke_json(capsys, argv + ["--lag", "2"])
    assert code == 1 and report["ok"] is False


def test_shift_search_sse_and_verify_chain(files, capsys, tmp_path):
    code, report = invoke_json(
        capsys, ["shift", "search-sse", files["two.mat"], files["ones.mat"], "--depth", "1", "--inner-dim", "2"]
    )
    assert code == 0 and report["outcome"] == "found"
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(report["chain"]))
    code, report = invoke_json(capsys, ["shift", "verify-chain", str(chain_file)])
    assert code == 0 and report["ok"] is True and report["failing_index"] is None


def test_shift_search_sse_not_found(files, capsys, tmp_path):
    a4 = tmp_path / "a4.mat"
    a4.write_text("2 2\n1 4\n3 1\n")
    b4 = tmp_path / "b4.mat"
    b4.write_text("2 2\n1 12\n1 1\n")
    code, report = invoke_json(
        capsys, ["shift", "search-sse", str(a4), str(b4), "--depth", "1", "--inner-dim", "2"]
    )
    assert code == 1 and report["outcome"] == "not_found"
    assert report["bounds"] == {"max_depth": 1, "max_inner_dim": 2}


@pytest.mark.parametrize("entry", [10**6, 10**23])
def test_shift_search_sse_stops_on_obstruction(capsys, tmp_path, entry):
    # Bowen-Franks separates [entry] from [6]; the search must not enumerate
    # factorizations with entries up to `entry` first.
    big = tmp_path / "big.mat"
    big.write_text(f"1 1\n{entry}\n")
    six = tmp_path / "six.mat"
    six.write_text("1 1\n6\n")
    start = time.perf_counter()
    code, report = invoke_json(capsys, ["shift", "search-sse", str(big), str(six)])
    assert time.perf_counter() - start < 1
    assert code == 1 and report["outcome"] == "not_found"
    assert report["obstruction"]["verdict"] == "obstruction"


def test_shift_search_sse_refuses_an_entry_range_it_cannot_count(capsys, tmp_path):
    # Equal Bowen-Franks groups and charpoly cores pass the invariants gate,
    # and the factorization box of 10^23 holds more than sys.maxsize values.
    a = tmp_path / "a.mat"
    a.write_text(f"2 2\n{10**23} 0\n0 0\n")
    b = tmp_path / "b.mat"
    b.write_text(f"1 1\n{10**23}\n")
    start = time.perf_counter()
    code, report = invoke_json(capsys, ["shift", "search-sse", str(a), str(b)])
    assert time.perf_counter() - start < 1
    assert code == 3 and report["kind"] == "error"
    assert "sys.maxsize" in report["message"]


def test_shift_search_se(files, capsys, tmp_path):
    code, report = invoke_json(capsys, ["shift", "search-se", files["two.mat"], files["ones.mat"]])
    assert code == 0 and report["outcome"] == "found" and report["lag"] == 1
    three = tmp_path / "three.mat"
    three.write_text("1 1\n3\n")
    code, report = invoke_json(capsys, ["shift", "search-se", files["two.mat"], str(three)])
    assert code == 1
    assert report["obstruction"]["verdict"] == "obstruction"


def test_capped_se_search_names_the_cap(capsys, tmp_path, monkeypatch):
    # The zero matrix against one edge: the coefficient box of the kernel is
    # over the cap, so both reports name it among the bounds.
    zero = tmp_path / "zero.mat"
    zero.write_text("4 4\n" + "0 0 0 0\n" * 4)
    edge = tmp_path / "edge.mat"
    edge.write_text("4 4\n0 1 0 0\n" + "0 0 0 0\n" * 3)
    code, report = invoke_json(capsys, ["shift", "search-se", str(zero), str(edge)])
    assert code == 1 and report["outcome"] == "not_found"
    assert report["bounds"] == {"max_lag": 4, "coeff_bound": 2, "candidate_cap": 250_000}
    empty = tmp_path / "empty.graph"
    empty.write_text("v a\nv b\nv c\nv d\n")
    one_edge = tmp_path / "one-edge.graph"
    one_edge.write_text("v a\nv b\nv c\nv d\ne a b\n")
    code, report = invoke_json(capsys, ["lpa", "compare", str(empty), str(one_edge), "--mode", "graded"])
    assert code == 1 and report["outcome"] == "unknown"
    assert report["bounds"]["candidate_cap"] == 250_000
    # Baker's pair: the lags stop where the powers pass MAX_POWER_BITS, here
    # lowered to 64 bits, long before the lag cap.
    monkeypatch.setattr("monodyn.shifteq.MAX_POWER_BITS", 64)
    left = tmp_path / "left.mat"
    left.write_text("2 2\n1 3\n2 1\n")
    right = tmp_path / "right.mat"
    right.write_text("2 2\n1 6\n1 1\n")
    code, report = invoke_json(capsys, ["shift", "search-se", str(left), str(right), "--max-lag", "1000000"])
    assert code == 1 and report["outcome"] == "not_found"
    assert report["bounds"] == {"max_lag": 10**6, "coeff_bound": 2, "max_power_bits": 64}


def test_shift_invariants(files, capsys, tmp_path):
    left = tmp_path / "left.mat"
    left.write_text("2 2\n1 3\n2 1\n")
    right = tmp_path / "right.mat"
    right.write_text("2 2\n1 6\n1 1\n")
    code, report = invoke_json(capsys, ["shift", "invariants", str(left), str(right)])
    assert code == 0 and report["verdict"] == "no_obstruction"
    assert report["report"]["bowen_franks_a"] == [6]
    assert report["report"]["charpoly_core_a"] == [1, -2, -5]


def test_lpa_simple_and_zorn(files, capsys, tmp_path):
    loop = tmp_path / "loop.graph"
    loop.write_text("v v\ne v v\n")
    code, report = invoke_json(capsys, ["lpa", "simple", files["rose2.graph"]])
    assert code == 0 and report["simple"] is True
    code, report = invoke_json(capsys, ["lpa", "simple", str(loop)])
    assert code == 1 and report["failure"] == "exitless_cycle"
    code, report = invoke_json(capsys, ["lpa", "zorn", str(loop)])
    assert code == 1 and report["zorn"] is False


def test_lpa_iso_commands(files, capsys):
    code, report = invoke_json(capsys, ["lpa", "matrix-iso", "2", "1", "2", "3"])
    assert code == 0
    assert report["kind"] == "iso" and report["result"] is True
    code, report = invoke_json(capsys, ["lpa", "ht-iso", "4", "3", "4", "5"])
    assert code == 1 and report["result"] is False


def test_lpa_compare(files, capsys, tmp_path):
    two_cycle = tmp_path / "tc.graph"
    two_cycle.write_text("v u\nv v\ne u u\ne u v\ne v u\n")
    code, report = invoke_json(
        capsys, ["lpa", "compare", str(two_cycle), files["rose2.graph"], "--mode", "plain"]
    )
    assert code == 0 and report["outcome"] == "iso_witness"
    code, report = invoke_json(
        capsys,
        ["lpa", "compare", files["f.graph"], files["e.graph"], "--presentation", "sandpile"],
    )
    assert code == 1 and report["outcome"] == "not_iso"


def test_usage_error_exit_2(files):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_runtime_error_exit_3(files, capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("v a\ne a b\n")
    code, report = invoke_json(capsys, ["graph", "check", str(bad)])
    assert code == 3 and report["kind"] == "error"
    code, report = invoke_json(capsys, ["graph", "check", str(tmp_path / "missing.graph")])
    assert code == 3


def test_malformed_place_is_json_error(files, capsys):
    code, report = invoke_json(capsys, ["sandpile", "grid", "3", "3", "--place", "a,b,c"])
    assert code == 3 and report["kind"] == "error" and "a,b,c" in report["message"]


@pytest.mark.parametrize(
    "text",
    [
        '{"matrices": [[[1]]], "witnesses": [',  # truncated
        "[1, 2]",
        '{"matrices": [[[1]]]}',
        '{"matrices": 5, "witnesses": []}',
        '{"matrices": [[["x"]]], "witnesses": []}',
        '{"matrices": [[[1]], [[1]]], "witnesses": [{"r": [[1]]}]}',
        # Entries that are not integers used to be truncated, so this chain
        # of [[1.9]] and [[1]] verified.
        '{"matrices": [[[1.9]], [[1]]], "witnesses": [{"r": [[1]], "s": [[1]]}]}',
        '{"matrices": [[["1"]], [[1]]], "witnesses": [{"r": [[1]], "s": [[1]]}]}',
    ],
)
def test_malformed_chain_is_json_error(files, capsys, tmp_path, text):
    bad = tmp_path / "bad-chain.json"
    bad.write_text(text)
    code, report = invoke_json(capsys, ["shift", "verify-chain", str(bad)])
    assert code == 3 and report["kind"] == "error"


@pytest.mark.parametrize(
    "places",
    [["1,1,5", "1,1,-5"], ["1,1,-5", "1,1,5"], ["1,1,-2"], ["0,2,1", "1,1,-1", "1,1,3"]],
    ids=["then-cancelled", "cancelled-after", "alone", "outweighed"],
)
def test_negative_place_chunk_is_refused(files, capsys, places):
    # Chunks on one cell are summed, but a negative one is refused even when
    # the others on its cell outweigh it.
    argv = ["sandpile", "grid", "3", "3", "--mode", "open"] + [f"--place={p}" for p in places]
    code, report = invoke_json(capsys, argv)
    assert code == 3 and report == {"kind": "error", "message": "negative placement"}


def test_grid_placement_beyond_int64(files, capsys):
    chips = 2**63
    code, report = invoke_json(
        capsys,
        ["sandpile", "grid", "3", "3", "--mode", "open", "--place", f"1,1,{chips}", "--budget", str(10**30)],
    )
    assert code == 0 and report["stabilized"]
    left = sum(int(count) * cells for count, cells in report["histogram"].items())
    assert left + report["absorbed"] == chips


def test_seed_flag_removed(files):
    with pytest.raises(SystemExit) as exc:
        run(["lpa", "matrix-iso", "2", "1", "2", "3", "--seed", "1"])
    assert exc.value.code == 2


def test_reports_byte_identical(files, capsys):
    _, first = invoke(capsys, ["graph", "check", files["e.graph"]])
    _, second = invoke(capsys, ["graph", "check", files["e.graph"]])
    assert first == second
    _, compact = invoke(capsys, ["graph", "check", files["e.graph"], "--json"])
    assert "\n" not in compact.strip()
    assert json.loads(compact) == json.loads(first)


def test_bounds_file(files, capsys, tmp_path):
    cfg = tmp_path / "monodyn.toml"
    cfg.write_text("# bounds\nfiring_budget = 50\nmax_elements = 20\n")
    cyc = tmp_path / "cyc.graph"
    cyc.write_text("v a\nv b\ne a b\ne b a\n")
    one = tmp_path / "one.cfg"
    one.write_text("a 1\n")
    code, report = invoke_json(
        capsys,
        ["sandpile", "stabilize", str(cyc), str(one), "--bounds-file", str(cfg)],
    )
    assert code == 1 and report["firings"] == 50
    # The file may set bounds a command does not read; each uses its own.
    code, report = invoke_json(capsys, ["sandpile", "monoid", files["e.graph"], "--bounds-file", str(cfg)])
    assert code == 1 and report["bounds"] == {"max_elements": 20} and report["stopped_by"] == "max_elements"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "monodyn.cli", "lpa", "matrix-iso", "2", "1", "2", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] is True


# --- bound flags and the exit-code contract ----------------------------------

# Every subcommand, with inputs from WORKDIR_INPUTS, and the bounds its
# handler reads.
COMMAND_BOUNDS = [
    (["graph", "check", "e.graph"], ()),
    (["graph", "matrix", "e.graph"], ()),
    (["sandpile", "stabilize", "e.graph", "eightv.cfg"], ("firing_budget",)),
    (["sandpile", "add", "f.graph", "x.cfg", "x.cfg"], ("firing_budget",)),
    (["sandpile", "monoid", "e.graph"], ("max_elements",)),
    (["sandpile", "grid", "3", "3", "--place", "1,1,8"], ("firing_budget",)),
    (["sandpile", "render", "2", "2", "zero.cfg", "--out", "z.ppm"], ()),
    (["monoid", "present", "e.graph"], ()),
    (["monoid", "equal", "p.pres", "u", "v"], ("node_budget",)),
    (["monoid", "enumerate", "p.pres"], ("max_elements", "node_budget")),
    (["talented", "window", "e.graph", "1"], ()),
    (["dimgroup", "equal", "fib.mat", "[1 0]@0", "[1 1]@1"], ()),
    (["dimgroup", "positive", "fib.mat", "[-1 2]@0"], ("max_power",)),
    (["dimgroup", "shift", "fib.mat", "[1 0]@0"], ()),
    (["dimgroup", "fib", "1", "0"], ()),
    (["shift", "verify-es", "two.mat", "ones.mat", "row.mat", "col.mat"], ()),
    (["shift", "verify-se", "two.mat", "ones.mat", "row.mat", "col.mat"], ()),
    (["shift", "verify-chain", "chain.json"], ()),
    (["shift", "search-sse", "two.mat", "ones.mat"], ("search_depth", "max_inner_dim")),
    (["shift", "search-se", "two.mat", "ones.mat"], ("max_lag", "coeff_bound")),
    (["shift", "invariants", "two.mat", "ones.mat"], ()),
    (["lpa", "simple", "e.graph"], ()),
    (["lpa", "zorn", "e.graph"], ()),
    (["lpa", "matrix-iso", "2", "1", "2", "3"], ()),
    (["lpa", "ht-iso", "2", "1", "2", "3"], ()),
    (["lpa", "compare", "f.graph", "e.graph"], ("max_elements", "node_budget", "max_lag", "coeff_bound")),
]
BOUND_FLAGS = {
    "search_depth": "--depth",
    "max_elements": "--max-elements",
    "max_power": "--max-power",
    "firing_budget": "--budget",
    "max_inner_dim": "--inner-dim",
    "max_lag": "--max-lag",
    "coeff_bound": "--coeff-bound",
    "node_budget": "--node-budget",
}


@pytest.mark.parametrize(
    "argv, reads", COMMAND_BOUNDS, ids=[" ".join(argv[:2]) for argv, _ in COMMAND_BOUNDS]
)
def test_bound_flags_follow_their_handlers(cli_workdir, capsys, monkeypatch, argv, reads):
    monkeypatch.chdir(cli_workdir)
    parser = build_parser()
    flags = [(flag, bound in reads, "7") for bound, flag in BOUND_FLAGS.items()]
    flags.append(("--bounds-file", bool(reads), "bounds.txt"))
    for flag, accepted, value in flags:
        if accepted:
            parser.parse_args(argv + [flag, value])
            continue
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + [flag, value])
        assert exc.value.code == 2, flag
    capsys.readouterr()

    read = set()

    class Recorder:
        def __init__(self, bounds):
            self._bounds = bounds

        def __getattr__(self, name):
            read.add(name)
            return getattr(self._bounds, name)

    resolve = monodyn.cli._resolve_bounds
    monkeypatch.setattr(monodyn.cli, "_resolve_bounds", lambda args: Recorder(resolve(args)))
    code, _ = invoke(capsys, argv)
    assert code in (0, 1) and read == set(reads)


@pytest.mark.parametrize(
    "argv, flag, bound",
    [(argv, BOUND_FLAGS[bound], bound) for argv, reads in COMMAND_BOUNDS for bound in reads],
    ids=[f"{' '.join(argv[:2])} {BOUND_FLAGS[bound]}" for argv, reads in COMMAND_BOUNDS for bound in reads],
)
def test_negative_bound_flag_is_refused(cli_workdir, capsys, monkeypatch, argv, flag, bound):
    # The same check refuses a negative bound from a flag and from a file.
    monkeypatch.chdir(cli_workdir)
    code, report = invoke_json(capsys, argv + [flag, "-1"])
    assert code == 3 and report == {"kind": "error", "message": f"bound {bound!r} must be nonnegative"}
    code, report = invoke_json(capsys, argv + ["--bounds-file", "bad-bounds.txt"])
    assert code == 3 and report["message"] == "bound 'firing_budget' must be nonnegative"


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in COMMAND_BOUNDS], ids=[" ".join(argv[:2]) for argv, _ in COMMAND_BOUNDS]
)
def test_one_group_parser_answers_like_the_whole_tree(capsys, argv):
    # ``run`` builds only the named group's subcommands; parses, help texts
    # and usage errors must come out as from the whole tree.
    variants = [
        argv,
        argv[:1],
        argv[:1] + ["-h"],
        argv[:1] + ["bogus"],
        argv[:2],
        argv[:2] + ["-h"],
        argv + ["--unknown"],
        argv + ["extra", "--max-elements", "x"],
    ]
    for args in variants:
        answers = []
        for parser in (build_parser(), build_parser(argv[0])):
            try:
                code, parsed = None, vars(parser.parse_args(args))
            except SystemExit as exc:
                code, parsed = exc.code, None
            answers.append((code, parsed, capsys.readouterr()))
        assert answers[0] == answers[1], args


@pytest.mark.parametrize(
    "argv",
    [
        ["sandpile", "grid", "1", "100000000000000000000"],
        ["sandpile", "render", "3", "100000000000000000000", "bad.cfg"],
    ],
    ids=["grid", "render"],
)
def test_oversized_grid_is_refused_up_front(cli_workdir, capsys, monkeypatch, argv):
    monkeypatch.chdir(cli_workdir)
    start = time.perf_counter()
    code, report = invoke_json(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and report["kind"] == "error"
    assert f"MAX_GRID_CELLS = {MAX_GRID_CELLS}" in report["message"]


def test_largest_grid_saves_and_renders_in_seconds(tmp_path, monkeypatch):
    # Saving and rendering name the cells without building the grid's graph,
    # which alone took tens of seconds and gigabytes at 1024 x 1024.
    monkeypatch.chdir(tmp_path)
    side = "1024"
    for argv in (
        ["sandpile", "grid", side, side, "--mode", "open", "--place", "512,512,4096", "--save-config", "pile.cfg"],
        ["sandpile", "render", side, side, "pile.cfg", "--mode", "open", "--out", "pile.ppm"],
    ):
        start = time.perf_counter()
        code, _, _ = run_captured(argv)
        assert time.perf_counter() - start < 5
        assert code == 0
    width, height, pixels = decode_ppm((tmp_path / "pile.ppm").read_bytes())
    assert (width, height) == (1024, 1024)
    saved = dict(line.split() for line in (tmp_path / "pile.cfg").read_text().splitlines())
    assert tuple(pixels[512, 512]) == DEFAULT_PALETTE.colors[int(saved.get("r512c512", 0))]


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["shift", "verify-se", "two.mat", "two.mat", "two.mat", "two.mat", "--lag", "100000000000"], f"MAX_POWER_BITS = {MAX_POWER_BITS}"),
        (["dimgroup", "equal", "two.mat", "[1]@100000000000000000000", "[1]@0"], f"MAX_POWER_BITS = {MAX_POWER_BITS}"),
        (["talented", "window", "e.graph", "5000"], f"MAX_WINDOW_RADIUS = {MAX_WINDOW_RADIUS}"),
    ],
    ids=["verify-se-lag", "dimgroup-stage-gap", "window-radius"],
)
def test_named_limit_is_refused_up_front(cli_workdir, capsys, monkeypatch, argv, limit):
    # Without its limit each runs for minutes: [2]^lag and [2]^gap by
    # squaring, and a presentation that grows with radius^2.
    monkeypatch.chdir(cli_workdir)
    start = time.perf_counter()
    code, report = invoke_json(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and report["kind"] == "error"
    assert limit in report["message"]


def run_captured(argv: list[str]) -> tuple[int, bytes, str]:
    """cli.run with stdout and stderr captured; usage errors give exit 2."""
    buf = io.BytesIO()
    stdout = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        stdout.flush()
    return code, buf.getvalue(), stderr.getvalue()


GRID_SIDES = st.one_of(st.integers(-2, 6), st.integers(MAX_GRID_CELLS + 1, 10**30)).map(str)
PLACES = st.one_of(
    st.tuples(
        st.integers(-2, 7),
        st.integers(-2, 7),
        st.one_of(st.integers(-3, 64), st.integers(0, 10**30)),
    ).map(lambda t: ",".join(map(str, t))),
    st.text(alphabet="0123456789,- ab", max_size=10),
)
# A chunk and its negation on one cell, which must not cancel out.
CANCELLING_PLACES = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 64)).map(
    lambda t: [f"{t[0]},{t[1]},{t[2]}", f"{t[0]},{t[1]},{-t[2]}"]
)
MODES = st.sampled_from(("closed", "open", "torus"))


def has_negative_chunk(argv: list[str]) -> bool:
    """Whether a well-formed ``--place=row,col,chips`` of argv has chips < 0."""
    for arg in argv:
        if arg.startswith("--place="):
            try:
                values = [int(part) for part in arg[len("--place=") :].split(",")]
            except ValueError:
                continue
            if len(values) == 3 and values[2] < 0:
                return True
    return False


# Matrix entries stay at most 9 or at least 2^63: mid-size entries send the
# unbudgeted factorization enumeration of search-sse into minutes.  The two
# searches get squares of side 1 or 2 only: a 3x3 pair that passes the
# invariants gate can take over 10 s (search-sse at inner dim 2) or 3 s
# (search-se, whose candidate box fills its cap) on entries up to 9.
SMALL_ENTRIES = st.integers(0, 9)
BIG_ENTRIES = st.one_of(SMALL_ENTRIES, st.integers(2**63, 2**70))
MALFORMED_MATRICES = ("", "2\n", "0 3\n", "2 2\n1 2 3\n", "1 1\nx\n", "1 1\n-4\n", "1 2\n1 2\n3\n")


def sized_matrix_text(rows: int, cols: int, entries=SMALL_ENTRIES) -> st.SearchStrategy[str]:
    def text(values: list[int]) -> str:
        body = "".join(" ".join(map(str, values[i * cols : (i + 1) * cols])) + "\n" for i in range(rows))
        return f"{rows} {cols}\n{body}"

    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(text)


@st.composite
def matrix_text(draw, max_side: int) -> str:
    kind = draw(st.sampled_from(("small", "big", "non-square", "malformed")))
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED_MATRICES))
    if kind == "non-square":
        rows, cols = draw(st.sampled_from(((1, 2), (2, 1), (2, 3), (3, 2))))
    else:
        rows = cols = draw(st.integers(1, max_side))
    return draw(sized_matrix_text(rows, cols, BIG_ENTRIES if kind == "big" else SMALL_ENTRIES))


@st.composite
def shift_case(draw) -> tuple[list[str], dict[str, str]]:
    command = draw(st.sampled_from(("invariants", "verify-es", "search-se", "search-sse")))
    side = 3 if command in ("invariants", "verify-es") else 2
    names = ["a.gen.mat", "b.gen.mat"] + (["r.gen.mat", "s.gen.mat"] if command == "verify-es" else [])
    files = {name: draw(matrix_text(side)) for name in names}
    argv = ["shift", command, *names]
    if command == "search-sse":
        argv += ["--depth", "1", "--inner-dim", draw(st.sampled_from(("1", "2")))]
    return argv, files


MALFORMED_GRAPHS = ("", "e a b\n", "v a\nv a\n", "v a\ne a a 0\n", "v a\ne a b\n", "x y\n")


@st.composite
def graph_text(draw) -> str:
    """A graph on one to three vertices with edge multiplicities up to 3, or a
    malformed graph text."""
    if draw(st.booleans()) and draw(st.booleans()):
        return draw(st.sampled_from(MALFORMED_GRAPHS))
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    lines = [f"v {v}\n" for v in names]
    for src in names:
        for dst in names:
            mult = draw(st.integers(0, 3))
            if mult:
                lines.append(f"e {src} {dst} {mult}\n")
    return "".join(lines)


@st.composite
def sandpile_graph_text(draw) -> tuple[str, list[str]]:
    """A sandpile graph and its non-sink vertices: one to three vertices and
    the sink ``s``, each vertex with an edge to ``s`` or to a vertex before
    it, so every vertex reaches the sink and every game ends; more edges,
    loops among them, of multiplicity up to 3.  At times a malformed graph
    text."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(MALFORMED_GRAPHS)), ["a"]
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    lines = [f"v {v}\n" for v in names] + ["v s\n"]
    for i, src in enumerate(names):
        way_out = draw(st.sampled_from(["s", *names[:i]]))
        for dst in names + ["s"]:
            mult = draw(st.integers(1 if dst == way_out else 0, 3))
            if mult:
                lines.append(f"e {src} {dst} {mult}\n")
    return "".join(lines), names


def sandpile_config_text(names: list[str], counts: st.SearchStrategy[int]) -> st.SearchStrategy[str]:
    """Config lines over ``names`` with ``counts``; one line in eight is
    malformed: an unknown vertex, the sink, a negative or non-integer count,
    a line of the wrong length."""
    good = st.tuples(st.sampled_from(names), counts).map(lambda t: f"{t[0]} {t[1]}")
    bad = st.sampled_from(("nowhere 2", "s 1", "a -1", "a x", "a 1.5", "a", "a 1 2", "# note", ""))
    lines = st.lists(st.integers(0, 7).flatmap(lambda k: bad if k == 0 else good), max_size=4)
    return lines.map(lambda ls: "\n".join(ls) + "\n")


@st.composite
def sandpile_case(draw) -> tuple[list[str], dict[str, str]]:
    """``sandpile stabilize``, with or without ``--trace``, and ``sandpile
    add`` on a generated sandpile graph and config files.  A traced run
    fires one chip at a time, so it gets small counts only; the summands of
    ``add`` are mostly stable."""
    text, names = draw(sandpile_graph_text())
    files = {"g.gen.graph": text}
    budget = draw(st.sampled_from(([],) * 5 + (["--budget", "0"], ["--budget", "7"], ["--budget", "-1"])))
    if draw(st.booleans()):
        trace = draw(st.sampled_from(([], ["--trace"])))
        counts = st.integers(0, 9) if trace else st.one_of(st.integers(0, 9), st.integers(0, 2**70))
        files["c.gen.cfg"] = draw(sandpile_config_text(names, counts))
        return ["sandpile", "stabilize", "g.gen.graph", "c.gen.cfg", *trace, *budget], files
    counts = st.one_of(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**70))
    files["a.gen.cfg"] = draw(sandpile_config_text(names, counts))
    files["b.gen.cfg"] = draw(sandpile_config_text(names, counts))
    return ["sandpile", "add", "g.gen.graph", "a.gen.cfg", "b.gen.cfg", *budget], files


def near(limit: int) -> st.SearchStrategy[int]:
    """Small values, values at the limit, and values far past it."""
    return st.one_of(st.integers(-2, 3), st.integers(limit - 2, limit + 2), st.integers(limit + 3, 10**20))


@st.composite
def limit_case(draw) -> tuple[list[str], dict[str, str]]:
    """The commands with a named size limit, on generated files, with radii,
    stages and lags up to and past the limits."""
    command = draw(st.sampled_from(("window", "equal", "verify-se")))
    if command == "window":
        return ["talented", "window", "g.gen.graph", str(draw(near(MAX_WINDOW_RADIUS)))], {"g.gen.graph": draw(graph_text())}
    # Mostly shapes that fit together, at times one file of any shape.
    any_shape = st.sampled_from((False,) * 7 + (True,))
    if command == "equal":
        side = draw(st.integers(1, 3))
        matrix = draw(matrix_text(3) if draw(any_shape) else sized_matrix_text(side, side, BIG_ENTRIES))
        elements = []
        for _ in range(2):
            length = draw(st.integers(0, 3)) if draw(any_shape) else side
            vec = " ".join(map(str, draw(st.lists(st.integers(-9, 9), min_size=length, max_size=length))))
            elements.append(f"[{vec}]@{draw(near(MAX_POWER_BITS))}")
        return ["dimgroup", "equal", "m.gen.mat", *elements], {"m.gen.mat": matrix}
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    shapes = {"a.gen.mat": (n, n), "b.gen.mat": (m, m), "r.gen.mat": (n, m), "s.gen.mat": (m, n)}
    files = {
        name: draw(matrix_text(2) if draw(any_shape) else sized_matrix_text(*shape, BIG_ENTRIES))
        for name, shape in shapes.items()
    }
    lag = draw(st.one_of(near(MAX_POWER_BITS), st.integers(4, MAX_POWER_BITS)))
    return ["shift", "verify-se", *files, "--lag", str(lag)], files


# One digit past the longest decimal that int() converts.
HUGE = "1" * 4301
MALFORMED_PRESENTATIONS = ("", "a = b\n", "gens:\n", "gens: a a\n", "gens: a\na = a\n", "gens: a\na a\n", "gens: a\n2a = c\n", "gens: a\na = +\n", f"gens: a\n{HUGE}a = a\n")


def term_text(gens: list[str]) -> st.SearchStrategy[str]:
    """A term over ``gens`` with coefficients up to 3."""
    coeffs = st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens))
    return coeffs.map(lambda cs: "+".join(g if c == 1 else f"{c}{g}" for c, g in zip(cs, gens) if c) or "0")


@st.composite
def presentation_text(draw) -> tuple[str, list[str]]:
    """A presentation on one to three generators with up to three relations
    of coefficients up to 3, or a malformed presentation text; and the
    generator names."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(MALFORMED_PRESENTATIONS)), ["a"]
    gens = ["a", "b", "c"][: draw(st.integers(1, 3))]
    relations = draw(st.lists(st.tuples(term_text(gens), term_text(gens)), max_size=3))
    return f"gens: {' '.join(gens)}\n" + "".join(f"{lhs} = {rhs}\n" for lhs, rhs in relations), gens


# Config lines, mostly over the cells of grids up to 4 x 4, and malformed ones.
CONFIG_LINES = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 9)).map(lambda t: f"r{t[0]}c{t[1]} {t[2]}"),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 9)).map(lambda t: f"r{t[0]}c{t[1]} {t[2]}"),
    st.tuples(st.integers(-1, 7), st.integers(-1, 7)).map(lambda t: f"r{t[0]}c{t[1]} 1"),
    st.integers(0, 2**70).map(lambda n: f"r0c0 {n}"),
    st.sampled_from(("sink 1", "r0c0 -1", "r0c0 x", "r0c0", "# note", "", "nowhere 2", f"r{HUGE}c0 1", f"r0c{HUGE} 1")),
)
# Palettes of three to five colours with channels just in and out of
# 0..255, and colours of the wrong arity or with a non-integer channel.
PALETTES = st.one_of(
    st.lists(st.tuples(*[st.integers(-1, 256)] * 3), min_size=3, max_size=5).map(
        lambda colors: ";".join(",".join(map(str, rgb)) for rgb in colors)
    ),
    st.sampled_from(("1,2;1,1,1;1,1,1;1,1,1", "a,b,c;1,1,1;1,1,1;1,1,1")),
)


def small_matrix(rows: int, cols: int) -> st.SearchStrategy[list[list[int]]]:
    return st.lists(st.lists(st.integers(0, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def chain_text(draw) -> str:
    """A chain document of one to three small matrices with a witness per
    step, of fitting shapes or, at times, of any shape; or a malformed one."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(('{"matrices": [[[1]]], "witnesses": [', "[]", '{"matrices": [[[1.5]]], "witnesses": []}')))
    sides = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    matrices = [draw(small_matrix(n, n)) for n in sides]
    witnesses = []
    for n, m in zip(sides, sides[1:]):
        if draw(st.integers(0, 7)) == 0:
            n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        witnesses.append({"r": draw(small_matrix(n, m)), "s": draw(small_matrix(m, n))})
    return json.dumps({"matrices": matrices, "witnesses": witnesses})


@st.composite
def cli_case(draw) -> tuple[list[str], dict[str, str]]:
    """An argv and the generated files it reads, by name in the work dir."""
    kinds = ("grid", "render", "bound", "shift", "limit", "graph", "monoid", "lpa", "sandpile-monoid", "chain", "sandpile")
    kind = draw(st.sampled_from(kinds))
    if kind == "sandpile":
        return draw(sandpile_case())
    if kind == "shift":
        return draw(shift_case())
    if kind == "chain":
        return ["shift", "verify-chain", "c.gen.json"], {"c.gen.json": draw(chain_text())}
    if kind == "sandpile-monoid":
        return ["sandpile", "monoid", "g.gen.graph"], {"g.gen.graph": draw(graph_text())}
    if kind == "limit":
        return draw(limit_case())
    if kind == "graph":
        argv = ["graph", draw(st.sampled_from(("check", "matrix"))), "g.gen.graph"]
        if argv[1] == "matrix":
            argv += draw(st.sampled_from(([], ["--out", "m.gen.mat"], ["--out", "no-dir/m.mat"])))
        return argv, {"g.gen.graph": draw(graph_text())}
    if kind == "monoid":
        command = draw(st.sampled_from(("present", "equal", "enumerate")))
        if command == "present":
            flags = draw(st.lists(st.sampled_from(("--weighted", "--sink-zero")), unique=True))
            return ["monoid", "present", "g.gen.graph", *flags], {"g.gen.graph": draw(graph_text())}
        text, gens = draw(presentation_text())
        files = {"p.gen.pres": text}
        if command == "enumerate":
            return ["monoid", "enumerate", "p.gen.pres"], files
        words = st.one_of(term_text(gens), term_text(gens), term_text(gens), st.sampled_from(("z", "a+", "2", "", f"{HUGE}a")))
        return ["monoid", "equal", "p.gen.pres", draw(words), draw(words)], files
    if kind == "lpa":
        command = draw(st.sampled_from(("simple", "zorn", "compare")))
        if command != "compare":
            return ["lpa", command, "g.gen.graph"], {"g.gen.graph": draw(graph_text())}
        files = {"g.gen.graph": draw(graph_text()), "h.gen.graph": draw(graph_text())}
        argv = ["lpa", "compare", "g.gen.graph", "h.gen.graph", "--mode", draw(st.sampled_from(("plain", "graded")))]
        return argv + ["--presentation", draw(st.sampled_from(("unweighted", "weighted", "sandpile")))], files
    if kind == "grid":
        places = draw(st.lists(PLACES, max_size=3))
        places = draw(st.permutations(places + draw(st.one_of(st.just([]), CANCELLING_PLACES))))
        # A small budget keeps piles that never settle from running long.
        argv = (
            ["sandpile", "grid", draw(GRID_SIDES), draw(GRID_SIDES), "--mode", draw(MODES)]
            + [f"--place={p}" for p in places]
            + ["--budget", str(draw(st.integers(0, 500)))]
        )
        return argv + draw(st.sampled_from(([], ["--save-config", "s.gen.cfg"], ["--save-config", "no-dir/s.cfg"]))), {}
    if kind == "render":
        argv = ["sandpile", "render", draw(GRID_SIDES), draw(GRID_SIDES)]
        argv += [draw(st.sampled_from(("c.gen.cfg", "zero.cfg", "bad.cfg", "missing.cfg"))), "--mode", draw(MODES)]
        files = {"c.gen.cfg": "\n".join(draw(st.lists(CONFIG_LINES, max_size=6)))}
        argv += draw(st.one_of(st.just([]), PALETTES.map(lambda palette: [f"--palette={palette}"])))
        return argv + draw(st.sampled_from(([], ["--out", "r.ppm"]))), files
    argv, _ = draw(st.sampled_from(COMMAND_BOUNDS))
    flag = draw(st.sampled_from([*BOUND_FLAGS.values(), "--bounds-file"]))
    if flag == "--bounds-file":
        value = draw(st.sampled_from(("bounds.txt", "bad-bounds.txt", "missing.txt")))
    else:
        value = str(draw(st.integers(-2, 3)))
    return argv + [flag, value], {}


# Inputs that once ended in a traceback: a palette channel, a cell name, a
# presentation coefficient and a term argument that int() refuses.
@settings(max_examples=500, deadline=None)
@given(case=cli_case())
@example(case=(["sandpile", "render", "2", "2", "zero.cfg", "--palette=a,b,c;1,1,1;1,1,1;1,1,1"], {}))
@example(case=(["sandpile", "render", "2", "2", "c.gen.cfg"], {"c.gen.cfg": f"r{HUGE}c0 1\n"}))
@example(case=(["monoid", "enumerate", "p.gen.pres"], {"p.gen.pres": f"gens: a\n{HUGE}a = a\n"}))
@example(case=(["monoid", "equal", "p.gen.pres", f"{HUGE}a", "a"], {"p.gen.pres": "gens: a\n"}))
def test_cli_contract(cli_workdir, case):
    argv, files = case
    for name, text in files.items():
        (cli_workdir / name).write_text(text)
    old = os.getcwd()
    os.chdir(cli_workdir)
    try:
        code, out, err = run_captured(argv)
    finally:
        os.chdir(old)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    # A pile that was stabilized, or ran out of budget, had no negative chunk.
    if code in (0, 1):
        assert not has_negative_chunk(argv)
    if code == 3:
        report = json.loads(out)
        SCHEMA_VALIDATOR.validate(report)
        assert report["kind"] == "error" and report["message"]


# --- pinned bytes of every subcommand ---------------------------------------

# Malformed inputs, one per file kind, and a grid pile with a repeated cell,
# a comment and counts past 3 and past 255.
PIN_INPUTS = {
    "bad.graph": "v a\ne a b\n",
    "bad.mat": "2\n",
    "bad.pres": "gens: u v\nu = w\n",
    "bad-chain.json": '{"matrices": [[[1]]], "witnesses": [',
    "pile.cfg": "# a pile\nr0c0 3\nr1c1 7\nr2c2 300\nr0c0 1\n",
}
MALFORMED_BY_SUFFIX = {".graph": "bad.graph", ".cfg": "bad.cfg", ".mat": "bad.mat", ".pres": "bad.pres", ".json": "bad-chain.json"}
# Normal runs that write their output, in place of the COMMAND_BOUNDS argv,
# and the file each one writes.
PIN_RUNS = {
    "graph matrix": (["graph", "matrix", "e.graph", "--out", "e.mat"], "e.mat"),
    "sandpile grid": (["sandpile", "grid", "3", "4", "--mode", "open", "--place", "1,1,40", "--save-config", "out.cfg"], "out.cfg"),
    "sandpile render": (["sandpile", "render", "3", "4", "pile.cfg", "--mode", "open"], None),
}
# Commands that read no file, and an argument each that argparse refuses.
NO_FILE_MALFORMED = {
    "sandpile grid": ["sandpile", "grid", "3", "3", "--place", "a,b,c"],
    "dimgroup fib": ["dimgroup", "fib", "1", "x"],
    "lpa matrix-iso": ["lpa", "matrix-iso", "2", "1", "2", "x"],
    "lpa ht-iso": ["lpa", "ht-iso", "2", "1", "x", "3"],
}


def pin_cases() -> dict[str, tuple[list[str], str | None]]:
    """Case id -> (argv, the file the run writes or None): the top-level and
    group help, and per subcommand a normal run, its help, a missing
    argument, an unknown flag, a missing file and a malformed file."""
    cases = {"help": (["-h"], None)}
    for group in dict.fromkeys(argv[0] for argv, _ in COMMAND_BOUNDS):
        cases[f"{group} help"] = ([group, "-h"], None)
    for argv, _ in COMMAND_BOUNDS:
        name = " ".join(argv[:2])
        run_argv, written = PIN_RUNS.get(name, (argv, None))
        cases[f"{name} run"] = (run_argv, written)
        cases[f"{name} help"] = (argv[:2] + ["-h"], None)
        cases[f"{name} missing argument"] = (argv[:2], None)
        cases[f"{name} unknown flag"] = (argv + ["--frobnicate"], None)
        inputs = [i for i, arg in enumerate(run_argv) if arg in WORKDIR_INPUTS or arg in PIN_INPUTS]
        if inputs:
            first = inputs[0]
            suffix = os.path.splitext(run_argv[first])[1]
            cases[f"{name} missing file"] = (run_argv[:first] + ["missing" + suffix] + run_argv[first + 1 :], None)
            malformed = MALFORMED_BY_SUFFIX[suffix]
            cases[f"{name} malformed file"] = (run_argv[:first] + [malformed] + run_argv[first + 1 :], None)
        else:
            cases[f"{name} malformed argument"] = (NO_FILE_MALFORMED[name], None)
    cases["sandpile grid unwritable file"] = (PIN_RUNS["sandpile grid"][0][:-1] + ["no-dir/out.cfg"], None)
    return cases


PIN_CASES = pin_cases()
CLI_DIGESTS_FILE = os.path.join(os.path.dirname(__file__), "cli_digests.json")


def pin_digest(workdir, argv: list[str], written: str | None) -> list:
    """[exit code, SHA-256 of stdout, of stderr, of the written file or None]
    of ``cli.run(argv)`` in ``workdir``."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        code, out, err = run_captured(argv)
        file_digest = None
        if written is not None:
            with open(written, "rb") as fh:
                file_digest = hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.chdir(old)
    return [
        code,
        hashlib.sha256(out).hexdigest(),
        hashlib.sha256(err.encode("utf-8")).hexdigest(),
        file_digest,
    ]


def pin_workdir(path):
    for name, text in {**WORKDIR_INPUTS, **PIN_INPUTS}.items():
        (path / name).write_text(text)
    return path


@pytest.fixture(scope="module")
def cli_digests():
    with open(CLI_DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# argparse's help and usage texts change between Python versions; the
# digests were taken with the interpreter named in the file.
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests taken with CPython 3.11")
@pytest.mark.parametrize("case", list(PIN_CASES))
def test_every_command_keeps_its_bytes(tmp_path, monkeypatch, cli_digests, case):
    monkeypatch.setenv("COLUMNS", "80")
    argv, written = PIN_CASES[case]
    assert pin_digest(pin_workdir(tmp_path), argv, written) == cli_digests["cases"][case]


if __name__ == "__main__":
    # Prints the digests file.  Its digests pin the current output: rewrite
    # it only with a deliberate change of a report, a message or a file.
    import pathlib
    import platform
    import tempfile

    os.environ["COLUMNS"] = "80"
    digests = {}
    for case, (argv, written) in PIN_CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = pin_digest(pin_workdir(pathlib.Path(tmp)), argv, written)
    print(json.dumps({"python": platform.python_version(), "cases": digests}, indent=1))
