import json
import subprocess
import sys

import jsonschema
import pytest

from monodyn.cli import load_report_schema, run
from monodyn.grid import decode_ppm

from conftest import FOUR_VERTEX_SANDPILE_TEXT

SCHEMA = load_report_schema()

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


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def invoke_json(capsys, argv):
    code, out = invoke(capsys, argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
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
    assert code == 1 and report["verdict"] == "no"


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


def test_shift_search_se(files, capsys, tmp_path):
    code, report = invoke_json(capsys, ["shift", "search-se", files["two.mat"], files["ones.mat"]])
    assert code == 0 and report["outcome"] == "found" and report["lag"] == 1
    three = tmp_path / "three.mat"
    three.write_text("1 1\n3\n")
    code, report = invoke_json(capsys, ["shift", "search-se", files["two.mat"], str(three)])
    assert code == 1
    assert report["obstruction"]["verdict"] == "obstruction"


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
    cfg.write_text("# bounds\nfiring_budget = 50\n")
    cyc = tmp_path / "cyc.graph"
    cyc.write_text("v a\nv b\ne a b\ne b a\n")
    one = tmp_path / "one.cfg"
    one.write_text("a 1\n")
    code, report = invoke_json(
        capsys,
        ["sandpile", "stabilize", str(cyc), str(one), "--bounds-file", str(cfg)],
    )
    assert code == 1 and report["firings"] == 50


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "monodyn.cli", "lpa", "matrix-iso", "2", "1", "2", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] is True
