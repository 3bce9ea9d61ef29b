import json
import subprocess
import sys

import pytest

MODULE = [sys.executable, "-m", "sepminor.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        MODULE + list(args), input=stdin, capture_output=True, text=True, timeout=300
    )


def test_usage_error_exit_code():
    proc = run_cli("gen")  # missing required flags
    assert proc.returncode == 1


def test_unknown_command_exit_code():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_gen_writes_edge_list_and_sidecar(tmp_path):
    out = tmp_path / "grid.txt"
    proc = run_cli("gen", "--family", "planar-grid", "--size", "3", "--out", str(out))
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("p 9 12")
    meta = json.loads((tmp_path / "grid.txt.json").read_text())
    assert meta["family"] == "planar-grid" and meta["n"] == 9


def test_gen_stdout_metadata_comment_keeps_round_trip():
    proc = run_cli("gen", "--family", "king-grid", "--size", "3", "--d", "2")
    assert proc.returncode == 0
    from sepminor.graph import parse_edge_list

    g = parse_edge_list(proc.stdout)
    assert g.n == 9


def test_sep_exact_on_path(tmp_path):
    graph = tmp_path / "p.txt"
    run_cli("gen", "--family", "path", "--size", "9", "--out", str(graph))
    proc = run_cli("sep", str(graph), "--exact")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["n"] == 9 and len(data["separator"]) == 1 and data["bound_checked"]


def test_sep_heuristic_reads_stdin():
    gen = run_cli("gen", "--family", "planar-grid", "--size", "6")
    proc = run_cli("sep", "-", stdin=gen.stdout)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bound_checked"]


def test_prs_minor_on_clique(tmp_path):
    graph = tmp_path / "k.txt"
    run_cli("gen", "--family", "complete", "--size", "10", "--out", str(graph))
    proc = run_cli("prs", str(graph), "--l", "1", "--h", "3")
    data = json.loads(proc.stdout)
    assert data["branch"] == "minor"
    assert data["witness"]["target"]["n"] == 3


def test_prs_separator_on_path(tmp_path):
    graph = tmp_path / "p.txt"
    run_cli("gen", "--family", "path", "--size", "60", "--out", str(graph))
    proc = run_cli("prs", str(graph), "--l", "2", "--h", "4")
    data = json.loads(proc.stdout)
    assert data["branch"] == "separator"
    assert data["certificate"]["bound_checked"]


def test_prs_requires_parameters(tmp_path):
    graph = tmp_path / "p.txt"
    run_cli("gen", "--family", "path", "--size", "10", "--out", str(graph))
    proc = run_cli("prs", str(graph))
    assert proc.returncode == 1


def test_prs_rejects_schedule_with_h_zero(tmp_path):
    graph = tmp_path / "p.txt"
    run_cli("gen", "--family", "path", "--size", "10", "--out", str(graph))
    proc = run_cli("prs", str(graph), "--r", "5000", "--eps", "1/2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "r=5000" in proc.stderr and "h=0" in proc.stderr


def test_expand_exact_failure_exit_code(tmp_path):
    graph = tmp_path / "p.txt"
    run_cli("gen", "--family", "path", "--size", "10", "--out", str(graph))
    proc = run_cli("expand", str(graph), "--alpha", "1", "--exact")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["is_expander"] is False


def test_expand_sampled(tmp_path):
    graph = tmp_path / "c.txt"
    run_cli("gen", "--family", "complete", "--size", "8", "--out", str(graph))
    proc = run_cli("expand", str(graph), "--alpha", "1/2", "--samples", "20", "--seed", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certifies_expansion"] is False


def test_nabla_slab_and_verify_witness(tmp_path):
    proc = run_cli("nabla", "--r", "2", "--construction", "slab", "--d", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["density_num"] == 8 and data["density_den"] == 6

    # the slab host is king_grid(4, 2); verify the emitted witness against it
    host = tmp_path / "host.txt"
    run_cli("gen", "--family", "king-grid", "--size", "4", "--d", "2", "--out", str(host))
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(data["witness"]))
    check = run_cli("verify-witness", str(host), str(wfile))
    assert check.returncode == 0
    assert json.loads(check.stdout)["ok"] is True

    corrupted = dict(data["witness"])
    sets = {k: list(v) for k, v in corrupted["branch_sets"].items()}
    sets["0"] = sets["0"] + sets["1"][:1]
    corrupted["branch_sets"] = sets
    wfile.write_text(json.dumps(corrupted))
    check = run_cli("verify-witness", str(host), str(wfile))
    assert check.returncode == 2
    assert json.loads(check.stdout)["violation"] == "disjointness"


def test_nabla_greedy_reads_graph(tmp_path):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--family", "king-grid", "--size", "4", "--d", "2", "--out", str(graph))
    proc = run_cli("nabla", str(graph), "--r", "1", "--construction", "greedy", "--seed", "3")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["density_num"] / data["density_den"] > 1


def test_tw_exact_and_upper(tmp_path):
    graph = tmp_path / "g.txt"
    run_cli("gen", "--family", "planar-grid", "--size", "3", "--out", str(graph))
    exact = json.loads(run_cli("tw", str(graph)).stdout)
    assert exact == {"method": "exact-dp", "value": 3}
    upper = json.loads(run_cli("tw", str(graph), "--upper").stdout)
    assert upper["method"] == "minfill-upper" and upper["value"] >= 3


@pytest.mark.parametrize(
    "command", [("tw",), ("expand", "--exact", "--alpha", "1")], ids=["tw", "expand"]
)
def test_exact_kernel_refuses_30_vertices_past_budget(tmp_path, command):
    graph = tmp_path / "p.txt"
    run_cli("gen", "--family", "path", "--size", "30", "--out", str(graph))
    proc = run_cli(*command, str(graph), "--budget", "40")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "n <= 24, got 30" in proc.stderr


def test_bounds_quarter():
    proc = run_cli("bounds", "--eps", "1/4")
    data = json.loads(proc.stdout)
    assert data["b_lower"] == "1" and data["b_upper"] == "3/2" and data["B"] == "3"


def test_sweep_csv_then_fit(tmp_path):
    csv_path = tmp_path / "records.csv"
    proc = run_cli(
        "sweep",
        "--family", "planar-grid",
        "--sizes", "4,6,8,10,12",
        "--quantity", "separator-size",
        "--method", "bfs-layer",
        "--seed", "1",
        "--out", str(csv_path),
    )
    assert proc.returncode == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "family,params,n_or_r,kind,method,value_num,value_den,seed,ms,direction,error"
    fit = json.loads(run_cli("fit", str(csv_path)).stdout)
    assert 0.2 <= fit["exponent"] <= 0.8
    assert fit["points"] == 5
    assert fit["label"] == "upper-envelope"


def test_fit_keeps_lower_direction_through_csv(tmp_path):
    csv_path = tmp_path / "records.csv"
    proc = run_cli(
        "sweep",
        "--family", "path",
        "--sizes", "10,20,40",
        "--quantity", "nabla-lower",
        "--method", "slab",
        "--out", str(csv_path),
    )
    assert proc.returncode == 0
    fit = json.loads(run_cli("fit", str(csv_path)).stdout)
    assert fit["label"] == "lower-envelope"


@pytest.mark.parametrize(
    "args,named",
    [
        (("--family", "nope", "--size", "3"), "nope"),
        (("--family", "random-regular", "--size", "10"), "--seed"),
        (("--family", "subdivided-cubic", "--size", "10", "--eps", "1/2"), "--seed"),
        (("--family", "subdivided-clique", "--size", "5"), "--eps"),
    ],
)
def test_gen_usage_errors_name_the_problem(args, named):
    proc = run_cli("gen", *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error:" in proc.stderr and named in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_json_format():
    proc = run_cli(
        "sweep",
        "--family", "path",
        "--sizes", "10,20",
        "--quantity", "separator-size",
        "--method", "exact",
        "--seed", "1",
        "--format", "json",
    )
    rows = json.loads(proc.stdout)
    assert [row["value_num"] for row in rows] == [1, 1]


def test_verify_quick_deterministic_bytes():
    a = run_cli("verify", "--quick", "--seed", "42")
    b = run_cli("verify", "--quick", "--seed", "42")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "checks passed" in a.stdout
