"""End-to-end command-line checks: exit codes, JSON reports, piping."""

import json
import subprocess
import sys

import pytest

from ryser import cli, gen_transitive_colored, parse_cgf

PY = [sys.executable, "-m", "ryser.cli"]


def run(args, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        PY + args, input=stdin, capture_output=True, text=True, timeout=120
    )


def gen(args) -> str:
    p = run(args)
    assert p.returncode == 0, p.stderr
    return p.stdout


def test_gen_plane_analyze_round_trip():
    hgf = gen(["gen", "plane", "--q", "2"])
    p = run(["analyze", "-", "--json"], stdin=hgf)
    assert p.returncode == 0, p.stderr
    rep = json.loads(p.stdout)
    assert rep["schema"] == 1
    assert rep["command"] == "analyze"
    assert rep["outputs"]["parameters"]["tau"] == 2
    assert rep["outputs"]["parameters"]["nu"] == 1
    assert rep["outputs"]["violations"] == []
    assert rep["checks"]["ryser_bound"] is True


def test_gen_blowup_pipe_sharp():
    cgf = gen(["gen", "blowup", "--q", "2", "--b", "1"])
    p = run(["sharp", "-", "--json"], stdin=cgf)
    assert p.returncode == 0, p.stderr
    rep = json.loads(p.stdout)
    assert rep["outputs"]["is_sharp"] is True
    assert rep["outputs"]["bound"] == "3"
    assert rep["outputs"]["blowup"] == {"q": 2, "b": 1}


def test_sharp_text_output():
    cgf = gen(["gen", "blowup", "--q", "2", "--b", "1"])
    p = run(["sharp", "-"], stdin=cgf)
    assert p.returncode == 0
    assert "isSharp true" in p.stdout
    assert "bound 3" in p.stdout


def test_cover_t_happy_path():
    cgf = gen(["gen", "random-colored", "--n", "12", "--r", "5", "--min-colors", "2", "--seed", "4"])
    p = run(["cover-t", "-", "--t", "2", "--json"], stdin=cgf)
    assert p.returncode == 0, p.stderr
    rep = json.loads(p.stdout)
    assert rep["outputs"]["covered"] == 12
    assert rep["outputs"]["size"] <= 3
    assert rep["checks"]["covers_all"] is True


def test_cover_t_precondition_exit_2():
    # t = 1 violates 4t > r for r = 5
    cgf = gen(["gen", "random-colored", "--n", "8", "--r", "5", "--min-colors", "1", "--seed", "1"])
    p = run(["cover-t", "-", "--t", "1"], stdin=cgf)
    assert p.returncode == 2
    assert "t" in p.stderr


def test_cover_partial_json():
    cgf = gen(["gen", "random-colored", "--n", "15", "--r", "4", "--seed", "9"])
    p = run(["cover-partial", "-", "--json"], stdin=cgf)
    assert p.returncode == 0, p.stderr
    rep = json.loads(p.stdout)
    assert rep["outputs"]["size"] == 3
    assert rep["checks"]["distinct_colors"] is True
    assert rep["checks"]["meets_bound"] is True


def test_gyarfas_and_closure_pipeline():
    hgf = gen(["gen", "plane", "--q", "3"])
    p = run(["gyarfas", "-"], stdin=hgf)
    assert p.returncode == 0, p.stderr
    p2 = run(["closure", "-", "--json"], stdin=p.stdout)
    assert p2.returncode == 0, p2.stderr
    rep = json.loads(p2.stdout)
    assert rep["outputs"]["changed_pairs"] == 0  # the coloring is already transitive
    assert rep["checks"]["transitive"] is True


def test_gyarfas_reports_disjoint_pair():
    hgf = "r 2\nclass 1 a1 a2\nclass 2 b1 b2\nedge a1 b1\nedge a2 b2\n"
    p = run(["gyarfas", "-", "--json"], stdin=hgf)
    assert p.returncode == 0, p.stderr
    rep = json.loads(p.stdout)
    assert rep["outputs"]["complete"] is False
    assert rep["outputs"]["disjoint_pair"] == [0, 1]


def test_delta2_command():
    hgf = gen(["gen", "random-delta2", "--r", "3", "--m", "6", "--seed", "2", "--mode", "cycle"])
    p = run(["delta2", "-", "--json"], stdin=hgf)
    assert p.returncode == 0, p.stderr
    rep = json.loads(p.stdout)
    assert rep["outputs"]["size"] == 3
    assert rep["checks"]["covers_all_edges"] is True


def test_oracle_tau_on_plane():
    hgf = gen(["gen", "plane", "--q", "3"])
    p = run(["oracle", "tau", "-", "--json"], stdin=hgf)
    rep = json.loads(p.stdout)
    assert p.returncode == 0
    assert rep["outputs"]["value"] == 3


def test_oracle_maxpartial_on_blowup():
    cgf = gen(["gen", "blowup", "--q", "3", "--b", "1"])
    p = run(["oracle", "maxpartial", "-", "--json"], stdin=cgf)
    rep = json.loads(p.stdout)
    assert rep["outputs"]["value"] == 7


def test_bad_format_exit_2():
    p = run(["analyze", "-"], stdin="this is not an instance\n")
    assert p.returncode == 2
    assert "error" in p.stderr.lower()


def test_missing_file_exit_2():
    p = run(["analyze", "/nonexistent/path.hgf"])
    assert p.returncode == 2


def test_non_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.hgf"
    path.write_bytes(b"\xff\xfe")
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_gen_random_colored_at_n400_in_process(capsys):
    argv = ["gen", "random-colored", "--n", "400", "--r", "7", "--min-colors", "2", "--seed", "1"]
    assert cli.main(argv) == 0
    assert parse_cgf(capsys.readouterr().out) == gen_transitive_colored(400, 7, 2, 1)


def test_import_does_not_load_networkx():
    code = "import sys, ryser.cli; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


def test_unknown_flag_exit_2():
    p = run(["analyze", "-", "--frobnicate"], stdin="r 2\nedge a b\n")
    assert p.returncode == 2


def test_report_stable_minus_timings():
    hgf = gen(["gen", "plane", "--q", "2"])
    reps = []
    for _ in range(2):
        p = run(["analyze", "-", "--json"], stdin=hgf)
        rep = json.loads(p.stdout)
        rep.pop("timings")
        reps.append(rep)
    assert reps[0] == reps[1]


def test_report_round_trips():
    cgf = gen(["gen", "blowup", "--q", "2", "--b", "2"])
    p = run(["sharp", "-", "--json"], stdin=cgf)
    rep = json.loads(p.stdout)
    assert json.loads(json.dumps(rep)) == rep


def test_gen_deterministic_artifacts():
    a = gen(["gen", "random-hyp", "--r", "3", "--t", "1", "--m", "5", "--seed", "3"])
    b = gen(["gen", "random-hyp", "--r", "3", "--t", "1", "--m", "5", "--seed", "3"])
    assert a == b
    c = gen(["gen", "random-hyp", "--r", "3", "--t", "1", "--m", "5", "--seed", "4"])
    assert a != c
