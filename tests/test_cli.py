import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import freezeflow
from freezeflow.cli import build_parser, main


def run_cli(args):
    return main(args)


def test_solve_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["solve", "--fixture", "wedge", "--grid", "11,6", "--window=-2,4,0,1.5"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "x,t,v,w,mu,sigma,zone"


def test_solve_matches_closed_form(tmp_path):
    from freezeflow.fixtures import wedge_v_exact

    out = tmp_path / "grid.csv"
    assert run_cli(["solve", "--fixture", "wedge", "--grid", "11,6", "--window=-2,4,0,1.5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    for row in rows:
        x, t, v = (float(p) for p in row.split(",")[:3])
        assert abs(v - float(wedge_v_exact(x, t))) < 1e-7


def test_check_segment_passes(tmp_path):
    out = tmp_path / "checks.json"
    code = run_cli(["check", "--fixture", "seg-tent", "--tol", "1e-11", "--out", str(out)])
    reports = json.loads(out.read_text())
    assert code == 0
    assert all(r["passed"] for r in reports)


def test_trace_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(
        ["trace", "--fixture", "wedge", "--kind", "v", "--direction", "backward", "--x", "4", "--t", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,value,zone"
    first = lines[1].split(",")
    assert abs(float(first[0])) < 1e-12  # reaches t = 0


def test_boundary_json(tmp_path):
    out = tmp_path / "bset.json"
    code = run_cli(
        ["boundary", "--fixture", "wedge", "--grid", "60,50", "--window=-1,5,0,1.5", "--out", str(out)]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["freezing"] and obj["thawing"]


def test_oracle_comparison(tmp_path):
    out = tmp_path / "oracle.json"
    code = run_cli(["oracle", "--fixture", "tent", "--levels", "8", "--seed", "3", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["worst"] < 1e-9


def test_pinned_balls_csv(tmp_path):
    out = tmp_path / "balls.csv"
    code = run_cli(["pinned-balls", "--n", "6", "--steps", "100", "--seed", "1", "--stride", "50", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,site,velocity"


def test_examples_list_and_run(tmp_path, capsys):
    assert run_cli(["examples", "list"]) == 0
    capsys.readouterr()
    assert run_cli(["examples", "run"]) == 0


def test_invalid_problem_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["solve", "--problem", str(bad), "--grid", "3,3", "--window", "0,1,0,1"]) == 2
    assert run_cli(["solve", "--fixture", "nope", "--grid", "3,3", "--window", "0,1,0,1"]) == 2
    inadmissible = tmp_path / "inadmissible.json"
    inadmissible.write_text(
        json.dumps(
            {
                "domain": {"kind": "whole_line"},
                "v0": {"breakpoints": [0.0], "values": [0.0], "left_slope": 0.0, "right_slope": 0.0},
                "w0": {"breakpoints": [0.0], "values": [1.0], "left_slope": 0.0, "right_slope": 0.0},
            }
        )
    )
    assert run_cli(["solve", "--problem", str(inadmissible), "--grid", "3,3", "--window", "0,1,0,1"]) == 2


def test_domain_violation_exit_3(tmp_path):
    code = run_cli(
        ["solve", "--fixture", "seg-tent", "--grid", "5,5", "--window=-3,3,0,1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3


@pytest.mark.parametrize("dt", ["0", "-0.1", "nan"])
def test_trace_bad_step_exit_2(dt):
    # a zero step used to loop forever, so a timeout guards the suite
    env = dict(os.environ, PYTHONPATH=str(Path(freezeflow.__file__).parents[1]))
    argv = ["trace", "--fixture", "wedge", "--kind", "v", "--direction", "backward", "--x", "1", "--t", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "freezeflow.cli", *argv, f"--dt={dt}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "--dt" in proc.stderr


@pytest.mark.parametrize(
    "obj",
    [
        {"domain": {"kind": "whole_line"}, "v0": {"breakpoints": 5, "values": [0.0]}, "w0": {"breakpoints": 5, "values": [0.0]}},
        [1, 2, 3],
    ],
    ids=["int-breakpoints", "top-level-list"],
)
def test_malformed_problem_exit_2(tmp_path, capsys, obj):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["solve", "--problem", str(path), "--grid", "3,3", "--window", "0,1,0,1"]) == 2
    assert "invalid problem file" in capsys.readouterr().err


@pytest.mark.parametrize("flag, argv", [("--n", ["--n", "1"]), ("--stride", ["--n", "4", "--stride", "0"])])
def test_pinned_balls_bad_size_exit_2(capsys, flag, argv):
    assert run_cli(["pinned-balls", "--steps", "10", *argv]) == 2
    assert flag in capsys.readouterr().err


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags this way
        return exc.code


TRACE_V = ["trace", "--fixture", "wedge", "--kind", "v", "--x", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--fixture", "tent", "--levels", "-1"],
        TRACE_V + ["--direction", "backward", "--t", "0"],
        TRACE_V + ["--direction", "forward", "--t", "nan"],
        ["boundary", "--fixture", "wedge", "--grid", "1,40", "--window=0,1,0,1"],
        ["solve", "--fixture", "wedge", "--grid", "0,5"],
        ["solve", "--fixture", "wedge", "--grid", "3,2", "--window=nan,1,0,1"],
        ["solve", "--fixture", "wedge", "--grid", "3,2", "--tol", "inf"],
        ["check", "--fixture", "seg-tent", "--times", "nan"],
        ["pinned-balls", "--steps", "-5"],
        # flags that were parsed and then ignored are gone
        ["boundary", "--fixture", "wedge", "--window=0,1,0,1", "--format", "csv"],
        TRACE_V + ["--direction", "backward", "--t", "1", "--format", "json"],
        ["check", "--fixture", "seg-tent", "--format", "json"],
        ["oracle", "--fixture", "tent", "--format", "json"],
        ["solve", "--fixture", "wedge", "--seed", "1"],
        ["boundary", "--fixture", "wedge", "--window=0,1,0,1", "--seed", "1"],
        TRACE_V + ["--direction", "backward", "--t", "1", "--seed", "1"],
        ["oracle", "--fixture", "tent", "--tol", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_arguments_exit_2(capsys, argv):
    assert exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("grid", ["40,40", "120,120"])
def test_boundary_corners_stay_in_segment(tmp_path, grid):
    # the corner ladders used to probe outside [0, 2] and exit 3; at 120x120
    # a short incident curve then made corner_slopes raise
    out = tmp_path / "tent.json"
    assert run_cli(["boundary", "--fixture", "tent", "--grid", grid, "--window=0,2,0,4", "--out", str(out)]) == 0
    corners = json.loads(out.read_text())["corners"]
    assert corners
    assert all(0.0 <= c["x"] <= 2.0 and 0.0 <= c["t"] <= 4.0 for c in corners)


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("freezeflow ")]
    assert len(commands) >= 7
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on a stale flag
