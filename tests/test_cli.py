import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import freezeflow
from freezeflow import spec_from_json, spec_to_json
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


def test_check_passes_at_the_tolerance_floor(tmp_path):
    out = tmp_path / "checks.json"
    assert run_cli(["check", "--fixture", "wedge", "--tol", "1e-13", "--out", str(out)]) == 0
    assert all(r["passed"] for r in json.loads(out.read_text()))


def test_python_m_freezeflow_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(freezeflow.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "freezeflow", "check", "--fixture", "wedge", "--out", os.devnull],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


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


def test_oracle_and_check_draw_levels_through_one_helper(tmp_path, monkeypatch):
    drawn, original = [], freezeflow.diagnostics.random_levels

    def spy(*args):
        drawn.append(original(*args))
        return drawn[-1]

    monkeypatch.setattr(freezeflow.diagnostics, "random_levels", spy)
    assert run_cli(["oracle", "--fixture", "tent", "--levels", "3", "--out", str(tmp_path / "oracle.json")]) == 0
    assert run_cli(["check", "--fixture", "tent", "--out", str(tmp_path / "checks.json")]) == 0
    assert [len(levels) for levels in drawn] == [3, 12]
    assert all(type(b) is float for levels in drawn for b in levels)  # numpy floats warn on overflow


def test_oracle_on_inverted_data_exit_0(tmp_path):
    # oracle does not validate: with w0 above v0 the level range drawn from
    # w0's low to v0's high was empty and raised a traceback
    flat = {"breakpoints": [0.0], "values": [0.0], "left_slope": 0.0, "right_slope": 0.0}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"domain": {"kind": "whole_line"}, "v0": flat, "w0": dict(flat, values=[2.0])}))
    out = tmp_path / "oracle.json"
    assert run_cli(["oracle", "--problem", str(path), "--levels", "2", "--out", str(out)]) == 0
    assert all(-0.5 <= c["b"] <= 2.5 for c in json.loads(out.read_text())["comparisons"])


# SHA-256 of output that README promises is byte-stable: solve on every
# fixture and on the benchmark's two solve grids, one solve as JSON,
# README's trace and oracle examples, boundary on two fixtures, a forward
# trace on a segment, pinned-balls, and check on a segment and on sloped
# and flat tails (check's numpy reductions may round differently on
# another build, so its rows pin this one).
STABLE_OUTPUTS = [
    ("solve --fixture wedge --grid 41,21", "13c7fa94092be542ad0bb47d1b2b5e43f64dd343a5c3f16e2485819bbb427756"),
    ("solve --fixture parabolas --grid 41,21", "c5e87b32824d8cb0385a572e1f15cd5d1d7e9813464cb372b947aa49c5b2e890"),
    ("solve --fixture ramp --grid 41,21", "137eb154d9355f1132095430ba11e64ed9fe80d0811ae733d2221d0fca1a421a"),
    ("solve --fixture tent --grid 41,21", "bf0efe772d365483588e3d55f50c85c6983e36dbd7bb25a7b5a90f68c1986cd4"),
    ("solve --fixture seg-tent --grid 41,21", "ae093fe7494326cc3600758bf190a87a82c211f3ad6f415aa40bec87d68abe8a"),
    ("solve --fixture downhill --grid 41,21", "7d40c01e42393a105458e3c6a6717df641c0605226d0d9453d6ea99c5cba1974"),
    ("solve --fixture frozen-ramp --grid 41,21", "eb44e34ae30fc008acef96ca0e08182d609614792de368111427f4e9e8b40ef2"),
    ("solve --fixture uniform-gap --grid 41,21", "19861a2c35a25a7754e31e8f58f513248b99a1ba9f708258c55067c525777bb7"),
    ("solve --fixture thawline --grid 41,21", "1f07788e8954c3a0ffe9ebf979df8391745bd2f9380ff5c26d5c6261d2e4aded"),
    ("trace --fixture wedge --kind v --direction backward --x 4 --t 1", "e1a7717ea91b49d372c3ca392b1998038e6585af8128c76a7627cb9efa22734e"),
    ("oracle --fixture tent --levels 20 --seed 1", "3a0abb50993e83be809ecd8914609c7e2321c3266fe4d667d94d83f7af42ed84"),
    ("solve --fixture wedge --grid 201,101 --window=-5,5,0,2", "0d3f4fede8c131c8a86f275331cec1b966fa752a36053cef89bf8949d44cfc53"),
    ("solve --fixture parabolas --grid 40,40 --window=0.8,2.0,0.4,2.0 --tol 1e-7", "9e14963a4005b252f30b5a166a8d59760f002b34f5e87922a2dcfed0d1bcf8ca"),
    ("solve --fixture seg-tent --grid 21,11 --format json", "e7ddbff9f29122dce975308ace6b95306bbc7e8a5ce29fa7a0f812ae99c2d175"),
    ("boundary --fixture parabolas --grid 130,150 --window=0.8,3.2,0,3.45", "ce991234e9e1d700d1611064e4e7e301ad02de18f6b7c0ac597b39c0ab0f798d"),
    ("boundary --fixture ramp --grid 130,120 --window=-2.8,0.4,0,2.9", "445f79c45ffab289090a9494b0ec16412476d472f54dd8c9a49118229ecb935d"),
    ("boundary --fixture wedge --window=-4,4,0,2", "b76c9514624f690c00fc0a01efc83b6e7ee2975fb183cf4b0d88699f13d94caa"),
    ("boundary --fixture tent --window=0,2,0,4", "9109803b01d013fa39c07b4e28c231bad19e04cdfd2d630ceaec9bec94cbddc7"),
    ("boundary --fixture downhill --window=-1,1,0,5", "e5f1a4548009d0e6c5faac3bad4c7c14bf097788afe0955701040200455a3211"),
    ("pinned-balls --n 50 --steps 10000 --seed 3", "97b1e2b6630b8fcbce5ff6b78be620ddaec8fdfb294e6855083ecf8e39ac8b50"),
    ("trace --fixture seg-tent --kind w --direction forward --x 0.3 --t 0.2", "019adbcdf2aac1f6d8d875ea7151a5e6130b3ed71000404abe45cca1ea5e4cff"),
    ("check --fixture seg-tent", "9e96cb08458884946755ae4d69d2d419eec791df117a141b485e933f126bd94d"),
    ("check --fixture wedge", "c0854a666dfc02f9233bca1a5b22c1e85443ed3d6a698c03981deb9f54b2a91c"),
    ("check --fixture uniform-gap", "8dc9716ee11e4e79c50c1875ae7b630ecd497cba39bb5ad53ee25d12df6a3e81"),
]


@pytest.mark.parametrize("command, digest", STABLE_OUTPUTS, ids=[c for c, _ in STABLE_OUTPUTS])
def test_output_is_byte_stable(tmp_path, command, digest):
    out = tmp_path / "out"
    assert run_cli(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--fixture", "wedge", "--kind", "v", "--direction", "backward", "--x", "0.5", "--t", "1e308", "--dt", "1e306"],
        ["solve", "--fixture", "wedge", "--grid", "2,2", "--window=0,1,0,1e308"],
    ],
    ids=["trace", "solve"],
)
def test_value_bracket_too_wide_for_a_midpoint_exit_3(capsys, argv):
    # values near 1e308 have a midpoint that overflows: these printed inf
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert "inf" not in captured.out and captured.err.count("\n") == 1 and "midpoint" in captured.err


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


# 0, negative, tiny, huge and non-finite values; any two finite ones give
# either at most a few thousand samples or more than the bound
TRACE_NUMBERS = st.sampled_from(["0", "-1", "0.5", "2", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf"])


@settings(max_examples=20, deadline=None)
@given(
    fixture=st.sampled_from(["wedge", "seg-tent"]),
    kind=st.sampled_from(["v", "w"]),
    direction=st.sampled_from(["backward", "forward"]),
    numbers=st.fixed_dictionaries(
        {"--x": TRACE_NUMBERS, "--t": TRACE_NUMBERS},
        optional={"--t-end": TRACE_NUMBERS, "--dt": TRACE_NUMBERS},
    ),
)
def test_generated_trace_arguments_exit_cleanly(fixture, kind, direction, numbers):
    env = dict(os.environ, PYTHONPATH=str(Path(freezeflow.__file__).parents[1]))
    argv = ["trace", "--fixture", fixture, "--kind", kind, "--direction", direction]
    argv += [f"{flag}={value}" for flag, value in numbers.items()]
    proc = subprocess.run(
        [sys.executable, "-m", "freezeflow.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr


# a grid of at most 3 x 3 points, or one that is rejected
GRID_NUMBERS = st.sampled_from(["0", "-1", "1", "3", "1e300", "nan", "inf"])


@settings(max_examples=20, deadline=None)
@given(
    command=st.sampled_from(["solve", "boundary"]),
    fixture=st.sampled_from(["wedge", "seg-tent"]),
    grid=st.tuples(GRID_NUMBERS, GRID_NUMBERS),
    window=st.tuples(TRACE_NUMBERS, TRACE_NUMBERS, TRACE_NUMBERS, TRACE_NUMBERS),
    tol=st.one_of(st.none(), st.sampled_from(["0", "-1", "1e-9", "1", "1e300", "1e-300", "nan", "inf"])),
)
def test_generated_grid_arguments_exit_cleanly(command, fixture, grid, window, tol):
    env = dict(os.environ, PYTHONPATH=str(Path(freezeflow.__file__).parents[1]))
    argv = [command, "--fixture", fixture, "--grid=" + ",".join(grid), "--window=" + ",".join(window), "--out", os.devnull]
    argv += [] if tol is None else [f"--tol={tol}"]
    proc = subprocess.run(
        [sys.executable, "-m", "freezeflow.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert proc.stderr.count("\n") == (proc.returncode != 0) and "Traceback" not in proc.stderr, proc.stderr


# 0, negative, small, huge and non-finite values; the integer options reject
# the non-finite ones and "1e300" as they parse
SAMPLING_NUMBERS = st.sampled_from(["0", "-1", "1", "3", "1" + "0" * 30, "1e300", "nan", "inf", "-inf"])
TIMES = st.lists(SAMPLING_NUMBERS, min_size=1, max_size=3).map(",".join)


@settings(max_examples=20, deadline=None)
@given(
    argv=st.one_of(
        st.tuples(
            st.just("check"),
            st.fixed_dictionaries({}, optional={"--tol": SAMPLING_NUMBERS, "--times": TIMES, "--seed": SAMPLING_NUMBERS}),
        ),
        st.tuples(
            st.just("oracle"), st.fixed_dictionaries({}, optional={"--levels": SAMPLING_NUMBERS, "--seed": SAMPLING_NUMBERS})
        ),
        st.tuples(
            st.just("pinned-balls"),
            st.fixed_dictionaries(
                {}, optional={"--n": SAMPLING_NUMBERS, "--steps": SAMPLING_NUMBERS, "--stride": SAMPLING_NUMBERS, "--seed": SAMPLING_NUMBERS}
            ),
        ),
    ),
    fixture=st.sampled_from(["wedge", "seg-tent"]),
)
def test_generated_sampling_arguments_exit_cleanly(argv, fixture):
    command, numbers = argv
    env = dict(os.environ, PYTHONPATH=str(Path(freezeflow.__file__).parents[1]))
    args = [command] + ([] if command == "pinned-balls" else ["--fixture", fixture])
    args += [f"{flag}={value}" for flag, value in numbers.items()] + ["--out", os.devnull]
    proc = subprocess.run(
        [sys.executable, "-m", "freezeflow.cli", *args], capture_output=True, text=True, env=env, timeout=60
    )
    # 1 is check's documented code for failed checks, as at times past 1e300
    assert proc.returncode in ((0, 1, 2, 3, 4) if command == "check" else (0, 2, 3, 4)), proc.stderr
    assert proc.stderr.count("\n") == (proc.returncode > 1) and "Traceback" not in proc.stderr, proc.stderr


LINE = {"breakpoints": [0.0], "values": [0.0], "left_slope": 1.0, "right_slope": 1.0}
SEG = {"breakpoints": [0.0], "values": [0.0]}


@pytest.mark.parametrize(
    "obj",
    [
        {"domain": {"kind": "whole_line"}, "v0": {"breakpoints": 5, "values": [0.0]}, "w0": {"breakpoints": 5, "values": [0.0]}},
        [1, 2, 3],
        {"domain": {"kind": "whole_line"}, "v0": {**LINE, "left_slope": math.nan}, "w0": LINE},
        {"domain": {"kind": "whole_line"}, "v0": LINE, "w0": {**LINE, "right_slope": -math.inf}},
        {"domain": {"kind": "whole_line"}, "v0": LINE, "w0": {"breakpoints": [0.0], "values": [-1.0]}},
        {"domain": {"kind": "segment", "a1": True, "a2": 2.0}, "v0": SEG, "w0": SEG},
        {"domain": {"kind": "segment", "a1": 0.0, "a2": 2.0}, "v0": {**SEG, "values": [False]}, "w0": SEG},
        {"domain": {"kind": "whole_line"}, "v0": {**LINE, "right_slope": True}, "w0": LINE},
        # a segment's ends must be finite, even where they span the whole line
        {"domain": {"kind": "segment", "a1": -math.inf, "a2": math.inf}, "v0": LINE, "w0": LINE},
        {"domain": {"kind": "segment", "a1": 0.0, "a2": math.inf}, "v0": SEG, "w0": SEG},
        {"domain": {"kind": "ring"}, "v0": LINE, "w0": LINE},
        {"domain": {"kind": 1}, "v0": LINE, "w0": LINE},
    ],
    ids=[
        "int-breakpoints", "top-level-list", "nan-slope", "infinite-slope", "whole-line-without-slopes",
        "boolean-domain-end", "boolean-value", "boolean-slope", "segment-with-infinite-ends",
        "segment-with-one-infinite-end", "unknown-domain-kind", "numeric-domain-kind",
    ],
)
def test_malformed_problem_exit_2(tmp_path, capsys, obj):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["solve", "--problem", str(path), "--grid", "3,3", "--window", "0,1,0,1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid problem file" in err, err


@pytest.mark.parametrize("peak", [1e154, 1e200])
def test_check_overflowing_energy_exit_2(tmp_path, capsys, peak):
    # a segment tent whose energy integral overflows the float range
    tent = {"breakpoints": [0.0, 1.0, 2.0], "values": [0.0, peak, 0.0]}
    obj = {"domain": {"kind": "segment", "a1": 0.0, "a2": 2.0}, "v0": tent, "w0": dict(tent, values=[0.0, -peak, 0.0])}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    assert run_cli(["check", "--problem", str(path), "--out", str(tmp_path / "checks.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflows" in err


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.lists(st.integers(-3, 3), max_size=2),
)


@st.composite
def problem_files(draw):
    """A well-formed problem (v0 = w0 on [-1, 2], or w0 = v0 - gap on the
    whole line), then up to three corruptions."""
    n = draw(st.integers(1, 4))
    xs = sorted(draw(st.lists(st.floats(-2, 3), min_size=n, max_size=n, unique=True)))
    ys = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
    v0 = {"breakpoints": xs, "values": ys}
    if draw(st.booleans()):
        domain = {"kind": "whole_line"}
        v0["left_slope"], v0["right_slope"] = draw(st.floats(-2, 2)), draw(st.floats(-2, 2))
        gap = draw(st.floats(0, 1))
    else:
        domain = {"kind": "segment", "a1": -1.0, "a2": 2.0}
        gap = 0.0
    w0 = dict(v0, values=[y - gap for y in ys])
    obj = {"domain": domain, "v0": v0, "w0": w0}
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["drop", "junk", "unsorted", "swapped ends", "mu_sigma"]))
        if how == "unsorted":
            v0["breakpoints"] = xs[::-1]
        elif how == "swapped ends":
            domain["a1"], domain["a2"] = domain.get("a2"), domain.get("a1")
        elif how == "mu_sigma":
            obj.update(mu_sigma=True, mu=obj.pop("v0", v0), sigma=obj.pop("w0", w0))
        else:
            target = draw(st.sampled_from([obj, domain, v0, w0]))
            key = draw(st.sampled_from(sorted(target) or ["kind"]))
            if how == "drop":
                target.pop(key, None)
            else:
                target[key] = draw(JUNK)
    return obj if draw(st.integers(0, 9)) else draw(JUNK)


TINY_SLOPE = {"breakpoints": [0.0], "values": [0.0], "left_slope": 0.0, "right_slope": 2.2e-309}
HUGE_SPAN = {"breakpoints": [-1e308, 1e308], "left_slope": 0.0, "right_slope": 0.0}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=problem_files())
# a tail crossing beyond the float range used to give the interval (inf, inf)
@example(obj={"domain": {"kind": "whole_line"}, "v0": TINY_SLOPE, "w0": dict(TINY_SLOPE, values=[-1.0])})
# a junk integer end is a valid number, here one that moves the segment off the window
@example(obj={"domain": {"kind": "segment", "a1": 1, "a2": 2.0}, "v0": SEG, "w0": SEG})
# constant data: each level set jumps at a single level
@example(obj={"domain": {"kind": "segment", "a1": -1.0, "a2": 2.0}, "v0": SEG, "w0": SEG})
# level-set ends near 1e284: grid thresholds must not overflow into warnings
@example(
    obj={
        "domain": {"kind": "whole_line"},
        "v0": dict(LINE, right_slope=4.190450810254285e-285),
        "w0": dict(LINE, values=[-1.0], right_slope=4.190450810254285e-285),
    }
)
# a breakpoint span whose length overflows: sampling over it raised OverflowError
@example(
    obj={
        "domain": {"kind": "whole_line"},
        "v0": dict(HUGE_SPAN, values=[0.0, 1.0]),
        "w0": dict(HUGE_SPAN, values=[0.0, 0.5]),
    }
)
def test_generated_problem_files_exit_0_or_2(tmp_path, obj):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    oracle = ["oracle", "--problem", str(path), "--levels", "2", "--out", str(tmp_path / "oracle.json")]
    assert exit_code(oracle) in (0, 2)  # oracle skips validation: inadmissible data runs too
    code = exit_code(["solve", "--problem", str(path), "--grid", "3,2", "--window=0,1,0,1"])
    try:
        domain = freezeflow.load_spec(str(path)).domain
    except (KeyError, ValueError, TypeError, AttributeError):  # exits 2 before any domain check
        domain = None
    if domain is None or (domain.contains(0.0) and domain.contains(1.0)):
        assert code in (0, 2)
    else:  # exit 3 is the documented code for a grid outside the domain
        assert code in (2, 3)


def test_clamped_data_reaches_the_segment_ends(tmp_path):
    # v0 and w0 have no slopes and stop short of the segment, so both clamp
    # to 0 at x = 0 and to 1 at x = 2, where the level sets used to miss them
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "domain": {"kind": "segment", "a1": 0.0, "a2": 2.0},
        "v0": {"breakpoints": [0.5, 1.5], "values": [0.0, 1.0]},
        "w0": {"breakpoints": [0.5, 1.0, 1.5], "values": [0.0, -1.0, 1.0]},
    }))
    out = tmp_path / "out.csv"
    assert run_cli(["solve", "--problem", str(path), "--grid", "5,1", "--window=0,2,0,0", "--out", str(out)]) == 0
    rows = {float(r[0]): (float(r[2]), float(r[3])) for r in (line.split(",") for line in out.read_text().splitlines()[1:])}
    for x, value in ((0.0, 0.0), (2.0, 1.0)):
        v, w = rows[x]
        assert abs(v - value) < 1e-9 and abs(w - value) < 1e-9, (x, v, w)


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
        # a forward trace ending before it starts used to report the horizon reached
        TRACE_V + ["--direction", "forward", "--t", "1", "--t-end", "0.5"],
        ["boundary", "--fixture", "wedge", "--grid", "1,40", "--window=0,1,0,1"],
        ["solve", "--fixture", "wedge", "--grid", "0,5"],
        # counts that are not whole numbers used to be truncated
        ["solve", "--fixture", "wedge", "--grid", "2.5,3"],
        ["boundary", "--fixture", "wedge", "--grid", "2.9,2.9", "--window=0,1,0,1"],
        # grids past 10^6 points used to die with a numpy memory error
        ["solve", "--fixture", "wedge", "--grid", "100000,100000", "--window=0,1,0,1"],
        ["boundary", "--fixture", "wedge", "--grid", "100000,100000", "--window=0,1,0,1"],
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
        # more samples than a trace may take: these used to run for hours
        TRACE_V + ["--direction", "backward", "--t", "1", "--dt", "1e-12"],
        TRACE_V + ["--direction", "backward", "--t", "1e300", "--dt", "1"],
        TRACE_V + ["--direction", "forward", "--t", "0", "--t-end", "1e300", "--dt", "1"],
        ["oracle", "--fixture", "tent", "--tol", "-1"],
        # these raised numpy errors with a traceback
        ["oracle", "--fixture", "tent", "--levels", "1" + "0" * 30],
        ["pinned-balls", "--n", "1" + "0" * 30],
        ["pinned-balls", "--steps", "1" + "0" * 30],
        ["check", "--fixture", "seg-tent", "--seed", "-1"],
        ["oracle", "--fixture", "tent", "--seed", "-1"],
        ["pinned-balls", "--seed", "-1"],
        # values far beyond the data overflowed in the momentum and energy check
        ["check", "--fixture", "seg-tent", "--tol", "1e300"],
        # below the tolerance floor, where the bounds of `check` fall under
        # the rounding of the values: these used to exit 1 with failed checks
        ["check", "--fixture", "wedge", "--tol", "1e-16"],
        ["check", "--fixture", "seg-tent", "--tol", "1e-300"],
        ["check", "--fixture", "wedge", "--tol", "9.9e-14"],
        ["solve", "--fixture", "wedge", "--grid", "3,2", "--tol", "1e-14"],
        # random levels reached interval arithmetic as numpy floats, whose
        # overflow printed a warning line before the error
        ["check", "--fixture", "wedge", "--times", "1e308"],
        # a window whose width overflows printed numpy warnings and exited 3
        ["solve", "--fixture", "wedge", "--grid", "3,3", "--window=-1e308,1e308,0,1"],
        ["solve", "--grid", "3,3"],
        ["solve", "--fixture", "wedge", "--grid", "3,3", "--window=0,1,0"],
        ["solve", "--fixture", "wedge", "--grid", "3,3", "--window=a,1,0,1"],
        ["boundary", "--fixture", "wedge"],
        ["check", "--fixture", "seg-tent", "--times", "0,a"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_arguments_exit_2(capsys, argv):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err


def test_boundary_window_outside_the_segment_exit_3(capsys):
    assert exit_code(["boundary", "--fixture", "seg-tent", "--window=-1,2,0,1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err


def test_check_caps_its_times(capsys, monkeypatch):
    # each time adds a row of QUADRATURE_N points to the momentum and energy
    # grid, so memory grew with every time given; the cap keeps that grid
    # within MAX_SAMPLES points
    cap = freezeflow.characteristics.MAX_SAMPLES // freezeflow.diagnostics.QUADRATURE_N
    assert cap == 488
    monkeypatch.setattr(freezeflow.diagnostics, "run_default_checks", lambda *args, **kwargs: [])
    assert exit_code(["check", "--fixture", "seg-tent", "--times", ",".join(["1"] * cap)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(freezeflow.cli, "_make_field", lambda *args: pytest.fail("built a field"))
    assert exit_code(["check", "--fixture", "seg-tent", "--times", ",".join(["1"] * (cap + 1))]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--times takes at most 488 times, got 489" in err


@pytest.mark.parametrize("grid", ["40,40", "120,120"])
def test_boundary_corners_stay_in_segment(tmp_path, grid):
    # the corner ladders used to probe outside [0, 2] and exit 3; at 120x120
    # a short incident curve then made corner_slopes raise
    out = tmp_path / "tent.json"
    assert run_cli(["boundary", "--fixture", "tent", "--grid", grid, "--window=0,2,0,4", "--out", str(out)]) == 0
    corners = json.loads(out.read_text())["corners"]
    assert corners
    assert all(0.0 <= c["x"] <= 2.0 and 0.0 <= c["t"] <= 4.0 for c in corners)


def test_boundary_tent_corners_do_not_follow_the_grid(tmp_path):
    # 120x120 used to report a tip at (1e-7, 0.303) that 40x40 did not
    found = []
    for grid in ("40,40", "120,120"):
        out = tmp_path / f"tent{grid}.json"
        assert run_cli(["boundary", "--fixture", "tent", "--grid", grid, "--window=0,2,0,4", "--out", str(out)]) == 0
        found.append(sorted((c["kind"], c["x"], c["t"]) for c in json.loads(out.read_text())["corners"]))
    assert found[0] and "tip" not in [kind for kind, _, _ in found[0]]
    assert [kind for kind, _, _ in found[1]] == [kind for kind, _, _ in found[0]]
    for (_, x, t), (_, x0, t0) in zip(found[1], found[0]):
        assert abs(x - x0) <= 1e-9 and abs(t - t0) <= 1e-9


def test_boundary_segment_corners_do_not_follow_the_grid(tmp_path):
    # downhill used to report a freeze/thaw corner whose t shrank with the
    # cell (0.500, 0.295, 0.146) and another one wandering along t ~ 1e-7
    # and capped thawing slopes whose sign flipped with it (+100 at 24²,
    # -100 at 80² for the corner at (1, 0))
    found = []
    for n in (24, 40, 80):
        out = tmp_path / f"downhill{n}.json"
        argv = ["boundary", "--fixture", "downhill", "--grid", f"{n},{n}", "--window=-1,1,0,5"]
        assert run_cli(argv + ["--out", str(out)]) == 0
        corners = json.loads(out.read_text())["corners"]
        assert all(c["t"] >= 0.0 for c in corners)
        found.append(sorted(corners, key=lambda c: (c["kind"], c["x"], c["t"])))
    for corners in found[1:]:
        assert [c["kind"] for c in corners] == [c["kind"] for c in found[0]]
        for c, c0 in zip(corners, found[0]):
            for key in ("x", "t", "freezing_slope", "thawing_slope"):
                assert abs(c[key] - c0[key]) <= 1e-6, (key, c, c0)
            for key in ("freezing_unbounded", "thawing_unbounded"):
                assert c[key] == c0[key], (key, c, c0)


def test_flat_segment_warns_on_stderr(tmp_path, capsys):
    # v0 is flat on [1, 2]; validate reports that as a warning, not an error
    v0 = {"breakpoints": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 1.0], "left_slope": 1.0, "right_slope": 1.0}
    w0 = {"breakpoints": [0.0], "values": [-5.0], "left_slope": 1.0, "right_slope": 1.0}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"domain": {"kind": "whole_line"}, "v0": v0, "w0": w0}))
    out = tmp_path / "grid.csv"
    assert run_cli(["solve", "--problem", str(path), "--grid", "3,2", "--window=0,3,0,1", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: v0 flat on [1, 2]"]
    # the boundary JSON carries the same warning
    out = tmp_path / "bset.json"
    assert run_cli(["boundary", "--problem", str(path), "--grid", "3,2", "--window=0,3,0,1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["warnings"] == ["v0 flat on [1, 2]"]


def test_readme_cli_examples_parse(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("freezeflow ")]
    assert len(commands) >= 7
    parser = build_parser()
    for i, argv in enumerate(commands):
        parser.parse_args(argv)  # exits 2 on a stale flag
        if "--out" in argv:
            argv = argv[: argv.index("--out")] + argv[argv.index("--out") + 2 :]
        assert run_cli(argv + ["--out", str(tmp_path / f"out{i}")]) == 0, argv
    # the JSON problem example round-trips unchanged and solves
    problem = json.loads(readme.split("```json", 1)[1].split("```", 1)[0])
    assert spec_to_json(spec_from_json(problem)) == problem
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert run_cli(["solve", "--problem", str(path), "--out", str(tmp_path / "grid.csv")]) == 0
