"""Self-tests of the benchmark.

    python3 -m pytest benchmarks -q

Each correctness check must reject a result perturbed beyond its tolerance,
and a run must print every metric that BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402
from freezeflow import characteristics, cli, fixtures  # noqa: E402
from freezeflow.diagnostics import random_pl_spec  # noqa: E402
from freezeflow.levelset import SolutionField, sublevel_set, superlevel_set  # noqa: E402
from freezeflow.oracle import oracle_level_sets  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _wedge_csv() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["solve", "--fixture", "wedge", "--grid", "41,21", "--window=-5,5,0,2"]) == 0
    return buf.getvalue()


def _edit_csv(text: str, row: int, col: int, value) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][col] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_wedge_check_rejects_value_off_by_1e6():
    text = _wedge_csv()
    assert checks.check_wedge_csv(text) == 0
    row = 300
    v = float(list(csv.reader(io.StringIO(text)))[row][2])
    assert checks.check_wedge_csv(_edit_csv(text, row, 2, repr(v + 1e-6))) == 1
    w = float(list(csv.reader(io.StringIO(text)))[row][3])
    assert checks.check_wedge_csv(_edit_csv(text, row, 3, repr(w - 1e-6))) == 1


def test_wedge_check_rejects_wrong_zone():
    text = _wedge_csv()
    rows = list(csv.reader(io.StringIO(text)))
    # x = 2, t = 1.5 lies inside the frozen wedge 0.9 < x < 4.5
    row = next(i for i, r in enumerate(rows[1:], 1) if float(r[0]) == 2.0 and float(r[1]) == 1.5)
    assert rows[row][6] == "frozen"
    assert checks.check_wedge_csv(_edit_csv(text, row, 6, "liquid")) == 1


@pytest.fixture(scope="module")
def parabolas_round():
    wl = worker.make_workload("boundary-parabolas", seed=1)
    return wl.round()


def test_corner_check_rejects_corner_moved_by_002(parabolas_round):
    cell, corners = parabolas_round
    assert checks.check_parabolas_corner(corners, cell) == 0
    (kind, x, t, fs, ts), = corners
    for dx, dt in ((0.02, 0.0), (-0.02, 0.0), (0.0, 0.02), (0.0, -0.02)):
        assert checks.check_parabolas_corner([(kind, x + dx, t + dt, fs, ts)], cell) == 1
    assert checks.check_parabolas_corner([(kind, x, t, fs + 0.2, ts)], cell) == 1
    assert checks.check_parabolas_corner([(kind, x, t, fs, ts * 1.2)], cell) == 1
    assert checks.check_parabolas_corner([], cell) == 1


def test_level_set_check_rejects_shift_by_1e6():
    rng = np.random.default_rng(5)
    results, oracle = [], []
    while len(results) < 40:
        spec = random_pl_spec(rng)
        lo, hi = spec.breakpoint_span()
        b = float(rng.uniform(*spec.v0.min_max_on(lo, hi)))
        t = float(rng.uniform(0.0, 3.0))
        blue, red = oracle_level_sets(spec, b, t)
        for got, ref in ((sublevel_set(spec, b, t), blue), (superlevel_set(spec, b, t), red)):
            # a shift moves measure only for sets with a finite endpoint of
            # an interval of positive length
            if any(hi > lo and np.isfinite([lo, hi]).any() for lo, hi in got):
                results.append(got.intervals)
                oracle.append(ref.intervals)
    assert checks.check_level_sets(results, oracle) == 0
    shifted = [tuple((lo + 1e-6, hi + 1e-6) for lo, hi in r) for r in results]
    assert checks.check_level_sets(shifted, oracle) == len(results)


def test_trace_check_rejects_broken_curves():
    spec = fixtures.get_fixture("wedge").build()
    field = SolutionField(spec)
    x, t = 1.0, 1.0
    dt = worker.TraceMixed.DT_FACTOR * t
    eps = field.zone_epsilon()
    for kind, tracer in (("v", characteristics.trace_backward_v), ("w", characteristics.trace_backward_w)):
        c = tracer(field, x, t, dt=dt)
        samples, values = list(c.samples), list(c.values)
        assert checks.check_trace(samples, values, kind, spec, dt, eps) == 0
        tol = spec.lipschitz * dt + 10 * eps
        off = values[:]
        off[len(off) // 2] += 1.5 * tol
        assert checks.check_trace(samples, off, kind, spec, dt, eps) == 1
        fast = samples[:]
        x1, t1 = fast[1]
        fast[1] = (x1 + (2.0 if kind == "v" else -2.0) * (t1 - fast[0][1]), t1)
        assert checks.check_trace(fast, values, kind, spec, dt, eps) == 1
        lifted = [(xs, ts + 0.1) for xs, ts in samples]
        assert checks.check_trace(lifted, values, kind, spec, dt, eps) == 1


def test_speed_sampler_samples_during_a_round_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = worker.SpeedSampler()
    with sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 5 and sampler.spent > 0.0
    assert sampler.kref_s() > 0.0 and len(sampler.samples) >= worker.SpeedSampler.MIN_SAMPLES


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_carries_every_metric(trace, section):
    out = _run(["--workload", "levelsets-random", "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_program():
    """A directory with only BENCHMARK.json and the benchmark has no program."""
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
        out = _run(["--workload", "grid-wedge", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert out.returncode != 0
    assert not out.stdout.strip()
