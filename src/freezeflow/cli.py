"""Command-line interface.

Subcommands: solve, boundary, trace, check, oracle, pinned-balls, examples.
Problems come from a JSON file (--problem) or a named builtin (--fixture).
Output is CSV ('.' decimals, '\\n' line endings, header row) or JSON
(pretty-printed, sorted keys), byte-stable for a fixed configuration and
seed.

Exit codes: 0 success, 1 failed checks, 2 invalid problem or configuration,
3 domain violation, 4 runtime failure (e.g. a characteristic step failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import characteristics as chars
from . import diagnostics as diag
from . import geometry as geom
from . import oracle as orc
from . import pinned_balls as balls
from .fixtures import FIXTURES, get_fixture
from .levelset import SolutionField, _level_set, _LevelPair
from .problem import ProblemSpec, load_spec

EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_RUNTIME = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _make_field(spec: ProblemSpec, tol: float) -> SolutionField:
    """Build the field, printing each validation warning to stderr."""
    # at 1 a final cell is as wide as the values; below 1e-13 the bounds of
    # `check` approach the rounding of the values (it fails at 1e-16); nan too
    if not 1e-13 <= tol < 1.0:
        raise CliError(f"--tol must be at least 1e-13 and below 1, got {tol!r}", EXIT_BAD_CONFIG)
    try:
        field = SolutionField(spec, tolerance=tol)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_CONFIG)
    for message in field.warnings:
        sys.stderr.write(f"warning: {message}\n")
    return field


def _load_problem(args) -> ProblemSpec:
    if args.fixture:
        try:
            return get_fixture(args.fixture).build()
        except KeyError as exc:
            raise CliError(str(exc), EXIT_BAD_CONFIG)
    if args.problem:
        try:
            spec = load_spec(args.problem)
        except (OSError, KeyError, ValueError, TypeError, AttributeError, json.JSONDecodeError) as exc:
            raise CliError(f"invalid problem file: {exc}", EXIT_BAD_CONFIG)
        lo, hi = spec.breakpoint_span()
        if not math.isfinite(hi - lo):  # sampling and grids over the span would overflow
            raise CliError(f"invalid problem file: the breakpoint span [{lo:g}, {hi:g}] is too wide", EXIT_BAD_CONFIG)
        return spec
    raise CliError("one of --fixture or --problem is required", EXIT_BAD_CONFIG)


def _parse_pair(text: str, n: int, name: str) -> List[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise CliError(f"--{name} needs {n} comma-separated values", EXIT_BAD_CONFIG)
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise CliError(f"--{name}: not numeric: {text!r}", EXIT_BAD_CONFIG)
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"--{name}: values must be finite: {text!r}", EXIT_BAD_CONFIG)
    return values


def _write(out: Optional[str], payload: str):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _csv_text(header: Sequence[str], columns) -> str:
    """CSV of a header row and equal-length columns.  A column of strings
    passes through; in a numpy float column each distinct value is
    formatted once with %.12g, keyed by its bits so that -0.0 stays "-0"."""
    text = []
    for col in columns:
        if isinstance(col, np.ndarray):
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            col = np.array(["%.12g" % v for v in bits.view(np.float64).tolist()], dtype=object)[inverse].tolist()
        text.append(col)
    return ",".join(header) + "\n" + "".join([",".join(row) + "\n" for row in zip(*text)])


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- solve -----------------------------------------------------------------


def _parse_grid(text: str, least: int):
    nx, nt = _parse_pair(text, 2, "grid")
    if not (nx.is_integer() and nt.is_integer()):
        raise CliError(f"--grid needs whole numbers of points, got {text!r}", EXIT_BAD_CONFIG)
    if min(nx, nt) < least:
        raise CliError(f"--grid needs at least {least} points per axis, got {text!r}", EXIT_BAD_CONFIG)
    if nx * nt > chars.MAX_SAMPLES:
        raise CliError(f"--grid {text!r} has more than {chars.MAX_SAMPLES} points", EXIT_BAD_CONFIG)
    return int(nx), int(nt)


def cmd_solve(args) -> int:
    spec = _load_problem(args)
    nx, nt = _parse_grid(args.grid, 1)
    if args.window:
        x0, x1, t0, t1 = _parse_pair(args.window, 4, "window")
        if not math.isfinite(x1 - x0) or not math.isfinite(t1 - t0):
            raise CliError(f"--window {args.window!r} is too wide: its width overflows", EXIT_BAD_CONFIG)
    else:
        lo, hi = spec.breakpoint_span()
        x0, x1, t0, t1 = lo, hi, 0.0, get_fixture(args.fixture).horizon if args.fixture else 1.0
    field = _make_field(spec, args.tol)
    xs = np.linspace(x0, x1, nx)
    ts = np.linspace(t0, t1, nt)
    try:
        V, W = field.eval_grid(xs, ts)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_DOMAIN)
    # a point that is not liquid is on the boundary when the next row thaws it
    liquid = V - W > field.zone_epsilon()
    thaws = np.zeros_like(liquid)
    thaws[:-1] = liquid[1:]
    zones = np.where(liquid, "liquid", np.where(thaws, "boundary", "frozen"))
    values = [a.ravel() for a in (V, W, V + W, V - W)]
    zone_col = zones.ravel().tolist()
    keys = ("x", "t", "v", "w", "mu", "sigma", "zone")
    if args.format == "json":
        X, T = np.meshgrid(xs, ts)
        columns = [X.ravel().tolist(), T.ravel().tolist()] + [a.tolist() for a in values] + [zone_col]
        payload = _json_text([dict(zip(keys, r)) for r in zip(*columns)])
    else:
        # each x and each t is formatted once, not once per row
        x_col, t_col = ["%.12g" % x for x in xs.tolist()] * nt, [s for t in ts.tolist() for s in ["%.12g" % t] * nx]
        payload = _csv_text(keys, [x_col, t_col] + values + [zone_col])
    _write(args.out, payload)
    return 0


# -- boundary ----------------------------------------------------------------


def cmd_boundary(args) -> int:
    spec = _load_problem(args)
    nx, nt = _parse_grid(args.grid, 2)
    if not args.window:
        raise CliError("--window x0,x1,t0,t1 is required for boundary", EXIT_BAD_CONFIG)
    x0, x1, t0, t1 = _parse_pair(args.window, 4, "window")
    field = _make_field(spec, args.tol)
    try:
        bset = geom.extract_boundaries(field, (x0, x1, t0, t1), (nx, nt))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_DOMAIN)
    obj = {
        "cell_size": bset.cell_size,
        "warnings": bset.warnings,
        "freezing": [{"samples": [list(p) for p in c.samples]} for c in bset.freezing],
        "thawing": [{"samples": [list(p) for p in c.samples]} for c in bset.thawing],
        "corners": [{"x": c.x, "t": c.t, "kind": c.kind.value, **vars(c.slopes)} for c in bset.corners],
    }
    _write(args.out, _json_text(obj))
    return 0


# -- trace ---------------------------------------------------------------------


def cmd_trace(args) -> int:
    t_end = 0.0 if args.t_end is None else args.t_end
    if not all(math.isfinite(v) for v in (args.x, args.t, t_end)):
        raise CliError("--x, --t and --t-end must be finite", EXIT_BAD_CONFIG)
    backward = args.direction == "backward"
    if not (args.t > 0 if backward else args.t >= 0):
        need = "positive" if backward else "nonnegative"
        raise CliError(f"--t must be {need} for {args.direction} tracing, got {args.t!r}", EXIT_BAD_CONFIG)
    if not backward and args.t_end is not None and args.t_end < args.t:
        raise CliError(f"--t-end must not precede --t, got {args.t_end!r} < {args.t!r}", EXIT_BAD_CONFIG)
    spec = _load_problem(args)
    field = _make_field(spec, args.tol)
    kind = chars.CurveKind.V_CHAR if args.kind == "v" else chars.CurveKind.W_CHAR
    try:
        curve = chars._trace(field, args.x, args.t, kind, not backward, args.dt, args.t_end)
    except chars.CharacteristicStepError as exc:
        raise CliError(str(exc), EXIT_RUNTIME)
    except chars.StepError as exc:
        raise CliError(f"--dt: {exc}", EXIT_BAD_CONFIG)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_DOMAIN)
    x, t = np.array(curve.samples, dtype=float).reshape(-1, 2).T
    columns = [t, x, np.array(curve.values, dtype=float), [zone.value for zone in curve.zones]]
    _write(args.out, _csv_text(["t", "x", "value", "zone"], columns))
    if curve.termination:
        sys.stderr.write(f"termination: {curve.termination}\n")
    return 0


# -- check -----------------------------------------------------------------------


def cmd_check(args) -> int:
    spec = _load_problem(args)
    field = _make_field(spec, args.tol)
    times = None
    if args.times:
        try:
            times = [float(p) for p in args.times.split(",")]
        except ValueError:
            raise CliError(f"--times: not numeric: {args.times!r}", EXIT_BAD_CONFIG)
        if not all(0 <= t < math.inf for t in times):
            raise CliError("--times must be finite and nonnegative", EXIT_BAD_CONFIG)
    try:
        reports = diag.run_default_checks(field, seed=args.seed, times=times)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_CONFIG)
    _write(args.out, _json_text([r.to_json() for r in reports]))
    return 0 if all(r.passed for r in reports) else EXIT_CHECK_FAILED


# -- oracle ------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    if not 1 <= args.levels <= chars.MAX_SAMPLES:
        raise CliError(f"--levels must be from 1 to {chars.MAX_SAMPLES}, got {args.levels}", EXIT_BAD_CONFIG)
    spec = _load_problem(args)
    rng = np.random.default_rng(args.seed)
    lo, hi = spec.breakpoint_span()
    bs = diag.random_levels(spec, rng, args.levels)
    ts = rng.uniform(0.0, (hi - lo) + 1.0, size=args.levels)
    results = []
    worst = 0.0
    for b, t in zip(bs, ts):
        level = _LevelPair(spec, b)  # both sides read one level
        sub, sup = _level_set(spec, level, t, 0), _level_set(spec, level, t, 1)
        ob, orr = orc.oracle_level_sets(spec, b, t)
        d = max(sub.symmetric_difference_measure(ob), sup.symmetric_difference_measure(orr))
        worst = max(worst, d)
        results.append({"b": b, "t": float(t), "symmetric_difference": d})
    _write(args.out, _json_text({"worst": worst, "comparisons": results}))
    return 0


# -- pinned balls ----------------------------------------------------------------------


def cmd_pinned(args) -> int:
    if args.n < 2:
        raise CliError("--n must be at least 2", EXIT_BAD_CONFIG)
    if args.stride < 1:
        raise CliError("--stride must be at least 1", EXIT_BAD_CONFIG)
    if args.steps < 0:
        raise CliError("--steps must be nonnegative", EXIT_BAD_CONFIG)
    if args.steps > chars.MAX_SAMPLES:
        raise CliError(f"--steps must be at most {chars.MAX_SAMPLES}, got {args.steps}", EXIT_BAD_CONFIG)
    snapshots = 1 - (-args.steps // args.stride)  # the first, one per stride and the last
    if args.n * snapshots > chars.MAX_SAMPLES:
        raise CliError(f"--n {args.n} with {snapshots} snapshots writes more than {chars.MAX_SAMPLES} rows", EXIT_BAD_CONFIG)
    rng = np.random.default_rng(args.seed)
    state = balls.BallState(tuple(rng.standard_normal(args.n)), rng_seed=args.seed)
    final, snaps = balls.run(state, args.steps, np.random.default_rng(args.seed + 1), args.stride)
    sites = [str(i) for i in range(1, args.n + 1)]
    columns = [[str(t) for t, _ in snaps for _ in sites], sites * len(snaps), np.ravel([vel for _, vel in snaps])]
    _write(args.out, _csv_text(["t", "site", "velocity"], columns))
    return 0


# -- examples ---------------------------------------------------------------------------


def cmd_examples(args) -> int:
    if args.action == "list":
        lines = [f"{name}: {fx.description}" for name, fx in sorted(FIXTURES.items())]
        _write(args.out, "\n".join(lines) + "\n")
        return 0
    # run: evaluate each fixture's reference values where available
    failures = 0
    lines = []
    from .fixtures import wedge_v_exact, wedge_w_exact

    wedge = get_fixture("wedge")
    field = _make_field(wedge.build(), 1e-10)
    xs = np.linspace(-4, 4, 33)
    ts = np.linspace(0, 2, 9)
    V, W = field.eval_grid(xs, ts)
    err = max(
        float(np.max(np.abs(V - wedge_v_exact(xs[None, :], ts[:, None])))),
        float(np.max(np.abs(W - wedge_w_exact(xs[None, :], ts[:, None])))),
    )
    ok = err < 1e-8
    failures += 0 if ok else 1
    lines.append(f"wedge closed form: max error {err:.2e} {'PASS' if ok else 'FAIL'}")
    for name in sorted(FIXTURES):
        fx = FIXTURES[name]
        f = _make_field(fx.build(), 1e-9)
        x = sum(fx.build().breakpoint_span()) / 2
        v, w = f.eval_pair(x, fx.horizon / 2)
        ok = v >= w - 1e-6
        failures += 0 if ok else 1
        lines.append(f"{name}: v>=w at midpoint {'PASS' if ok else 'FAIL'}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if failures == 0 else EXIT_CHECK_FAILED


# -- parser -------------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, as the subcommands report theirs."""

    def error(self, message):
        self.exit(EXIT_BAD_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="freezeflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--fixture", help="builtin problem name")
        sp.add_argument("--problem", help="problem JSON file")
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("solve", help="evaluate v, w on a grid")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--grid", default="101,51", help="NX,NT")
    sp.add_argument("--window", help="x0,x1,t0,t1")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("boundary", help="extract freezing/thawing boundaries")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--grid", default="120,120", help="NX,NT")
    sp.add_argument("--window", help="x0,x1,t0,t1")
    sp.set_defaults(func=cmd_boundary)

    sp = sub.add_parser("trace", help="trace a characteristic")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--kind", choices=("v", "w"), required=True)
    sp.add_argument("--direction", choices=("backward", "forward"), required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--t-end", dest="t_end", type=float)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("check", help="run the diagnostic battery")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--times", help="comma-separated evaluation times")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("oracle", help="compare level sets against the annihilation oracle")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--levels", type=int, default=20)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("pinned-balls", help="simulate the discrete sorting dynamics")
    sp.add_argument("--n", type=int, default=50)
    sp.add_argument("--steps", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stride", type=int, default=1000)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_pinned)

    sp = sub.add_parser("examples", help="list or run the builtin fixtures")
    sp.add_argument("action", choices=("list", "run"))
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_examples)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise CliError(f"--seed must be nonnegative, got {args.seed}", EXIT_BAD_CONFIG)
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
