"""One benchmark workload, run in a fresh process by run.py.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/worker.py --workload NAME --seed N --setup-only

The worker imports freezeflow from the checkout's src/, builds the seeded
inputs, prints "ready" (run.py times set-up up to that line), then repeats
whole rounds of the same operations until S seconds have passed.  Round
times are also expressed in kref, the time of a fixed pure-Python kernel
sampled during the round (see SpeedSampler).  Outputs are checked after the
timed phase; the result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    sys.path.insert(0, str(SRC))
    import freezeflow

    if Path(freezeflow.__file__).resolve().parent != (SRC / "freezeflow").resolve():
        raise SystemExit(f"freezeflow imported from {freezeflow.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Workloads: set-up in __init__, one round of identical operations in round(),
# and check(output) -> (failed operations, wrong outputs among them).
# ---------------------------------------------------------------------------


class GridWedge:
    """Criterion 1's 201x101 wedge grid through the CLI's solve command."""

    def __init__(self, rng):
        from freezeflow import cli, fixtures
        from freezeflow.levelset import SolutionField

        SolutionField(fixtures.get_fixture("wedge").build())  # validation, as the CLI does
        shift = float(rng.uniform(0.0, 0.05))  # sub-cell shift of the x window
        self.argv = [
            "solve", "--fixture", "wedge", "--grid", "201,101",
            f"--window={-5.0 + shift!r},{5.0 + shift!r},0,2",
        ]
        self.main = cli.main
        self.ops_per_round = 201 * 101  # grid points with v and w written

    def round(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.main(self.argv)
        if code != 0:
            raise RuntimeError(f"freezeflow solve exited {code}")
        return buf.getvalue()

    def check(self, out):
        import checks

        wrong = checks.check_wedge_csv(out)
        return wrong, wrong


class BoundaryParabolas:
    """Boundary extraction around the left base corner of the parabolas
    triangle, with criterion 2's tolerances on a coarser grid."""

    RESOLUTION = (40, 40)

    def __init__(self, rng):
        from freezeflow import fixtures, geometry
        from freezeflow.levelset import SolutionField

        self.geometry = geometry
        self.field_type = SolutionField
        self.spec = fixtures.get_fixture("parabolas").build()
        SolutionField(self.spec, tolerance=1e-7)
        cell = 1.6 / (self.RESOLUTION[1] - 1)
        dx, dt = (float(d) for d in rng.uniform(0.0, cell, size=2))
        self.window = (0.8 + dx, 2.0 + dx, 0.4 + dt, 2.0 + dt)
        self.ops_per_round = 1  # one extraction with its corner slopes

    def round(self):
        geometry = self.geometry
        field = self.field_type(self.spec, tolerance=1e-7)
        bset = geometry.extract_boundaries(field, self.window, self.RESOLUTION, zone_epsilon=1e-4)
        corners = []
        for i, c in enumerate(bset.corners):
            try:
                sl = geometry.corner_slopes(bset, i)
                slopes = (sl.freezing_slope, sl.thawing_slope)
            except ValueError:
                slopes = (None, None)
            corners.append((c.kind.value, c.x, c.t) + slopes)
        return bset.cell_size, corners

    def check(self, out):
        import checks

        cell, corners = out
        wrong = checks.check_parabolas_corner(corners, cell)
        return wrong, wrong


class TraceMixed:
    """Backward v and w characteristics from seeded points on wedge, seg-tent
    and seeded random whole-line specs, with an explicit step."""

    DT_FACTOR = 0.05  # dt = 0.05 t: 20 steps per trace, 50x the default step
    N_RANDOM = 48

    def __init__(self, rng):
        from freezeflow import characteristics, fixtures
        from freezeflow.diagnostics import random_pl_spec
        from freezeflow.levelset import SolutionField

        self.chars = characteristics
        self.field_type = SolutionField
        wedge = fixtures.get_fixture("wedge").build()
        seg_tent = fixtures.get_fixture("seg-tent").build()
        points = [(wedge, rng.uniform(-3.0, 4.0)) for _ in range(2)]
        points += [(seg_tent, rng.uniform(0.05, 0.95)) for _ in range(2)]
        for i in range(self.N_RANDOM):
            # breakpoint counts cycle through 3..12 so every seed draws the
            # same mix of problem sizes; the rest of each spec is random
            while True:
                spec = random_pl_spec(rng, segment=False)
                if spec.v0.n == 3 + i % 10:
                    break
            lo, hi = spec.breakpoint_span()
            points.append((spec, rng.uniform(lo, hi)))
        self.jobs = []
        for spec, x in points:
            t = float(rng.uniform(0.3, 1.5))
            eps = SolutionField(spec).zone_epsilon()
            self.jobs.append((spec, float(x), t, self.DT_FACTOR * t, eps))
        self.ops_per_round = 2 * len(self.jobs)

    def round(self):
        chars = self.chars
        out = []
        for spec, x, t, dt, _ in self.jobs:
            field = self.field_type(spec)
            for kind, tracer in (("v", chars.trace_backward_v), ("w", chars.trace_backward_w)):
                try:
                    c = tracer(field, x, t, dt=dt)
                    out.append((kind, c.samples, c.values))
                except chars.CharacteristicStepError:
                    out.append((kind, None, None))
        return out

    def check(self, out):
        import checks

        failed = wrong = 0
        for (spec, _, _, dt, eps), pair in zip(self.jobs, zip(out[::2], out[1::2])):
            for kind, samples, values in pair:
                if samples is None:
                    failed += 1
                elif checks.check_trace(samples, values, kind, spec, dt, eps):
                    failed += 1
                    wrong += 1
        return failed, wrong


class LevelsetsRandom:
    """Sublevel and superlevel sets of seeded random problems at seeded (b, t),
    as in criterion 7, half on the whole line and half on segments."""

    N_SPECS = 1000
    QUERIES_PER_SPEC = 5

    def __init__(self, rng):
        from freezeflow.diagnostics import random_pl_spec
        from freezeflow.levelset import SolutionField

        self.queries = []
        for i in range(self.N_SPECS):
            spec = random_pl_spec(rng, segment=bool(i % 2))
            field = SolutionField(spec)
            lo, hi = spec.breakpoint_span()
            w_lo, _ = spec.w0.min_max_on(lo, hi)
            _, v_hi = spec.v0.min_max_on(lo, hi)
            for _ in range(self.QUERIES_PER_SPEC):
                b = float(rng.uniform(w_lo - 1.0, v_hi + 1.0))
                t = float(rng.uniform(0.0, 3.0))
                self.queries.append((field, b, t))
        self.ops_per_round = 2 * len(self.queries)  # set queries

    def round(self):
        out = []
        for field, b, t in self.queries:
            out.append(field.sublevel_set(b, t).intervals)
            out.append(field.superlevel_set(b, t).intervals)
        return out

    def check(self, out):
        import checks
        from freezeflow.oracle import oracle_level_sets

        oracle = []
        for field, b, t in self.queries:
            blue, red = oracle_level_sets(field.spec, b, t)
            oracle += [blue.intervals, red.intervals]
        wrong = checks.check_level_sets(out, oracle)
        return wrong, wrong


WORKLOADS = {
    "grid-wedge": GridWedge,
    "boundary-parabolas": BoundaryParabolas,
    "trace-mixed": TraceMixed,
    "levelsets-random": LevelsetsRandom,
}


def make_workload(name: str, seed: int):
    import numpy as np

    return WORKLOADS[name](np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------


def _kernel() -> float:
    """Fixed pure-Python work (about 0.2 ms): list building, sorting, bisect,
    dict updates and float arithmetic, the operations the solver runs on."""
    xs = [((i * 7919) % 1009) / 1009.0 for i in range(200)]
    xs.sort()
    table: dict = {}
    acc = 0.0
    for i, x in enumerate(xs):
        j = bisect_right(xs, 0.5 * x)
        table[j] = table.get(j, 0.0) + x
        pair = (x, acc)
        acc += pair[0] * 0.5 - (pair[1] * 1e-3 if i % 3 else 0.0)
    return acc


class SpeedSampler:
    """Times ``_kernel`` every INTERVAL seconds while a round runs.

    A shared machine's speed drifts over seconds and minutes (by up to a
    third on the machine of README.md's figures), and the drift slows the
    kernel and the workload alike.  A timer signal runs the kernel between
    the workload's bytecodes, so the samples show how fast the machine ran
    during the round itself; ``spent`` is the time the samples took, which
    the round's time leaves out.
    """

    INTERVAL = 0.02
    MIN_SAMPLES = 20

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kref_s(self) -> float:
        """Seconds per kref (a thousand kernel runs) during the last round;
        a round too short for MIN_SAMPLES is topped up right after it."""
        while len(self.samples) < self.MIN_SAMPLES:
            self._tick()
        return 1000.0 * statistics.median(self.samples)


class Rounds:
    """Whole rounds run until ``seconds`` have passed (at least one).

    Each round records its wall and CPU time without the speed samples, and
    ``krefs``, the machine's seconds per kref during it.  Rounds repeat the
    same operations, so each output is compared with the ``reference``
    output (the first round's when none is given); only the outputs that
    differ need a check of their own.
    """

    def __init__(self, wl, seconds: float, reference=None):
        self.walls: list = []
        self.cpus: list = []
        self.krefs: list = []
        self.reference = reference
        self.differing: list = []
        sampler = SpeedSampler()
        start = time.perf_counter()
        while True:
            with sampler:
                c0 = time.process_time()
                t0 = time.perf_counter()
                out = wl.round()
                t1 = time.perf_counter()
                c1 = time.process_time()
            self.walls.append(t1 - t0 - sampler.spent)
            self.cpus.append(c1 - c0 - sampler.spent)
            self.krefs.append(sampler.kref_s())
            if self.reference is None:
                self.reference = out
            elif out != self.reference:
                self.differing.append(out)
            del out
            if time.perf_counter() - start >= seconds:
                break

    def __len__(self):
        return len(self.walls)


def check_rounds(wl, runs) -> tuple:
    """(failed, wrong) operations over all rounds of ``runs``."""
    ref_failed, ref_wrong = wl.check(runs[0].reference)
    failed = wrong = 0
    for r in runs:
        same = len(r) - len(r.differing)
        failed += ref_failed * same
        wrong += ref_wrong * same
        for out in r.differing:
            f, w = wl.check(out)
            failed += f
            wrong += w
    return failed, wrong


def machine() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="where a traced run writes its spans (JSON)")
    args = p.parse_args(argv)

    import_program()
    wl = make_workload(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    sys.path.insert(0, str(HERE))
    result = {"machine": machine(), "ops_per_round": wl.ops_per_round}
    if args.trace == 0:
        runs = [Rounds(wl, args.seconds)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        r = runs[0]
        result["round_wall_s"] = r.walls
        result["round_cpu_s"] = r.cpus
        result["round_kref_s"] = r.krefs
        rounds_kref = [w / k for w, k in zip(r.walls, r.krefs)]
        result["seconds"] = {
            "wall_s": statistics.median(r.walls),
            "cpu_s": statistics.median(r.cpus),
            "ops_per_s": wl.ops_per_round * len(r) / sum(r.walls),
            "kref_s": statistics.median(r.krefs),
        }
        result["metrics"] = {
            "wall_kref": statistics.median(rounds_kref),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_kref": wl.ops_per_round * len(r) / sum(rounds_kref),
        }
    else:
        from tracing import Tracer

        plain = Rounds(wl, args.seconds / 2.0)
        tracer = Tracer()
        with tracer:
            traced = Rounds(wl, args.seconds / 2.0, plain.reference)
        setup_tracer = Tracer()
        with setup_tracer:
            make_workload(args.workload, args.seed)
        runs = [plain, traced]
        layers = tracer.layer_metrics(len(traced))
        layers["problem.validate.s"] = setup_tracer.self_s["problem.validate"]
        layers["trace.overhead"] = statistics.median(traced.walls) / statistics.median(plain.walls)
        result["untraced_round_wall_s"] = plain.walls
        result["traced_round_wall_s"] = traced.walls
        result["absent"] = tracer.absent
        result["metrics"] = layers
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed, "rounds": len(traced)})
    failed, wrong = check_rounds(wl, runs)
    result["attempted"] = wl.ops_per_round * sum(len(r) for r in runs)
    result["failed"] = failed
    result["correct"] = wrong == 0
    result["rounds"] = sum(len(r) for r in runs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
