"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them inline;
pytest prints captured output for failures anyway).
"""

import math
import time

import numpy as np
import pytest

from freezeflow import (
    BallState,
    CornerKind,
    Domain,
    PiecewiseLinear,
    ProblemSpec,
    SolutionField,
    check_eventual_freeze,
    check_momentum_energy,
    check_monotone_dependence,
    check_total_variation,
    corner_slopes,
    extract_boundaries,
    get_fixture,
    grid_scheme,
    occupation_difference,
    oracle_level_sets,
    perturb_spec,
    random_pl_spec,
    run,
    sublevel_set,
    superlevel_set,
    trace_backward_v,
    trace_backward_w,
)
from freezeflow.diagnostics import data_sup_distance
from freezeflow.fixtures import (
    PARABOLAS_LEFT_CORNER,
    PARABOLAS_RIGHT_CORNER,
    PARABOLAS_TIP,
    RAMP_CORNER,
    wedge_v_exact,
    wedge_w_exact,
)

PL = PiecewiseLinear


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_closed_form_grid():
    field = SolutionField(get_fixture("wedge").build(), tolerance=1e-9)
    xs = np.linspace(-5.0, 5.0, 201)
    ts = np.linspace(0.0, 2.0, 101)
    t0 = time.perf_counter()
    V, W = field.eval_grid(xs, ts)
    elapsed = time.perf_counter() - t0
    err = max(
        float(np.max(np.abs(V - wedge_v_exact(xs[None, :], ts[:, None])))),
        float(np.max(np.abs(W - wedge_w_exact(xs[None, :], ts[:, None])))),
    )
    report(
        1,
        "closed-form reproduction on 201x101 grid",
        err <= 1e-8 and elapsed <= 10.0,
        f"max error {err:.2e} (<=1e-8), runtime {elapsed:.1f}s (<=10s)",
    )


def test_criterion_2_frozen_triangle_geometry():
    field = SolutionField(get_fixture("parabolas").build(), tolerance=1e-7)
    t0 = time.perf_counter()
    bset = extract_boundaries(field, (0.8, 3.2, 0.0, 3.45), (130, 150), zone_epsilon=1e-4)
    elapsed = time.perf_counter() - t0
    fts = sorted(
        (i for i, c in enumerate(bset.corners) if c.kind is CornerKind.FREEZE_THAW),
        key=lambda i: bset.corners[i].x,
    )
    tips = [c for c in bset.corners if c.kind is CornerKind.TIP]
    ok = len(fts) == 2 and len(tips) == 1
    detail = f"{len(fts)} base corners, {len(tips)} tips"
    if ok:
        left, right = bset.corners[fts[0]], bset.corners[fts[-1]]
        tip = tips[0]
        pos_err = max(
            abs(left.x - PARABOLAS_LEFT_CORNER[0]),
            abs(right.x - PARABOLAS_RIGHT_CORNER[0]),
        )
        tip_err = math.hypot(tip.x - PARABOLAS_TIP[0], tip.t - PARABOLAS_TIP[1])
        sl = corner_slopes(bset, fts[0])
        sr = corner_slopes(bset, fts[-1])
        slope_err = max(
            abs(sl.freezing_slope - (-1.0)) / 1.0,
            abs(sl.thawing_slope - 3.0) / 3.0,
            abs(sr.freezing_slope - 1.0) / 1.0,
            abs(sr.thawing_slope - (-3.0)) / 3.0,
        )
        ok = pos_err <= 0.01 and tip_err <= 0.02 and slope_err <= 0.05 and elapsed <= 60.0
        detail = (
            f"corner err {pos_err:.4f} (<=0.01), tip err {tip_err:.4f} (<=0.02), "
            f"worst slope err {slope_err * 100:.1f}% (<=5%), runtime {elapsed:.0f}s (<=60s)"
        )
    report(2, "frozen-triangle corners and slopes", ok, detail)


def test_criterion_3_thaw_to_freeze_corner():
    field = SolutionField(get_fixture("ramp").build(), tolerance=1e-8)
    bset = extract_boundaries(field, (-2.8, 0.4, 0.0, 2.9), (130, 120), zone_epsilon=1e-4)
    corner = min(bset.corners, key=lambda c: abs(c.x - RAMP_CORNER[0]) + abs(c.t - RAMP_CORNER[1]))
    sl = corner_slopes(bset, bset.corners.index(corner))
    ok = (
        abs(sl.freezing_slope) <= 0.05
        and abs(sl.thawing_slope) > 20.0
        and sl.thawing_unbounded
    )
    report(
        3,
        "thaw-to-freeze corner slopes",
        ok,
        f"freezing {sl.freezing_slope:+.3f} (|.|<=0.05), thawing {sl.thawing_slope:.0f} "
        f"(|.|>20), unbounded={sl.thawing_unbounded}",
    )


def test_criterion_4_momentum_energy_conservation():
    field = SolutionField(get_fixture("tent").build(), tolerance=1e-11)
    rep_mu, rep_en = check_momentum_energy(field, [0.0, 0.5, 1.0, 2.0, 4.0], quadrature_n=4096)
    ok = rep_mu.measured <= 1e-4 and rep_en.measured <= 1e-4
    report(
        4,
        "momentum/energy conservation on the tent fixture",
        ok,
        f"d(mu)={rep_mu.measured:.2e}, d(energy)={rep_en.measured:.2e} (<=1e-4)",
    )


def test_criterion_5_occupation_measure():
    worst = 0.0
    wedge = get_fixture("wedge").build()
    for b in np.linspace(0.05, 2.8, 20):
        vals = [occupation_difference(wedge, b, t, (-10.0, 10.0)) for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
        worst = max(worst, max(vals) - min(vals))
    tent = get_fixture("tent").build()
    for b in np.linspace(-0.95, 0.95, 20):
        vals = [occupation_difference(tent, b, t, (0.0, 2.0)) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        worst = max(worst, max(vals) - min(vals))
    report(5, "occupation-measure conservation", worst <= 1e-8, f"max drift {worst:.2e} (<=1e-8)")


def test_criterion_6_eventual_freezing():
    field = SolutionField(get_fixture("seg-tent").build(), tolerance=1e-11)
    xs = np.linspace(0.0, 1.0, 101)
    rows = [field.eval_grid(xs, [t]) for t in (2.0, 2.5, 3.0)]
    base = rows[0][0][0]
    worst = 0.0
    for V, W in rows:
        worst = max(worst, float(np.max(np.abs(V[0] - W[0]))))
        worst = max(worst, float(np.max(np.abs(V[0] - base))))
        worst = max(worst, float(np.max(np.maximum(0.0, -np.diff(V[0])))))
    spec = get_fixture("downhill").build()
    dfield = SolutionField(spec, tolerance=1e-11)
    mirror = 0.0
    for x in np.linspace(-1.0, 1.0, 41):
        v, w = dfield.eval_pair(x, 4.0)
        mirror = max(mirror, abs((v + w) - (spec.v0(-x) + spec.w0(-x))))
    ok = worst <= 1e-8 and mirror <= 1e-6
    report(
        6,
        "eventual freezing and mirror identity",
        ok,
        f"frozen/monotone dev {worst:.2e} (<=1e-8), mirror dev {mirror:.2e} (<=1e-6)",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        spec = random_pl_spec(rng)
        lo, hi = spec.breakpoint_span()
        w_lo, _ = spec.w0.min_max_on(lo, hi)
        _, v_hi = spec.v0.min_max_on(lo, hi)
        for _ in range(5):
            b = float(rng.uniform(w_lo - 1.0, v_hi + 1.0))
            t = float(rng.uniform(0.0, 3.0))
            sub = sublevel_set(spec, b, t)
            sup = superlevel_set(spec, b, t)
            ob, orr = oracle_level_sets(spec, b, t)
            worst = max(
                worst,
                sub.symmetric_difference_measure(ob),
                sup.symmetric_difference_measure(orr),
            )
    elapsed = time.perf_counter() - t0
    report(
        7,
        "level sets match the annihilation oracle on 200 random specs",
        worst <= 1e-9 and elapsed <= 120.0,
        f"worst symmetric difference {worst:.2e} (<=1e-9), runtime {elapsed:.0f}s (<=120s)",
    )


def test_criterion_8_grid_scheme_convergence():
    spec = get_fixture("wedge").build()
    errs = []
    for dx in (1 / 64, 1 / 128, 1 / 256):
        xs, v, w = grid_scheme(spec, dx, 1.0, window=(-4.0, 4.0))
        errs.append(
            max(
                float(np.max(np.abs(v - wedge_v_exact(xs, 1.0)))),
                float(np.max(np.abs(w - wedge_w_exact(xs, 1.0)))),
            )
        )
    r1, r2 = errs[1] / errs[0], errs[2] / errs[1]
    report(
        8,
        "first-order grid-scheme convergence",
        r1 <= 0.6 and r2 <= 0.6,
        f"errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}, ratios {r1:.2f}, {r2:.2f} (<=0.6)",
    )


def test_criterion_9_lipschitz_map():
    rng = np.random.default_rng(77)
    worst_excess = -math.inf
    for k in range(50):
        spec = random_pl_spec(rng, segment=bool(k % 2))
        other = perturb_spec(spec, rng, float(rng.uniform(0.05, 0.6)))
        fa = SolutionField(spec, tolerance=1e-12)
        fb = SolutionField(other, tolerance=1e-12)
        if spec.domain.is_segment:
            x_lo, x_hi = spec.domain.a1, spec.domain.a2
            d_inf = data_sup_distance(spec, other, x_lo, x_hi)
            t_hi = 2.0 * (x_hi - x_lo)
        else:
            a = 2.0
            x_lo, x_hi = -a, a
            d_inf = data_sup_distance(spec, other, -2 * a, 2 * a)
            t_hi = a
        sup = 0.0
        for _ in range(40):
            x = float(rng.uniform(x_lo, x_hi))
            t = float(rng.uniform(0.0, t_hi * 0.999))
            sup = max(sup, abs(fa.eval_v(x, t) - fb.eval_v(x, t)))
            sup = max(sup, abs(fa.eval_w(x, t) - fb.eval_w(x, t)))
        worst_excess = max(worst_excess, sup - d_inf)
    report(
        9,
        "solution map is 1-Lipschitz in the sup norm",
        worst_excess <= 1e-8,
        f"max (sup|dsol| - sup|ddata|) = {worst_excess:.2e} (<=1e-8)",
    )


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    failures = []

    fixture_specs = [get_fixture(n).build() for n in ("wedge", "tent", "seg-tent", "downhill", "thawline")]
    random_specs = [random_pl_spec(rng) for _ in range(10)]
    specs = fixture_specs + random_specs

    # constraint v >= w
    for spec in specs:
        field = SolutionField(spec, tolerance=1e-10, strict=False)
        lo, hi = spec.breakpoint_span()
        tol = field.zone_epsilon() / 5.0
        for _ in range(40):
            x = float(rng.uniform(*((spec.domain.a1, spec.domain.a2) if spec.domain.is_segment else (lo - 2, hi + 2))))
            t = float(rng.uniform(0.0, hi - lo + 1.0))
            v, w = field.eval_pair(x, t)
            if v < w - 2 * tol:
                failures.append(f"constraint {spec} at ({x:.3f},{t:.3f})")

    # level-set monotonicity in b
    for spec in specs[:8]:
        lo, hi = spec.breakpoint_span()
        w_lo, _ = spec.w0.min_max_on(lo, hi)
        _, v_hi = spec.v0.min_max_on(lo, hi)
        bs = sorted(rng.uniform(w_lo - 1, v_hi + 1, size=3))
        for t in (0.0, 0.9, 2.3):
            subs = [sublevel_set(spec, b, t) for b in bs]
            sups = [superlevel_set(spec, b, t) for b in bs]
            for small, big in zip(subs, subs[1:]):
                if small.intersect(big).symmetric_difference_measure(small) > 1e-9:
                    failures.append(f"sublevel monotonicity {spec}")
            for big, small in zip(sups, sups[1:]):
                if small.intersect(big).symmetric_difference_measure(small) > 1e-9:
                    failures.append(f"superlevel monotonicity {spec}")

    # TV monotonicity on whole-line specs
    for spec in [s for s in specs if not s.domain.is_segment][:6]:
        field = SolutionField(spec, tolerance=1e-10, strict=False)
        lo, hi = spec.breakpoint_span()
        rep = check_total_variation(field, [0.0, 0.5, 1.5], (lo - 2, hi + 2), samples=301)
        if not rep.passed:
            failures.append(f"TV {spec}: {rep}")

    # monotone dependence
    for spec in random_specs[:5]:
        upper = ProblemSpec(spec.domain, spec.v0.shift_value(0.5), spec.w0.shift_value(0.5))
        rep = check_monotone_dependence(spec, upper, sample_points=40, seed=8)
        if not rep.passed:
            failures.append(f"monotone dependence {spec}: {rep}")

    # subsonic and value-constant characteristics
    for spec in fixture_specs + random_specs[:4]:
        field = SolutionField(spec, tolerance=1e-10, strict=False)
        lo, hi = spec.breakpoint_span()
        lam = spec.lipschitz
        for _ in range(3):
            if spec.domain.is_segment:
                x = float(rng.uniform(spec.domain.a1 + 0.05, spec.domain.a2 - 0.05))
            else:
                x = float(rng.uniform(lo, hi))
            t = float(rng.uniform(0.3, 1.5))
            for tracer, ev in ((trace_backward_v, field.eval_v), (trace_backward_w, field.eval_w)):
                try:
                    c = tracer(field, x, t)
                except Exception as exc:  # step failures count as failures
                    failures.append(f"trace {spec} ({x:.2f},{t:.2f}): {exc}")
                    continue
                if not c.is_subsonic(3e-3):
                    failures.append(f"subsonic {spec} ({x:.2f},{t:.2f})")
                tol = lam * 1e-3 * t + 10 * field.zone_epsilon()
                ref = ev(x, t)
                if max(abs(v - ref) for v in c.values) > tol:
                    failures.append(f"value constancy {spec} ({x:.2f},{t:.2f})")

    elapsed = time.perf_counter() - t0
    report(
        10,
        "property suites (fixtures + seeded random)",
        not failures and elapsed <= 300.0,
        f"{len(failures)} failures, runtime {elapsed:.0f}s (<=300s)"
        + (f"; first: {failures[0]}" if failures else ""),
    )


def test_pinned_balls_invariants_exact():
    rng = np.random.default_rng(99)
    vel = tuple(rng.standard_normal(60))
    state = BallState(vel, rng_seed=99)
    out, _ = run(state, 60 * 60 * 50, rng=np.random.default_rng(99), stride=10**9)
    ok = (
        sorted(out.velocities) == sorted(vel)
        and sum(sorted(out.velocities)) == sum(sorted(vel))
        and sum(v * v for v in sorted(out.velocities)) == sum(v * v for v in sorted(vel))
        and out.is_sorted()
    )
    report(
        0,
        "pinned-balls conservation and absorbing sortedness",
        ok,
        "multiset, momentum, energy exact; final state sorted",
    )
