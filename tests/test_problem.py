import json
import math

import numpy as np
import pytest

from freezeflow import (
    Domain,
    MuSigmaPair,
    PiecewiseLinear,
    ProblemSpec,
    SolutionField,
    from_vw,
    initial_from_terminal,
    spec_from_json,
    spec_to_json,
    to_vw,
    validate,
)
from freezeflow.diagnostics import random_pl_spec
from freezeflow.fixtures import FIXTURES, get_fixture, wedge_v_exact

PL = PiecewiseLinear


class TestPiecewiseLinear:
    def test_eval_interior_and_tails(self):
        f = PL([0.0, 1.0], [0.0, 2.0], left_slope=-1.0, right_slope=3.0)
        assert f(0.5) == 1.0
        assert f(-2.0) == 2.0  # 0 + (-1) * (-2)
        assert f(2.0) == 5.0
        xs = np.array([-1.0, 0.25, 3.0])
        assert np.allclose(f(xs), [1.0, 0.5, 8.0])

    @pytest.mark.parametrize(
        "call",
        [lambda f: f(math.nan), lambda f: f.min_max_on(math.nan, 1.0), lambda f: f.min_max_on(0.0, math.nan)],
        ids=["call", "min_max_on-lo", "min_max_on-hi"],
    )
    def test_nan_argument_raises_value_error(self, call):
        # these used to fail with IndexError deep inside the evaluation
        f = PL([0.0, 1.0], [0.0, 2.0], left_slope=-1.0, right_slope=3.0)
        with pytest.raises(ValueError, match="nan"):
            call(f)

    def test_validation(self):
        with pytest.raises(ValueError):
            PL([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="nonempty"):
            PL([], [])
        with pytest.raises(ValueError, match="equal-length"):
            PL([0.0, 1.0], [0.0])
        with pytest.raises(ValueError):
            PL([0.0], [math.nan])

    def test_slopes_and_extrema(self):
        f = PL([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], -1.0, 1.0)  # |x|
        assert f.max_abs_slope() == 1.0
        assert f.flat_segments() == []
        g = PL([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
        assert g.flat_segments() == [(0.0, 1.0)]

    def test_level_sets_match_bruteforce(self, rng):
        # brute-force oracle: dense sampling of the indicator.  Inputs mix
        # 2-8 and 128-200 breakpoints, quantised walks (flat segments, b equal
        # to a breakpoint value) and domain clips, on both sides
        grid = np.linspace(-9, 9, 4001)
        for case in range(60):
            k = int(rng.integers(2, 9)) if case % 3 else int(rng.integers(128, 201))
            xs = np.sort(rng.choice(np.linspace(-5, 5, 1001), size=k, replace=False))
            if case % 2:  # a walk in steps of 0, +-0.5: flats inside monotone runs
                ys = np.cumsum(rng.choice([-0.5, 0.0, 0.5], size=k))
            else:
                ys = rng.uniform(-3, 3, size=k)
            f = PL(xs, ys, rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = float(rng.choice(ys)) if case % 4 < 2 else rng.uniform(-3, 3)
            domain = None if case % 5 < 2 else tuple(np.sort(rng.uniform(-7, 7, size=2)))
            lo_d, hi_d = domain if domain is not None else (-math.inf, math.inf)
            inside = (grid >= lo_d) & (grid <= hi_d)
            vals = f(grid)
            for below in (True, False):
                got = f.sublevel_intervals(b, domain) if below else f.superlevel_intervals(b, domain)
                assert all(lo <= hi for lo, hi in got), got
                assert all(a[1] < c[0] for a, c in zip(got, got[1:])), "not sorted and disjoint"
                g = vals - b if below else b - vals  # g <= 0 on the level set
                ind = np.zeros_like(grid, dtype=bool)
                for lo, hi in got:
                    ind |= (grid >= lo) & (grid <= hi)
                assert not (ind & ~inside).any(), "level set leaves the domain"
                assert np.all(g[ind] <= 1e-9), "level set contains points on the wrong side of b"
                assert not ((g <= -1e-9) & inside & ~ind).any(), "missed level-set points"
                # exact at breakpoints: each one in the domain lies in the set
                # iff its value does, and so does each segment between two
                # such breakpoints (a flat at b included)
                on = ys <= b if below else ys >= b
                for i, x in enumerate(xs):
                    if lo_d <= x <= hi_d:
                        assert on[i] == any(lo <= x <= hi for lo, hi in got), (i, x)
                    if i + 1 < k and on[i] and on[i + 1]:
                        s0, s1 = max(x, lo_d), min(xs[i + 1], hi_d)
                        if s0 <= s1:
                            assert any(lo <= s0 and s1 <= hi for lo, hi in got), (i, s0, s1)

    def test_level_set_touching_a_peak_is_a_point(self):
        # the crossing next to a peak at height b is x0 + (x1 - x0), which
        # rounds an ulp past the peak (lo > hi, or no point after a clip)
        # or an ulp short of it
        f = PL([-0.5, 1.7, 3.7], [0.0, 1.0, 0.0], 1.0, -1.0)
        assert f.superlevel_intervals(1.0) == [(1.7, 1.7)]
        assert f.superlevel_intervals(1.0, domain=(-1, 5)) == [(1.7, 1.7)]
        g = PL([-0.5] + [1.7 + 0.01 * k for k in range(200)], [0.0] + [1.0 - 0.005 * k for k in range(200)], 1.0, -0.5)
        assert g.superlevel_intervals(1.0) == [(1.7, 1.7)]
        assert g.superlevel_intervals(1.0, domain=(-1, 5)) == [(1.7, 1.7)]
        h = PL([-1.1, 1.7, 3.7], [0.0, 1.0, 0.0], 1.0, -1.0)
        assert h.superlevel_intervals(1.0) == [(1.7, 1.7)]
        # b a hair above the low end: the crossing ratio rounds to 1
        assert PL([-0.5, 1.7], [1.0, 0.0]).sublevel_intervals(2.0**-60) == [(1.7, 1.7)]

    def test_min_max_total_variation(self):
        f = PL([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], -1.0, 1.0)
        assert f.min_max_on(-0.5, 2.0) == (0.0, 2.0)

    def test_min_max_matches_bruteforce(self, rng):
        # every breakpoint value in the range, flats and tails (sloped or
        # clamped) included, and ranges ending on breakpoints
        for case in range(300):
            k = int(rng.integers(1, 12))
            xs = np.sort(rng.choice(np.linspace(-5, 5, 41), size=k, replace=False))
            ys = rng.choice([-1.0, 0.0, 0.5, 1.0], size=k) if case % 2 else rng.uniform(-3, 3, size=k)
            slopes = (None, None) if case % 3 == 0 else tuple(rng.choice([-1.0, 0.0, 0.5], size=2))
            f = PL(xs, ys, *slopes)
            ends = rng.uniform(-8, 8, size=2) if case % 4 else rng.choice(xs, size=2)
            lo, hi = (float(e) for e in ends)
            a, b = min(lo, hi), max(lo, hi)
            values = [f(lo), f(hi)] + [y for x, y in zip(xs, ys) if a <= x <= b]
            assert f.min_max_on(lo, hi) == (min(values), max(values)), (xs, ys, slopes, lo, hi)

    def test_clamped_tails_on_a_domain(self):
        # without slopes, evaluation clamps beyond the breakpoints, and so
        # do the level sets once a domain reaches there
        f = PL([0.5, 1.5], [0.0, 1.0])
        assert f.sublevel_intervals(0.0, domain=(0.0, 2.0)) == [(0.0, 0.5)]
        assert f.superlevel_intervals(1.0, domain=(0.0, 2.0)) == [(1.5, 2.0)]
        assert f.sublevel_intervals(0.5, domain=(0.0, 2.0)) == [(0.0, 1.0)]

    def test_algebra_and_inverse(self):
        f = PL([0.0, 2.0], [0.0, 4.0], 1.0, 2.0)
        g = PL([1.0], [1.0], 0.0, 0.0)
        s = f + g
        assert s(1.5) == f(1.5) + 1.0
        inv = f.inverse()
        for x in (-1.0, 0.3, 1.9, 5.0):
            assert abs(inv(f(x)) - x) < 1e-12

    def test_compose(self):
        outer = PL([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], -1.0, 1.0)  # |y|
        inner = PL([0.0], [-2.0], 1.0, 1.0)  # x - 2
        comp = outer.compose(inner)
        for x in np.linspace(-3, 6, 41):
            assert abs(comp(x) - abs(x - 2.0)) < 1e-12

    def test_array_evaluation_is_the_scalar_rule(self):
        # an np.interp path for arrays differed from the scalar rule on 12,917
        # of these evaluations, by up to 7.1e-15
        specs = [get_fixture(name).build() for name in sorted(FIXTURES)]
        rng = np.random.default_rng(11)
        specs += [random_pl_spec(rng) for _ in range(40)]
        for spec in specs:
            for f in (spec.v0, spec.w0):
                xs = np.concatenate([np.linspace(f.xs[0] - 3, f.xs[-1] + 3, 2001), f.xs])
                scalar = np.array([f(x) for x in xs.tolist()])
                assert np.array_equal(f(xs).view(np.int64), scalar.view(np.int64))
                assert np.array_equal(f(xs.reshape(-1, 1)).ravel(), scalar)
        with pytest.raises(ValueError, match="nan"):
            specs[0].v0(np.array([0.0, math.nan]))

    @pytest.mark.parametrize("left, right, rising", [(1.0, 2.0, True), (0.0, 1.0, False), (1.0, -1.0, False), (None, None, True)])
    def test_tail_slopes_decide_strict_increase(self, left, right, rising):
        assert PL([0.0, 1.0], [0.0, 1.0], left, right).is_strictly_increasing() is rising

    def test_non_monotone_functions_are_refused(self):
        vee = PL([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], -1.0, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            vee.inverse()
        with pytest.raises(ValueError, match="monotone"):
            PL.linear(1.0).compose(vee)

    def test_compose_pulls_back_onto_the_tails(self):
        outer = PL([-5.0, 0.5, 5.0], [1.0, 0.0, 2.0], 0.0, 0.0)
        inner = PL([0.0, 1.0], [0.0, 1.0], 2.0, 0.5)
        comp = outer.compose(inner)
        assert comp.xs == (-2.5, 0.0, 0.5, 1.0, 9.0)
        for x in (-4.0, -2.5, 0.25, 3.0, 9.0, 12.0):
            assert abs(comp(x) - outer(inner(x))) < 1e-12

    @pytest.mark.parametrize(
        "inner_slope, outer_tails, composed",
        [(None, (1.0, 2.0), None), (0.0, (1.0, 2.0), 0.0), (1.0, (None, 2.0), None), (1.0, (3.0, 2.0), 3.0), (-1.0, (3.0, 2.0), -2.0)],
    )
    def test_compose_tail_slopes(self, inner_slope, outer_tails, composed):
        # the left tail of outer(inner(x)): inner heads down for a rising
        # inner and up for a falling one
        inner = PL([0.0, 1.0], [0.0, 1.0] if inner_slope != -1.0 else [1.0, 0.0], inner_slope, inner_slope)
        outer = PL([0.0, 1.0], [0.0, 1.0], *outer_tails)
        assert outer.compose(inner).left_slope == composed

    def test_compose_is_one_crossing_rule(self):
        # each pulled-back breakpoint is an end of an inner level interval
        rng = np.random.default_rng(25)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            xs = np.cumsum(rng.uniform(0.1, 2.0, n)) - 3.0
            steps = rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.2)  # some flats
            sign = rng.choice([-1.0, 1.0])
            ys = sign * (np.cumsum(steps) - 2.0)
            tails = [None if r < 0.25 else (0.0 if r < 0.35 else sign * rng.uniform(0.1, 3.0)) for r in rng.random(2)]
            inner = PL(xs, ys, *tails)
            oxs = np.unique(np.concatenate([rng.uniform(-4.0, 4.0, int(rng.integers(1, 6))), rng.choice(ys, 1)]))
            outer = PL(oxs, rng.uniform(-3.0, 3.0, len(oxs)), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            comp = outer.compose(inner)
            ends = {e for bp in outer.xs for ivl in inner.sublevel_intervals(bp) for e in ivl if math.isfinite(e)}
            assert set(comp.xs) <= set(inner.xs) | ends
            for x in np.linspace(comp.xs[0] - 5.0, comp.xs[-1] + 5.0, 101).tolist() + list(comp.xs):
                assert abs(comp(x) - outer(inner(x))) < 1e-12, (x, inner.xs, inner.ys, outer.xs)

    def test_sampler(self):
        f = PL.from_callable(lambda x: x * x, -2, 2, 401)
        assert abs(f(1.3) - 1.69) < 1e-4

    @pytest.mark.parametrize("n", [0, 1])
    def test_sampler_needs_two_breakpoints(self, n):
        # the end slopes read two samples at each end; fewer raised IndexError
        def f(x):
            raise AssertionError("sampled before n was checked")

        with pytest.raises(ValueError, match=f"n={n}"):
            PL.from_callable(f, -2, 2, n)


class TestDomain:
    def test_the_ends_decide_the_domain(self, wedge_spec):
        assert Domain(0.0, 1.0) == Domain.segment(0.0, 1.0) and Domain(0.0, 1.0).is_segment
        assert Domain() == Domain.whole_line() and not Domain().is_segment
        field = SolutionField(ProblemSpec(Domain(), wedge_spec.v0, wedge_spec.w0), tolerance=1e-12)
        reference = SolutionField(wedge_spec, tolerance=1e-12)
        for x, t in ((-3.0, 0.5), (0.5, 1.0), (4.0, 2.0)):
            assert field.eval_pair(x, t) == reference.eval_pair(x, t)
        assert abs(field.eval_v(-3.0, 0.5) - wedge_v_exact(-3.0, 0.5)) < 1e-10

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Domain(0.0, math.inf),
            lambda: Domain(1.0, 0.0),
            lambda: Domain(math.nan, 1.0),
            lambda: Domain.segment(-math.inf, math.inf),
        ],
        ids=["one-infinite-end", "reversed-ends", "nan-end", "segment-over-the-whole-line"],
    )
    def test_other_ends_raise(self, make):
        with pytest.raises(ValueError):
            make()


class TestValidate:
    def test_wedge_is_valid(self, wedge_spec):
        assert validate(wedge_spec).admissible

    def test_fully_frozen_segment_valid(self):
        f = PL([0.0, 1.0], [0.0, 1.0])
        spec = ProblemSpec(Domain.segment(0, 1), f, f)
        assert validate(spec).admissible

    def test_constant_violation(self):
        spec = ProblemSpec(Domain.whole_line(), PL.constant(0.0), PL.constant(1.0))
        rep = validate(spec)
        assert not rep.admissible
        assert any(i.code == "constraint" for i in rep.issues)

    def test_right_tail_violation(self):
        # v0 - w0 falls at rate 0.5 right of the last breakpoint
        v0 = PL([0.0, 1.0], [1.0, 2.0], 1.0, 1.0)
        w0 = PL([0.0, 1.0], [0.0, 1.0], 1.0, 1.5)
        rep = validate(ProblemSpec(Domain.whole_line(), v0, w0))
        assert [(i.code, i.message, i.location) for i in rep.issues] == [("constraint", "v0 < w0 on the right tail", math.inf)]

    def test_left_tail_violation(self):
        # v0 - w0 rises at rate 0.5 left to right of the first breakpoint, so
        # it falls below 0 left of x = -2
        v0 = PL([0.0, 1.0], [1.0, 2.0], 1.5, 1.0)
        w0 = PL([0.0, 1.0], [0.0, 1.0], 1.0, 1.0)
        rep = validate(ProblemSpec(Domain.whole_line(), v0, w0))
        assert [(i.code, i.message, i.location) for i in rep.issues] == [("constraint", "v0 < w0 on the left tail", -math.inf)]

    def test_boundary_equality_required(self):
        v0 = PL([0.0, 1.0], [0.5, 1.0])
        w0 = PL([0.0, 1.0], [0.0, 1.0])
        spec = ProblemSpec(Domain.segment(0, 1), v0, w0)
        assert any(i.code == "boundary" for i in validate(spec).issues)

    def test_flat_segments_flagged_not_fatal(self):
        v0 = PL([0.0, 1.0, 2.0], [1.0, 1.0, 2.0])
        w0 = PL([0.0, 2.0], [0.0, 0.0])
        spec = ProblemSpec(Domain.whole_line(), v0, w0)
        rep = validate(spec)
        assert not rep.admissible
        assert all(i.code == "flat_segment" for i in rep.issues)
        assert not rep.errors()
        SolutionField(spec)  # flats are processable

    def test_flat_segment_outside_the_segment_is_not_flagged(self):
        v0 = PL([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 2.0])
        w0 = PL([0.0, 1.0], [0.0, 1.0])
        assert validate(ProblemSpec(Domain.segment(0, 1), v0, w0)).admissible
        reaching = validate(ProblemSpec(Domain.segment(0, 2.5), v0, PL([0.0, 2.5], [0.0, 2.0])))
        assert [(i.code, i.location) for i in reaching.issues] == [("flat_segment", 2.0)]

    def test_repr(self):
        f = PL([0.0, 1.0], [0.0, 2.0], 0.5, 0.5)
        assert repr(ProblemSpec(Domain.segment(0, 1), f, f)) == "ProblemSpec(segment, 2+2 breakpoints, lam=2)"
        assert repr(ProblemSpec(Domain.whole_line(), f, PL.constant(0.0))) == "ProblemSpec(whole_line, 2+1 breakpoints, lam=2)"

    def test_lipschitz_constant_exact(self, wedge_spec):
        assert wedge_spec.lipschitz == 1.0
        v0 = PL([0.0, 1.0], [0.0, 2.5], -0.25, 4.0)
        spec = ProblemSpec(Domain.whole_line(), v0, v0)
        assert spec.lipschitz == 4.0


class TestMuSigma:
    def test_zero_case(self):
        ms = MuSigmaPair(PL.constant(0.0), PL.constant(0.0))
        v, w = to_vw(ms)
        assert v(3.0) == 0.0 and w(-1.0) == 0.0

    def test_direct_substitution(self):
        ms = MuSigmaPair(PL.linear(1.0), PL.constant(2.0))
        v, w = to_vw(ms)
        for x in (-2.0, 0.0, 1.7):
            assert abs(v(x) - (x / 2 + 1)) < 1e-12
            assert abs(w(x) - (x / 2 - 1)) < 1e-12

    def test_round_trip_exact_at_breakpoints(self, rng):
        mu = PL([-1.0, 0.5, 2.0], [1.0, -0.5, 3.0], 1.0, -1.0)
        sigma = PL([-1.0, 0.0, 2.0], [0.5, 1.5, 0.0], -0.5, 0.5)
        ms = MuSigmaPair(mu, sigma)
        v, w = to_vw(ms)
        back = from_vw(v, w)
        for x in list(mu.xs) + list(rng.uniform(-4, 4, size=100)):
            assert abs(back.mu(x) - mu(x)) < 1e-12
            assert abs(back.sigma(x) - sigma(x)) < 1e-12

    def test_from_vw_examples(self):
        # frozen data
        f = PL.linear(1.0)
        ms = from_vw(f, f)
        assert abs(ms.mu(2.0) - 4.0) < 1e-12 and ms.sigma(2.0) == 0.0
        # pointwise arithmetic, checked by independent evaluation
        v = PL([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], -1.0, 1.0)
        w = PL.linear(0.5)
        ms = from_vw(v, w)
        for x in (-2.0, -1.0, 0.0, 0.5, 3.0):
            assert abs(ms.mu(x) - (abs(x) + x / 2)) < 1e-12
            assert abs(ms.sigma(x) - (abs(x) - x / 2)) < 1e-12
        # constants
        ms = from_vw(PL.constant(1.0), PL.constant(0.0))
        assert ms.mu(0.0) == 1.0 and ms.sigma(0.0) == 1.0

    def test_from_vw_rejects_violation(self):
        with pytest.raises(ValueError):
            from_vw(PL.constant(0.0), PL.constant(1.0))


class TestInitialFromTerminal:
    def test_zero_line_instantly_frozen(self):
        T = PL.constant(0.0)
        f = PL.linear(1.0)
        spec = initial_from_terminal(T, f)
        for x in (-2.0, 0.0, 1.5):
            assert abs(spec.v0(x) - x) < 1e-12
            assert abs(spec.w0(x) - x) < 1e-12

    def test_constant_line(self):
        # T = c: v0 = x + c, w0 = x - c; freezes at t = c with common value x
        c = 0.75
        spec = initial_from_terminal(PL.constant(c), PL.linear(1.0))
        for x in (-1.0, 0.0, 2.0):
            assert abs(spec.v0(x) - (x + c)) < 1e-12
            assert abs(spec.w0(x) - (x - c)) < 1e-12
        field = SolutionField(spec, tolerance=1e-12)
        for x in (-0.5, 0.0, 1.0):
            v, w = field.eval_pair(x, c)
            assert abs(v - w) < 1e-9  # sigma vanishes on the freezing line
            assert abs(v - x) < 1e-9

    def test_vee_line_by_solver_round_trip(self):
        T = PL([0.0], [0.0], -0.5, 0.5)  # |x| / 2
        spec = initial_from_terminal(T, PL.linear(1.0))
        assert validate(spec).admissible
        field = SolutionField(spec, tolerance=1e-12)
        for x in (-2.0, -0.5, 0.0, 0.7, 1.5):
            tx = abs(x) / 2
            v, w = field.eval_pair(x, tx + 0.25)
            assert abs(v - w) < 1e-9
            assert abs(v - x) < 1e-9

    def test_preconditions(self):
        with pytest.raises(ValueError):
            initial_from_terminal(PL.linear(1.0), PL.linear(1.0))  # slope 1 not < 1
        with pytest.raises(ValueError):
            initial_from_terminal(PL.constant(-1.0), PL.linear(1.0))
        with pytest.raises(ValueError):
            initial_from_terminal(PL.constant(1.0), PL.constant(0.0))  # f not increasing

    def test_random_freezing_lines(self, rng):
        # arbitrary admissible freezing lines: output validates and the
        # solver's dispersion vanishes on the line
        for _ in range(6):
            k = rng.integers(2, 6)
            xs = np.sort(rng.uniform(-3, 3, size=k))
            while k > 1 and np.min(np.diff(xs)) < 0.1:
                xs = np.sort(rng.uniform(-3, 3, size=k))
            slopes = rng.uniform(-0.9, 0.9, size=k + 1)
            ys = [float(rng.uniform(0.1, 1.5))]
            for s, (a, b) in zip(slopes[1:-1], zip(xs, xs[1:])):
                ys.append(ys[-1] + s * (b - a))
            ys = np.maximum(np.array(ys), 0.0)
            T = PL(xs, ys, float(abs(slopes[0])) * -1.0, float(abs(slopes[-1])))
            f = PL.linear(float(rng.uniform(0.3, 2.0)), float(rng.uniform(-1, 1)))
            spec = initial_from_terminal(T, f)
            assert validate(spec).admissible
            field = SolutionField(spec, tolerance=1e-11)
            for x in rng.uniform(-2.5, 2.5, size=4):
                tx = T(float(x))
                v, w = field.eval_pair(float(x), tx + 0.1)
                assert abs(v - w) < 1e-8
                assert abs(v - f(float(x))) < 1e-8


class TestJson:
    def test_round_trip(self, wedge_spec, tmp_path):
        obj = spec_to_json(wedge_spec)
        back = spec_from_json(json.loads(json.dumps(obj)))
        assert back.v0.xs == wedge_spec.v0.xs
        assert back.w0.left_slope == wedge_spec.w0.left_slope

    def test_round_trip_on_a_segment(self, tent_spec):
        obj = json.loads(json.dumps(spec_to_json(tent_spec)))
        dom = tent_spec.domain
        assert obj["domain"] == {"kind": "segment", "a1": dom.a1, "a2": dom.a2}
        back = spec_from_json(obj)
        assert back.domain.is_segment and (back.domain.a1, back.domain.a2) == (dom.a1, dom.a2)
        for f, g in ((back.v0, tent_spec.v0), (back.w0, tent_spec.w0)):
            assert (f.xs, f.ys, f.left_slope, f.right_slope) == (g.xs, g.ys, g.left_slope, g.right_slope)

    def test_mu_sigma_form(self):
        obj = {
            "domain": {"kind": "whole_line"},
            "mu_sigma": True,
            "mu": {"breakpoints": [0.0], "values": [0.0], "left_slope": 1.0, "right_slope": 1.0},
            "sigma": {"breakpoints": [0.0], "values": [2.0], "left_slope": 0.0, "right_slope": 0.0},
        }
        spec = spec_from_json(obj)
        assert abs(spec.v0(2.0) - 2.0) < 1e-12
        assert abs(spec.w0(2.0) - 0.0) < 1e-12
