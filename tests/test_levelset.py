import math

import numpy as np
import pytest

from freezeflow import (
    Domain,
    PiecewiseLinear,
    ProblemSpec,
    SolutionField,
    alpha_v,
    alpha_w,
    get_fixture,
    random_pl_spec,
    sublevel_set,
    superlevel_set,
)
from freezeflow.fixtures import wedge_v_exact, wedge_w_exact
from freezeflow.levelset import extended_level_sets

PL = PiecewiseLinear
INF = math.inf


def _mirror_pl(f):
    # x -> -f(-x): the extension slopes swap ends and keep their values
    return PL([-x for x in reversed(f.xs)], [-y for y in reversed(f.ys)], f.right_slope, f.left_slope)


def mirrored_spec(spec):
    """v0'(x) = -w0(-x), w0'(x) = -v0(-x) on the reflected domain."""
    dom = spec.domain
    domain = Domain.segment(-dom.a2, -dom.a1) if dom.is_segment else dom
    return ProblemSpec(domain, _mirror_pl(spec.w0), _mirror_pl(spec.v0))


def translation_spec():
    # v0 = x, w0 = x - 10: pure approach, full annihilation at t = 5
    return ProblemSpec(Domain.whole_line(), PL.linear(1.0), PL([0.0], [-10.0], 1.0, 1.0))


class TestAlpha:
    def test_wedge_hand_integration(self, wedge_spec):
        # sublevel [-1,1], superlevel [2,inf): running integral stays >= 0
        # until y = 3, then goes negative
        assert alpha_v(wedge_spec, 1.0, 0.0) == 3.0

    def test_never_matched_is_plus_inf(self):
        v0 = PL([0.0], [0.0], -1.0, 1.0)
        w0 = PL([0.0], [-1.0], 1.0, -1.0)  # -|x| - 1: superlevel empty
        spec = ProblemSpec(Domain.whole_line(), v0, w0)
        assert alpha_v(spec, 0.0, 0.0) == INF

    def test_translation_pair(self):
        spec = translation_spec()
        # sublevel (-inf, 0], superlevel [10, inf): zero integral on [0, 10]
        assert alpha_v(spec, 0.0, 0.0) == 10.0
        assert alpha_w(spec, 0.0, 10.0) == 0.0

    def test_alpha_w_never_positive_is_minus_inf(self):
        v0 = PL([0.0], [0.0], -1.0, 1.0)
        w0 = PL([0.0], [-1.0], 1.0, -1.0)
        spec = ProblemSpec(Domain.whole_line(), v0, w0)
        for x in (-3.0, 0.0, 5.0):
            assert alpha_w(spec, 0.0, x) == -INF

    def test_wedge_mirror(self, wedge_spec):
        assert alpha_w(wedge_spec, 1.0, 3.0) == 0.0

    def test_slice_survival_matches_direct_alpha(self, rng):
        # the survival structure is built by inverting the integrand profile;
        # the pointwise scan is an independent implementation of the same
        # quantity, so t_max(x) = (alpha_v(b,x) - x)/2 must agree exactly
        from freezeflow.levelset import _LevelPair

        for _ in range(12):
            spec = random_pl_spec(rng)
            lo, hi = spec.breakpoint_span()
            v_lo, v_hi = spec.v0.min_max_on(lo, hi)
            for b in rng.uniform(v_lo - 0.5, v_hi + 0.5, size=3):
                pair = _LevelPair(spec, float(b))
                sl = pair.vslice()
                for (p, q, pieces, c_end) in sl.components:
                    if not (math.isfinite(p) and math.isfinite(q)) or q <= p:
                        continue
                    for frac in (0.15, 0.5, 0.95):
                        x = p + frac * (q - p)
                        a = alpha_v(spec, float(b), x)
                        t_max = (a - x) / 2.0 if math.isfinite(a) else INF
                        probe = min(t_max * 0.999, 1e6)
                        assert sl.membership(x, probe) or t_max == 0.0
                        if math.isfinite(t_max):
                            assert not sl.membership(x, t_max * 1.001 + 1e-12)

    def test_duality_interior_points(self, wedge_spec, rng):
        # y = alpha_v(b, x) iff x = alpha_w(b, y), away from endpoint ties
        specs = [wedge_spec, translation_spec()] + [random_pl_spec(rng) for _ in range(10)]
        for spec in specs:
            lo, hi = spec.breakpoint_span()
            v_lo, v_hi = spec.v0.min_max_on(lo, hi)
            for b in rng.uniform(v_lo, v_hi + 1.0, size=4):
                blue, _ = extended_level_sets(spec, b)
                for lo_c, hi_c in blue:
                    if not (math.isfinite(lo_c) and math.isfinite(hi_c)) or hi_c <= lo_c:
                        continue
                    x = lo_c + 0.37 * (hi_c - lo_c)
                    y = alpha_v(spec, b, x)
                    if math.isfinite(y):
                        assert abs(alpha_w(spec, b, y) - x) < 1e-9


class TestLevelSets:
    def test_t0_identity(self, wedge_spec):
        assert sublevel_set(wedge_spec, 1.0, 0.0).intervals == ((-1.0, 1.0),)
        assert superlevel_set(wedge_spec, 1.0, 0.0).intervals == ((2.0, INF),)

    def test_wedge_survival_cutoff(self, wedge_spec):
        # alpha(b=1, x) = 3 - x on [-1, 1]: survival t <= (3 - 2x)/2, so at
        # t = 2 only x <= -1/2 remains, transported to [1, 1.5]
        assert sublevel_set(wedge_spec, 1.0, 2.0).intervals == ((1.0, 1.5),)
        sup = superlevel_set(wedge_spec, 1.0, 2.0)
        assert sup.intervals == ((1.5, INF),)

    def test_translation_full_annihilation(self):
        spec = translation_spec()
        assert sublevel_set(spec, 0.0, 6.0).intervals == ((-INF, 5.0),)
        assert superlevel_set(spec, 0.0, 6.0).intervals == ((5.0, INF),)

    def test_superlevel_empty_when_w_below(self):
        v0 = PL([0.0], [0.0], -1.0, 1.0)
        w0 = PL([0.0], [-1.0], 1.0, -1.0)
        spec = ProblemSpec(Domain.whole_line(), v0, w0)
        assert not superlevel_set(spec, 0.0, 1.0)

    def test_monotone_in_level(self, rng):
        for spec in [random_pl_spec(rng) for _ in range(8)]:
            lo, hi = spec.breakpoint_span()
            w_lo, _ = spec.w0.min_max_on(lo, hi)
            _, v_hi = spec.v0.min_max_on(lo, hi)
            bs = sorted(rng.uniform(w_lo - 1, v_hi + 1, size=3))
            for t in (0.0, 0.7, 2.1):
                subs = [sublevel_set(spec, b, t) for b in bs]
                sups = [superlevel_set(spec, b, t) for b in bs]
                for small, big in zip(subs, subs[1:]):
                    assert small.intersect(big).symmetric_difference_measure(small) < 1e-9
                for big, small in zip(sups, sups[1:]):
                    assert small.intersect(big).symmetric_difference_measure(small) < 1e-9

    def test_difference_constant_on_segment(self, tent_spec):
        # annihilation at equal rates: the sub/super measure difference is
        # constant even though boundary feeders keep pouring mass in
        for b in (-0.6, -0.1, 0.4, 0.8):
            diffs = []
            for t in (0.0, 0.3, 0.7, 1.2, 2.0, 4.0):
                m_sub = sublevel_set(tent_spec, b, t).measure()
                m_sup = superlevel_set(tent_spec, b, t).measure()
                diffs.append(m_sub - m_sup)
            assert max(diffs) - min(diffs) < 1e-12

    def test_sum_non_increasing_for_compact_sets(self):
        # with both level sets bounded (no tails, no feeders), translation
        # preserves measure and annihilation strictly removes it, so the sum
        # of measures is non-increasing while the difference stays constant
        v0 = PL([0.0], [0.0], -1.0, 1.0)
        w0 = PL([1.0], [0.5], 1.0, -1.0)  # 0.5 - |x - 1|
        spec = ProblemSpec(Domain.whole_line(), v0, w0)
        for b in (0.05, 0.2, 0.4):
            sums, diffs = [], []
            for t in (0.0, 0.2, 0.5, 1.0, 2.0):
                m_sub = sublevel_set(spec, b, t).measure()
                m_sup = superlevel_set(spec, b, t).measure()
                sums.append(m_sub + m_sup)
                diffs.append(m_sub - m_sup)
            assert max(diffs) - min(diffs) < 1e-12
            assert all(later <= earlier + 1e-12 for earlier, later in zip(sums, sums[1:]))


class TestEval:
    @pytest.mark.parametrize(
        "x,t,expected",
        [(4.0, 1.0, 3.0), (0.0, 1.0, 1.0), (1.0, 1.0, 2.0 / 3.0)],
    )
    def test_v_closed_form_points(self, wedge_field, x, t, expected):
        assert abs(wedge_field.eval_v(x, t) - expected) < 1e-9

    @pytest.mark.parametrize(
        "x,t,expected",
        [(0.0, 1.0, 0.25), (-2.0, 1.0, -0.5), (1.0, 1.0, 2.0 / 3.0)],
    )
    def test_w_closed_form_points(self, wedge_field, x, t, expected):
        assert abs(wedge_field.eval_w(x, t) - expected) < 1e-9

    def test_initial_condition_reproduction(self, wedge_field, wedge_spec):
        for x in np.linspace(-4, 4, 17):
            assert abs(wedge_field.eval_v(x, 0.0) - wedge_spec.v0(x)) < 1e-9
            assert abs(wedge_field.eval_w(x, 0.0) - wedge_spec.w0(x)) < 1e-9

    def test_grid_matches_pointwise(self, wedge_field):
        xs = [0.3]
        ts = [0.9]
        V, W = wedge_field.eval_grid(xs, ts)
        assert V[0, 0] == wedge_field.eval_v(0.3, 0.9, wedge_field._bracket(0.3, 0.9))
        # and against the closed form on a denser grid
        xs = np.linspace(-5, 5, 41)
        ts = np.linspace(0, 2, 11)
        V, W = wedge_field.eval_grid(xs, ts)
        assert np.max(np.abs(V - wedge_v_exact(xs[None, :], ts[:, None]))) < 1e-9
        assert np.max(np.abs(W - wedge_w_exact(xs[None, :], ts[:, None]))) < 1e-9

    def test_constraint_and_sigma_nonnegative(self, wedge_field):
        xs = np.linspace(-3, 3, 31)
        ts = np.linspace(0, 2, 9)
        V, W = wedge_field.eval_grid(xs, ts)
        assert np.all(V - W >= -2e-9)

    def test_outside_domain_rejected(self, tent_field):
        with pytest.raises(ValueError):
            tent_field.eval_v(3.0, 0.5)
        with pytest.raises(ValueError):
            tent_field.eval_v(1.0, -0.5)

    def test_instant_thaw_degenerate(self):
        # v0 = w0 = -x strictly decreasing: sets pass through each other
        f = PL([0.0], [0.0], -1.0, -1.0)
        field = SolutionField(ProblemSpec(Domain.whole_line(), f, f), tolerance=1e-12)
        for x, t in ((0.0, 1.0), (2.0, 0.5), (-1.0, 2.0)):
            assert abs(field.eval_v(x, t) - (t - x)) < 1e-9
            assert abs(field.eval_w(x, t) - (-x - t)) < 1e-9

    def test_segment_boundary_reflection(self, tent_field):
        # left boundary emits v with the arriving w values: v(x,t) = x - t
        # below the reflected fan (hand transport computation)
        assert abs(tent_field.eval_v(0.2, 0.6) - (-0.4)) < 1e-9
        assert abs(tent_field.eval_w(1.8, 0.6) - 0.4) < 1e-9

    def test_lipschitz_in_space_time(self, rng):
        for spec in [random_pl_spec(rng) for _ in range(6)]:
            field = SolutionField(spec, tolerance=1e-10)
            lam = spec.lipschitz
            lo, hi = spec.breakpoint_span()
            tol = field.zone_epsilon() / 5.0
            for _ in range(25):
                if spec.domain.is_segment:
                    x, y = rng.uniform(spec.domain.a1, spec.domain.a2, size=2)
                else:
                    x, y = rng.uniform(lo - 1, hi + 1, size=2)
                s, t = rng.uniform(0, 3, size=2)
                bound = lam * (abs(x - y) + abs(s - t)) + 2 * tol
                assert abs(field.eval_v(x, t) - field.eval_v(y, s)) <= bound
                assert abs(field.eval_w(x, t) - field.eval_w(y, s)) <= bound

    def test_time_shift_consistency(self, wedge_field, wedge_spec):
        # resample the slice at s and solve forward; agrees within the
        # resampling error bound lambda * spacing
        s, t = 0.5, 1.5
        xs = np.linspace(-6, 6, 1201)
        spacing = xs[1] - xs[0]
        V, W = wedge_field.eval_grid(xs, [s])
        v_s = PL(xs, V[0], -1.0, 1.0)
        w_s = PL(xs, W[0], 0.5, 0.5)
        shifted = SolutionField(ProblemSpec(Domain.whole_line(), v_s, w_s), tolerance=1e-10, strict=False)
        lam = wedge_spec.lipschitz
        for x in np.linspace(-2, 4, 13):
            direct = wedge_field.eval_v(x, t)
            stepped = shifted.eval_v(x, t - s)
            assert abs(direct - stepped) <= lam * spacing + 1e-6

    @pytest.mark.parametrize(
        "source", ["wedge", "tent", "seg-tent", "downhill", "random-segment", "random-line"]
    )
    def test_mirrored_problem_swaps_v_and_w(self, source):
        # w is v of the mirrored problem: w(x, t) = -v'(-x, t) and
        # v(x, t) = -w'(-x, t), the reflection the w-side inversion relies on
        if source.startswith("random"):
            rng = np.random.default_rng(41)
            specs = [random_pl_spec(rng, segment=source == "random-segment") for _ in range(4)]
        else:
            specs = [get_fixture(source).build()]
        rng = np.random.default_rng(20241018)
        for spec in specs:
            field = SolutionField(spec, tolerance=1e-10)
            mirror = SolutionField(mirrored_spec(spec), tolerance=1e-10)
            bound = field.zone_epsilon() / 5  # twice the scaled tolerance
            lo, hi = spec.breakpoint_span()
            if not spec.domain.is_segment:
                lo, hi = lo - 1.0, hi + 1.0
            for x, t in zip(rng.uniform(lo, hi, size=20), rng.uniform(0.0, 3.0, size=20)):
                assert abs(field.eval_w(x, t) + mirror.eval_v(-x, t)) <= bound, (x, t)
                assert abs(field.eval_v(x, t) + mirror.eval_w(-x, t)) <= bound, (x, t)


def bisection_reference(field, x, t, bracket, reflected):
    """Plain bisection in b as the inversion loop used to run it: the same
    padded bracket and step cap, one uncached level pair per probe."""
    from freezeflow.levelset import _MAX_BISECT, _LevelPair

    lo, hi = bracket if bracket is not None else field._bracket(x, t)
    tol = field.tolerance * max(1.0, hi - lo)
    pad = 1e-9 * (1.0 + abs(lo) + abs(hi)) + 4.0 * tol
    lo -= pad
    hi += pad
    if reflected:
        x0, side = -(field._nudge(x) + t), _LevelPair.wslice
    else:
        x0, side = field._nudge(x) - t, _LevelPair.vslice
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if side(_LevelPair(field.spec, mid)).membership(x0, t) != reflected:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _query_points(spec, rng, n=12):
    """Random (x, t) plus t = 0 and, on a segment, both exact ends."""
    lo, hi = spec.breakpoint_span()
    if not spec.domain.is_segment:
        lo, hi = lo - 1.0, hi + 1.0
    xs = rng.uniform(lo, hi, size=n)
    ts = rng.uniform(0.0, 3.0, size=n)
    pts = [(float(x), float(t)) for x, t in zip(xs, ts)]
    pts += [(float(x), 0.0) for x in xs[:3]]
    if spec.domain.is_segment:
        for t in (0.0, float(ts[0]), float(ts[1])):
            pts += [(spec.domain.a1, t), (spec.domain.a2, t)]
    return pts


def _mirrored_problem_specs():
    specs = [get_fixture(name).build() for name in ("wedge", "tent", "seg-tent", "downhill")]
    rng = np.random.default_rng(41)
    specs += [random_pl_spec(rng, segment=seg) for seg in (True, False) for _ in range(4)]
    return specs + [mirrored_spec(s) for s in specs]


class TestInversion:
    """The steered inversion returns plain bisection's value, exactly."""

    def test_criterion_1_grid_equals_bisection(self):
        field = SolutionField(get_fixture("wedge").build(), tolerance=1e-9)
        xs = np.linspace(-5.0, 5.0, 201)
        ts = np.linspace(0.0, 2.0, 101)
        V, W = field.eval_grid(xs, ts)
        bracket = field._value_range(-7.0, 7.0)  # eval_grid's shared bracket
        for i in range(0, 101, 10):
            for j in range(0, 201, 8):
                x, t = float(xs[j]), float(ts[i])
                assert V[i, j] == bisection_reference(field, x, t, bracket, False), (x, t)
                assert W[i, j] == bisection_reference(field, x, t, bracket, True), (x, t)

    @pytest.mark.parametrize("source", ["mirrored", "random"])
    def test_values_equal_bisection(self, source):
        rng = np.random.default_rng(20261018)
        if source == "mirrored":
            specs = _mirrored_problem_specs()
        else:
            specs = [random_pl_spec(rng, segment=k % 2 == 0) for k in range(12)]
        for spec in specs:
            field = SolutionField(spec, tolerance=1e-10)
            for x, t in _query_points(spec, rng):
                assert field.eval_v(x, t) == bisection_reference(field, x, t, None, False), (spec, x, t)
                assert field.eval_w(x, t) == bisection_reference(field, x, t, None, True), (spec, x, t)

    def test_residual_only_steers(self, monkeypatch):
        # a residual of seeded noise may cost probes, never change a value
        from freezeflow.levelset import _MAX_BISECT, _LevelSlice

        noise = np.random.default_rng(7)
        monkeypatch.setattr(_LevelSlice, "residual", lambda self, x0, t: float(noise.normal()))
        probes = []
        membership = _LevelSlice.membership

        def counted(self, x0, t):
            probes[-1] += 1
            return membership(self, x0, t)

        monkeypatch.setattr(_LevelSlice, "membership", counted)
        rng = np.random.default_rng(11)
        specs = [get_fixture("wedge").build(), get_fixture("tent").build()]
        specs += [random_pl_spec(rng, segment=seg) for seg in (True, False) for _ in range(2)]
        for spec in specs:
            field = SolutionField(spec, tolerance=1e-10)
            for x, t in _query_points(spec, rng, n=8):
                for reflected in (False, True):
                    probes.append(0)
                    value = field._invert(x, t, None, reflected)
                    assert probes[-1] <= 2 * _MAX_BISECT + 1
                    assert value == bisection_reference(field, x, t, None, reflected), (spec, x, t)

    def test_criterion_1_grid_probes_per_eval(self, monkeypatch):
        from freezeflow.levelset import _LevelSlice

        probes = [0]
        membership = _LevelSlice.membership

        def counted(self, x0, t):
            probes[0] += 1
            return membership(self, x0, t)

        monkeypatch.setattr(_LevelSlice, "membership", counted)
        field = SolutionField(get_fixture("wedge").build(), tolerance=1e-9)
        V, W = field.eval_grid(np.linspace(-5.0, 5.0, 201), np.linspace(0.0, 2.0, 101))
        assert probes[0] / (V.size + W.size) <= 6.0  # plain bisection takes 34

    def test_tiny_tolerance_stops_at_the_step_cap(self, wedge_spec):
        # h - l stops shrinking long before 1e-300; only the cap ends the walk
        field = SolutionField(wedge_spec, tolerance=1e-300)
        for x, t, expected in ((4.0, 1.0, 3.0), (1.0, 1.0, 2.0 / 3.0), (0.0, 0.5, 0.5)):
            value = field.eval_v(x, t)
            assert abs(value - expected) < 1e-12
            assert value == bisection_reference(field, x, t, None, False)
        assert field.eval_w(0.0, 1.0) == bisection_reference(field, 0.0, 1.0, None, True)
