import math
from functools import partial

import numpy as np
import pytest

from freezeflow import (
    Domain,
    IntervalUnion,
    PiecewiseLinear,
    ProblemSpec,
    SolutionField,
    alpha_v,
    alpha_w,
    get_fixture,
    random_pl_spec,
    sublevel_set,
    superlevel_set,
    trace_backward_v,
    trace_forward_v,
    trace_forward_w,
)
from freezeflow.fixtures import FIXTURES, wedge_v_exact, wedge_w_exact
from freezeflow import levelset
from freezeflow.levelset import _front, _front_table, _LevelPair, _padded, extended_level_sets
from test_set_assembly import edge_spec, signed

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
                sl = pair.slice(0)
                for (p, q, pieces, end) in sl.components:
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

    def test_membership_is_containment_in_survivors(self):
        # a probe and a set query read the same front, so they agree at
        # every label, ties on a survivor end included
        from freezeflow.fixtures import FIXTURES
        from freezeflow.levelset import _LevelPair

        ramp = _LevelPair(get_fixture("frozen-ramp").build(), 0.5).slice(0)
        assert ramp.survivors(0.1) == [(-INF, 0.4)]
        assert ramp.membership(0.4, 0.1)  # (0.5 + 0.1 - 0.4) * 0.5 rounds below 0.1
        rng = np.random.default_rng(8)
        specs = [get_fixture(name).build() for name in FIXTURES]
        specs += [random_pl_spec(rng, segment=k % 2 == 0) for k in range(24)]
        for spec in specs:
            lo, hi = spec.breakpoint_span()
            reach = max(abs(lo), abs(hi)) + 2.0  # labels of both slices, reflected ones too
            w_lo, _ = spec.w0.min_max_on(lo, hi)
            _, v_hi = spec.v0.min_max_on(lo, hi)
            for b in rng.uniform(w_lo - 0.5, v_hi + 0.5, size=6):
                pair = _LevelPair(spec, float(b))
                for sl in (pair.slice(0), pair.slice(1)):
                    for t in (0.0, *rng.uniform(0.0, 3.0, size=4)):
                        survivors = sl.survivors(t)
                        union = IntervalUnion(survivors)
                        ends = [e for iv in survivors for e in iv if math.isfinite(e)]
                        xs = [float(x) for x in rng.uniform(-reach, reach, size=20)]
                        xs += ends + [math.nextafter(e, INF) for e in ends]
                        for x in xs:
                            assert sl.membership(x, t) == union.contains(x), (spec, b, t, x)

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

    # a nan level used to fail with KeyError on wedge and return [0, 0.5]
    # and [0.5, 1] on seg-tent (alpha_v 1.0); a nan or infinite time gave
    # the empty set
    @pytest.mark.parametrize(
        "b,t,match",
        [
            (math.nan, 0.5, "b must not be nan"),
            (0.5, math.nan, "t must be finite and nonnegative, got nan"),
            (0.5, math.inf, "t must be finite and nonnegative, got inf"),
        ],
        ids=["nan-b", "nan-t", "inf-t"],
    )
    @pytest.mark.parametrize("name", ["wedge", "seg-tent"])
    def test_set_queries_reject_bad_input(self, name, b, t, match):
        spec = get_fixture(name).build()
        field = SolutionField(spec)
        queries = [partial(sublevel_set, spec), partial(superlevel_set, spec), field.sublevel_set, field.superlevel_set]
        if b != b:  # alpha_v(spec, b, x) reads the level the same way
            queries += [partial(alpha_v, spec), partial(alpha_w, spec)]
        for query in queries:
            with pytest.raises(ValueError, match=match):
                query(b, t)


def _count_levels(monkeypatch):
    """The levels b at which ``extended_level_sets`` runs, one per level built."""
    built = []
    real = levelset.extended_level_sets

    def counted(spec, b):
        built.append(b)
        return real(spec, b)

    monkeypatch.setattr(levelset, "extended_level_sets", counted)
    return built


def _module_set(spec, b, t, side):
    return (superlevel_set if side else sublevel_set)(spec, b, t)


def _field_set(field, b, t, side):
    return (field.superlevel_set if side else field.sublevel_set)(b, t)


class TestSetLevelSlot:
    """A field keeps only the levels its latest query built (the slot,
    ``_last``), so A(v,b,t) and A(w,b,t) asked in turn build one level."""

    @pytest.mark.parametrize("order", [(0, 1), (1, 0), (0, 0)], ids=["sub-super", "super-sub", "sub-sub"])
    def test_field_equals_module_in_any_order(self, order):
        rng = np.random.default_rng(4100)
        specs = [get_fixture(name).build() for name in ("wedge", "seg-tent", "parabolas")]
        specs += [random_pl_spec(rng, segment=bool(i % 2)) for i in range(4)]
        for spec in specs:
            field = SolutionField(spec)
            lo, hi = spec.breakpoint_span()
            w_lo, _ = spec.w0.min_max_on(lo, hi)
            _, v_hi = spec.v0.min_max_on(lo, hi)
            for b in rng.uniform(w_lo - 1.0, v_hi + 1.0, size=6).tolist():
                ts = rng.uniform(0.0, 3.0, size=2).tolist()
                got = [signed(_field_set(field, b, t, side)) for t, side in zip(ts, order)]
                want = [signed(_module_set(spec, b, t, side)) for t, side in zip(ts, order)]
                assert got == want, (spec, b, ts, order)

    def test_interleaved_levels(self, monkeypatch):
        spec = get_fixture("seg-tent").build()
        field = SolutionField(spec)
        queries = [(0.3, 0.5, 0), (0.7, 0.5, 0), (0.3, 1.5, 1), (0.3, 0.25, 0)]
        want = [signed(_module_set(spec, b, t, side)) for b, t, side in queries]
        built = _count_levels(monkeypatch)
        assert [signed(_field_set(field, b, t, side)) for b, t, side in queries] == want
        # the field keeps 0.7 when super at 0.3 comes, so that builds 0.3
        # again, and only the last query reuses a level
        assert built == [0.3, 0.7, 0.3]

    def test_signed_zero_is_another_level(self, monkeypatch):
        for segment in (False, True):
            spec = edge_spec("zeros", segment)
            field = SolutionField(spec, strict=False)
            want = [signed(_module_set(spec, b, 1.0, side)) for b, side in ((0.0, 0), (-0.0, 1))]
            built = _count_levels(monkeypatch)
            got = [signed(field.sublevel_set(0.0, 1.0)), signed(field.superlevel_set(-0.0, 1.0))]
            assert got == want
            assert signed(built) == signed([0.0, -0.0])
            monkeypatch.undo()

    def test_an_int_b_is_another_level(self, monkeypatch):
        # a level keeps the b it was built at, so 1 and 1.0 share none
        spec = get_fixture("wedge").build()
        field = SolutionField(spec)
        built = _count_levels(monkeypatch)
        got = [signed(field.sublevel_set(1, 1.0)), signed(field.superlevel_set(1.0, 1.0))]
        assert [type(b) for b in built] == [int, float]
        monkeypatch.undo()
        assert got == [signed(_module_set(spec, b, 1.0, side)) for b, side in ((1, 0), (1.0, 1))]

    def test_pair_builds_one_level_and_empties_the_slot(self, monkeypatch):
        field = SolutionField(get_fixture("wedge").build())
        built = _count_levels(monkeypatch)
        field.sublevel_set(0.5, 1.0)
        assert [level.b for level in field._last.values()] == [0.5]
        field.superlevel_set(0.5, 2.0)  # the level does not depend on t
        assert built == [0.5]
        assert field._last == {}  # a level the query only reused is not kept
        field.superlevel_set(0.5, 2.0)  # so this builds it again
        assert built == [0.5, 0.5]
        assert [level.b for level in field._last.values()] == [0.5]

    @pytest.mark.parametrize(
        "b,t",
        [(math.nan, 1.0), (0.5, math.nan), (0.5, math.inf), (0.5, -1.0), (0.7, math.nan)],
        ids=["nan-b", "nan-t", "inf-t", "negative-t", "bad-t-at-another-b"],
    )
    def test_bad_input_leaves_the_slot(self, monkeypatch, b, t):
        field = SolutionField(get_fixture("seg-tent").build())
        field.sublevel_set(0.5, 1.0)
        kept = field._last
        level = kept[0.5]
        for side in (0, 1):
            with pytest.raises(ValueError):
                _field_set(field, b, t, side)
            assert field._last is kept and kept == {0.5: level}
        built = _count_levels(monkeypatch)
        field.superlevel_set(0.5, 1.0)
        assert built == [] and field._last == {}


class TestBrackets:
    """Every bracket bisection starts from is an interval whose padded ends
    can be summed without overflow, so every midpoint is finite."""

    def test_point_bracket_too_wide_for_a_midpoint(self, wedge_spec):
        # both ends of the final cell lie near 1e308: the midpoint used to be inf
        field = SolutionField(wedge_spec)
        for query in (field.eval_v, field.eval_w, field.eval_pair):
            with pytest.raises(ValueError, match="midpoint"):
                query(0.5, 1e308)
        assert field._last == {}

    def test_trace_bracket_too_wide_for_a_midpoint(self, wedge_spec):
        with pytest.raises(ValueError, match="midpoint"):
            trace_backward_v(SolutionField(wedge_spec), 0.5, 1e308, dt=1e306)

    def test_grid_bracket_too_wide_for_a_midpoint(self, wedge_spec):
        with pytest.raises(ValueError, match="midpoint"):
            SolutionField(wedge_spec).eval_grid([0.0, 1.0], [0.0, 1e308])

    @pytest.mark.parametrize(
        "bracket",
        [(1.0, 0.0), (math.nan, 1.0), (0.0, math.nan), (-INF, 1.0), (0.0, INF), (-1e308, 1e308)],
        ids=["reversed", "nan-lo", "nan-hi", "inf-lo", "inf-hi", "too-wide"],
    )
    def test_bad_user_bracket(self, wedge_spec, bracket):
        # these raised "math domain error" or returned nan
        field = SolutionField(wedge_spec)
        for query in (field.eval_v, field.eval_w):
            with pytest.raises(ValueError, match="value bracket"):
                query(1.0, 1.0, bracket)


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
        assert V[0, 0] == wedge_field.eval_v(0.3, 0.9, wedge_field._value_range(0.3 - 0.9, 0.3 + 0.9))
        # and against the closed form on a denser grid
        xs = np.linspace(-5, 5, 41)
        ts = np.linspace(0, 2, 11)
        V, W = wedge_field.eval_grid(xs, ts)
        assert np.max(np.abs(V - wedge_v_exact(xs[None, :], ts[:, None]))) < 1e-9
        assert np.max(np.abs(W - wedge_w_exact(xs[None, :], ts[:, None]))) < 1e-9

    @pytest.mark.parametrize(
        "name, x, t", [("wedge", 0.3, 0.9), ("wedge", -4.0, 2.5), ("tent", 0.0, 0.5), ("tent", 2.0, 1.3), ("seg-tent", 1.0, 3.0)]
    )
    def test_queries_read_the_value_range_of_their_triangle(self, name, x, t):
        # a query's default bracket is the data's value range over
        # [x - t, x + t] within the domain, for points, pairs and grids
        field = SolutionField(get_fixture(name).build())
        bracket = field._value_range(x - t, x + t)
        v, w = field.eval_v(x, t, bracket), field.eval_w(x, t, bracket)
        V, W = field.eval_grid([x], [t])
        assert (field.eval_v(x, t), field.eval_w(x, t)) == field.eval_pair(x, t) == (v, w) == (V[0, 0], W[0, 0])

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

    def test_non_finite_query_rejected(self, wedge_field):
        # the whole line contains every x, so these used to return nan or
        # fail with IndexError inside the inversion
        for ev in (wedge_field.eval_v, wedge_field.eval_w):
            for x, t in ((math.inf, 0.1), (0.0, math.inf), (math.nan, 0.1), (0.0, math.nan)):
                with pytest.raises(ValueError, match="finite"):
                    ev(x, t)

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

    lo, hi = bracket if bracket is not None else field._value_range(x - t, x + t)
    tol = field.tolerance * max(1.0, hi - lo)
    pad = 1e-9 * (1.0 + abs(lo) + abs(hi)) + 4.0 * tol
    lo -= pad
    hi += pad
    if reflected:
        x0, side = -(field._nudge(x) + t), 1
    else:
        x0, side = field._nudge(x) - t, 0
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if _LevelPair(field.spec, mid).slice(side).membership(x0, t) != reflected:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _count_probes(monkeypatch):
    """Count membership probes into the last entry of the returned list."""
    from freezeflow.levelset import _LevelSlice

    probes = []
    membership = _LevelSlice.membership

    def counted(self, x0, t):
        probes[-1] += 1
        return membership(self, x0, t)

    monkeypatch.setattr(_LevelSlice, "membership", counted)
    return probes


def _assert_near_plain_depth(field, x, t, reflected, probes):
    """The steered value is bisection's, from at most 16 probes more."""
    probes.append(0)
    value = field._invert(x, t, None, reflected, {})
    steered = probes[-1]
    probes.append(0)
    assert value == bisection_reference(field, x, t, None, reflected), (field.spec, x, t)
    assert steered <= probes[-1] + 16, (field.spec, x, t, reflected)


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


def _shifted_spec(spec, d):
    """The problem moved right by d."""
    dom = spec.domain
    domain = Domain.segment(dom.a1 + d, dom.a2 + d) if dom.is_segment else dom
    move = lambda f: PL([x + d for x in f.xs], f.ys, f.left_slope, f.right_slope)  # noqa: E731
    return ProblemSpec(domain, move(spec.v0), move(spec.w0))


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

    @pytest.mark.parametrize("source", ["fixtures", "random", "far-out", "tiny-tolerance"])
    def test_grid_equals_bisection(self, source):
        # unsorted and repeated xs and ts, t = 0 rows and exact segment ends;
        # far out, labels carry rounding far above the tolerance, and a tiny
        # tolerance takes bisection down to the step cap
        rng = np.random.default_rng(20261019)
        tolerance = 1e-300 if source == "tiny-tolerance" else 1e-10
        if source == "random":
            specs = [random_pl_spec(rng, segment=k % 2 == 0) for k in range(12)]
        else:
            specs = [get_fixture(name).build() for name in sorted(FIXTURES)]
        if source == "far-out":
            specs = [_shifted_spec(spec, 1e7) for spec in specs if spec.v0.n < 100]
        for spec in specs:
            field = SolutionField(spec, tolerance=tolerance)
            lo, hi = spec.breakpoint_span()
            if not spec.domain.is_segment:
                lo, hi = lo - 1.0, hi + 1.0
            xs = list(rng.uniform(lo, hi, size=6))
            if spec.domain.is_segment:
                xs += [spec.domain.a1, spec.domain.a2]
            xs += [xs[1], xs[-1]]
            ts = list(rng.uniform(0.0, 3.0, size=3)) + [0.0]
            ts += [ts[0], 0.0]
            rng.shuffle(xs)
            rng.shuffle(ts)
            V, W = field.eval_grid(xs, ts)
            bracket = field._value_range(min(xs) - max(ts), max(xs) + max(ts))  # eval_grid's shared bracket
            for i, t in enumerate(ts):
                for j, x in enumerate(xs):
                    assert V[i, j] == bisection_reference(field, x, t, bracket, False), (spec, x, t)
                    assert W[i, j] == bisection_reference(field, x, t, bracket, True), (spec, x, t)

    def test_grid_rejects_non_finite_points(self, wedge_field, tent_field):
        for field in (wedge_field, tent_field):
            for xs, ts in (
                ([math.inf], [0.1]),
                ([0.5, math.nan], [0.1]),
                ([0.5], [math.inf]),
                ([0.5], [0.2, math.nan]),
                ([0.5], [0.2, -0.1]),
            ):
                with pytest.raises(ValueError):
                    field.eval_grid(xs, ts)
        # each point's own check rejects a negative time and an x outside a segment
        with pytest.raises(ValueError, match="nonnegative"):
            tent_field.eval_grid([0.5, 1.0], [0.2, -0.1])
        with pytest.raises(ValueError, match="outside the domain"):
            tent_field.eval_grid([0.5, 2.5], [0.2, 0.1])

    @pytest.mark.parametrize("tolerance", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, wedge_spec, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            SolutionField(wedge_spec, tolerance=tolerance)

    def test_empty_grid(self, wedge_field):
        for xs, ts in (([], []), ([0.5, 1.0], []), ([], [0.0, 1.0])):
            V, W = wedge_field.eval_grid(xs, ts)
            assert V.shape == W.shape == (len(ts), len(xs))

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
        # a residual of seeded noise may cost probes, never change a value,
        # and steering stops in time to stay within 16 probes of bisection
        from freezeflow.levelset import _LevelSlice

        noise = np.random.default_rng(7)
        monkeypatch.setattr(_LevelSlice, "residual", lambda self, x0, t: float(noise.normal()))
        probes = _count_probes(monkeypatch)
        rng = np.random.default_rng(11)
        specs = [get_fixture("wedge").build(), get_fixture("tent").build()]
        specs += [random_pl_spec(rng, segment=seg) for seg in (True, False) for _ in range(2)]
        for spec in specs:
            field = SolutionField(spec, tolerance=1e-10)
            points = _query_points(spec, rng, n=8)
            if spec is specs[1]:
                points.append((2.0, 0.5))  # tent's right end, where the residual is flat in b
            for x, t in points:
                for reflected in (False, True):
                    _assert_near_plain_depth(field, x, t, reflected, probes)

    @pytest.mark.parametrize("name, x", [("tent", 2.0), ("seg-tent", 1.0)])
    def test_segment_end_stays_near_plain_depth(self, monkeypatch, name, x):
        # at an exact segment end the residual is flat in b, so false position
        # keeps missing the cell and only the steering budget bounds the probes
        probes = _count_probes(monkeypatch)
        field = SolutionField(get_fixture(name).build(), tolerance=1e-10)
        for reflected in (False, True):
            _assert_near_plain_depth(field, x, 0.5, reflected, probes)

    def test_criterion_1_grid_probes_per_eval(self, monkeypatch):
        probes = _count_probes(monkeypatch)
        probes.append(0)
        field = SolutionField(get_fixture("wedge").build(), tolerance=1e-9)
        V, W = field.eval_grid(np.linspace(-5.0, 5.0, 201), np.linspace(0.0, 2.0, 101))
        assert probes[-1] / (V.size + W.size) <= 0.1  # plain bisection takes 34

    def test_tiny_tolerance_stops_at_the_step_cap(self, wedge_spec):
        # h - l stops shrinking long before 1e-300; only the cap ends the walk
        field = SolutionField(wedge_spec, tolerance=1e-300)
        for x, t, expected in ((4.0, 1.0, 3.0), (1.0, 1.0, 2.0 / 3.0), (0.0, 0.5, 0.5)):
            value = field.eval_v(x, t)
            assert abs(value - expected) < 1e-12
            assert value == bisection_reference(field, x, t, None, False)
        assert field.eval_w(0.0, 1.0) == bisection_reference(field, 0.0, 1.0, None, True)

    def test_tiny_tolerance_is_plain_bisection(self):
        # a final cell within rounding of the values is not steered to;
        # steering to it gives 0.10982564260716016 here
        field = SolutionField(get_fixture("seg-tent").build(), tolerance=1e-300)
        x, t = 0.6098256426071602, 1.157494660045763
        value = field.eval_v(x, t, (-0.5, 0.5))
        assert value == bisection_reference(field, x, t, (-0.5, 0.5), False) == 0.10982564260716007


def _fixtures_and_random_specs(n_random=6):
    rng = np.random.default_rng(2024)
    return [f.build() for f in FIXTURES.values()] + [random_pl_spec(rng) for _ in range(n_random)]


def test_front_table_matches_front():
    # _front and _front_table read the same stored pieces, _front per t and
    # the table as arrays over its branches, and the frozen segments read
    # the table's numbers of their v piece
    for spec in _fixtures_and_random_specs():
        ys = spec.v0.ys + spec.w0.ys
        for b in np.linspace(min(ys), max(ys), 20):
            pair = _LevelPair(spec, float(b))
            for sl in (pair.slice(0), pair.slice(1)):
                P, T, F, R = _front_table(sl)
                ts = sorted({0.0, *np.linspace(0.0, 10.0, 21).tolist(), *T[np.isfinite(T) & (T >= 0.0)].tolist()})
                for k, comp in enumerate(sl.components):
                    for t in ts:
                        branch = next((i for i in range(T.shape[1]) if t <= T[k, i]), T.shape[1])
                        front = F[k, branch] - R[k, branch] * t
                        expected = _front(comp, t)
                        assert (front if front >= P[k] else -INF) == (-INF if expected is None else expected)
            P, T, F, R = _front_table(pair.slice(0))
            for x, firsts, ends, (k, i, *_) in pair.frozen():
                stand = F[k, 2 * i + 2]
                assert (x, firsts[0], ends[0], ends[1]) == (stand, T[k, 2 * i + 1], T[k, 2 * i + 2], stand - P[k])


def _pieces(level, side):
    """(x, first time, end) of every piece of one slice, in the problem's x."""
    return [
        (-x if side else x, first, min(last, x - p))
        for p, _, stored, _ in level.slice(side).components
        for first, _, last, x in stored
    ]


def test_v_and_w_pieces_agree_at_every_swept_level():
    # a piece of either side starts to stand only where and while a piece of
    # the other side stands, so both sides give a frozen segment the same x
    # and the same freezing time
    for spec in _fixtures_and_random_specs():
        lo, hi = spec.breakpoint_span()
        dom = spec.domain
        x0, x1 = (dom.a1, dom.a2) if dom.is_segment else (lo - 4.0, hi + 4.0)
        levels, _ = SolutionField(spec, tolerance=1e-9)._sweep(x0, x1)
        for level in levels:
            pieces = (_pieces(level, 0), _pieces(level, 1))
            for side in (0, 1):
                for x, first, end in pieces[side]:
                    tiny = 1e-9 * (1.0 + abs(x) + abs(first))
                    if end - first > tiny:
                        assert any(
                            abs(x2 - x) <= tiny and first2 - tiny <= first <= end2 + tiny
                            for x2, first2, end2 in pieces[1 - side]
                        ), (level.b, side, x, first)


def test_frozen_segments_carry_their_level():
    # inside a frozen segment of level b, v = w = b (walls of a segment domain
    # are left out: points there are nudged inside, where the stack ends)
    rng = np.random.default_rng(5)
    for spec in _fixtures_and_random_specs():
        field = SolutionField(spec, tolerance=1e-9)
        lo, hi = spec.breakpoint_span()
        dom = spec.domain
        levels, _ = field._sweep(*((dom.a1, dom.a2) if dom.is_segment else (lo - 4.0, hi + 4.0)))
        for level in levels[:: max(1, len(levels) // 8)]:
            for x, firsts, ends, _ in level.frozen():
                first, last = max(firsts), min(min(ends), max(firsts) + 5.0)
                if last - first < 1e-6 or (dom.is_segment and min(x - dom.a1, dom.a2 - x) < 1e-9):
                    continue
                t = first + (last - first) * rng.uniform(0.1, 0.9)
                v, w = field.eval_pair(x, t)
                assert max(abs(v - level.b), abs(w - level.b)) <= field.zone_epsilon(), (level.b, x, t, v, w)


# levels of the sweep over the full span widened by the horizon, at 1e-10
SWEEP_LEVELS = {
    "downhill": 159,
    "frozen-ramp": 4,
    "parabolas": 3370,
    "ramp": 449,
    "seg-tent": 236,
    "tent": 236,
    "thawline": 3,
    "uniform-gap": 116,
    "wedge": 123,
}


def _full_span(name):
    fixture = get_fixture(name)
    spec = fixture.build()
    lo, hi = spec.breakpoint_span()
    return spec, lo, hi, fixture.horizon


@pytest.mark.parametrize("name", sorted(SWEEP_LEVELS))
def test_sweep_has_a_level_at_every_critical_value(name):
    spec, lo, hi, horizon = _full_span(name)
    field = SolutionField(spec, tolerance=1e-10)
    levels, affine = field._sweep(lo - horizon, hi + horizon)
    b = [level.b for level in levels]
    b_lo, b_hi, _ = _padded(*field._value_range(lo - horizon, hi + horizon), field.tolerance)
    assert (b[0], b[-1]) == (b_lo, b_hi) and b == sorted(set(b))
    assert {c for c in field._critical if b_lo < c < b_hi} <= set(b)
    assert len(affine) == len(b) - 1
    assert len(b) == SWEEP_LEVELS[name]  # boundary output is not pinned, so this guards the sweep


@pytest.mark.parametrize("name", ["parabolas", "ramp"])
def test_grid_builds_no_more_levels_than_the_sweep(monkeypatch, name):
    # one split serves both, and a grid splits only cells that hold values
    spec, lo, hi, horizon = _full_span(name)
    built = _count_levels(monkeypatch)
    SolutionField(spec, tolerance=1e-10).eval_grid(np.linspace(lo, hi, 41), np.linspace(0.0, horizon, 21))
    grid = len(built)
    del built[:]
    SolutionField(spec, tolerance=1e-10)._sweep(lo - horizon, hi + horizon)
    assert grid <= len(built), (grid, len(built))


def _traced(trace, f, x, t):
    c = trace(f, x, t, 0.05, t + 0.5)
    return [c.samples, c.values, c.zones, c.termination]


def test_kept_levels_carry_no_query_state():
    # every query reads the levels the one before it built; two grids on one
    # bracket share levels but not times, a w trace reads a v trace's levels
    # and a superlevel set a sublevel set's, so nothing that depends on one
    # query's times or side may stay on a kept level
    rng = np.random.default_rng(13)
    for spec in _fixtures_and_random_specs(n_random=3):
        lo, hi = spec.breakpoint_span()
        dom = spec.domain
        x0, x1 = (dom.a1, dom.a2) if dom.is_segment else (lo - 1.0, hi + 1.0)
        xs = sorted(rng.uniform(x0, x1, size=8).tolist())  # more points than _FEW
        b = float(np.median(spec.v0.ys + spec.w0.ys))
        calls = [
            lambda f: f.eval_grid(xs, [0.0, 0.5, 1.5]),
            lambda f: f.eval_grid(xs, [1.5, 0.25, 1.0, 0.0]),  # the same bracket
            lambda f: [f.eval_v(x, t) for x in xs[:3] for t in (0.5, 1.5)] + [f.eval_w(x, 0.25) for x in xs[2:]],
            lambda f: [(level.b, level.frozen()) for level in f._sweep(x0, x1)[0]] + f._sweep(x0, x1)[1],
            lambda f: _traced(trace_forward_v, f, xs[3], 0.5),
            lambda f: _traced(trace_forward_w, f, xs[3], 0.5),
            lambda f: signed(f.sublevel_set(b, 0.5)),
            lambda f: signed(f.superlevel_set(b, 1.5)),
        ]
        shared = SolutionField(spec, tolerance=1e-9)
        for call in calls:
            got, want = call(shared), call(SolutionField(spec, tolerance=1e-9))
            if isinstance(got, tuple):
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), spec
            else:
                assert got == want, spec
