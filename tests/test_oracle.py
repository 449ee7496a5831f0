import math

import numpy as np
import pytest

from freezeflow import (
    AnnihilationState,
    Domain,
    IntervalUnion,
    PiecewiseLinear,
    ProblemSpec,
    annihilate_step,
    grid_scheme,
    oracle_level_sets,
    random_pl_spec,
    sublevel_set,
    superlevel_set,
)
from freezeflow.fixtures import wedge_v_exact, wedge_w_exact

PL = PiecewiseLinear
INF = math.inf


class TestAnnihilateStep:
    def test_pure_translation_until_contact(self):
        s0 = AnnihilationState(IntervalUnion([(0, 1)]), IntervalUnion([(3, 4)]))
        s1 = annihilate_step(s0, 1.0)
        assert s1.blue.intervals == ((1, 2),)
        assert s1.red.intervals == ((2, 3),)
        assert s1.eroded_blue == 0.0

    def test_equal_rate_erosion(self):
        s0 = AnnihilationState(IntervalUnion([(0, 1)]), IntervalUnion([(1, 2)]))
        s1 = annihilate_step(s0, 0.5)
        assert s1.blue.intervals == ((0.5, 1.0),)
        assert s1.red.intervals == ((1.0, 1.5),)
        assert s1.eroded_blue == s1.eroded_red == 0.5

    def test_complete_annihilation(self):
        s0 = AnnihilationState(IntervalUnion([(0, 1)]), IntervalUnion([(1, 2)]))
        s1 = annihilate_step(s0, 1.5)
        assert not s1.blue and not s1.red
        assert s1.eroded_blue == s1.eroded_red == 1.0

    def test_survivor_resumes(self):
        # blue shorter: dies at t=0.5; red resumes moving left
        s0 = AnnihilationState(IntervalUnion([(0.5, 1)]), IntervalUnion([(1, 3)]))
        s1 = annihilate_step(s0, 1.0)
        assert not s1.blue
        assert s1.red.intervals == ((0.5, 2.0),)

    def test_infinite_fronts_static_contact(self):
        s0 = AnnihilationState(IntervalUnion([(-INF, 0)]), IntervalUnion([(0, INF)]))
        s1 = annihilate_step(s0, 7.0)
        assert s1.blue.intervals == ((-INF, 0),)
        assert s1.red.intervals == ((0, INF),)
        assert s1.eroded_blue == s1.eroded_red == 7.0

    def test_negative_step_raises(self):
        with pytest.raises(ValueError, match="dt"):
            annihilate_step(AnnihilationState(IntervalUnion([(0.0, 1.0)]), IntervalUnion()), -0.1)

    def test_zero_length_interval_is_dropped(self):
        state = AnnihilationState(IntervalUnion([(0.0, 0.0), (2.0, 3.0)]), IntervalUnion())
        assert annihilate_step(state, 0.5).blue.intervals == ((2.5, 3.5),)

    def test_equal_rate_invariant_random(self, rng):
        # erosion totals agree exactly whatever the configuration
        for _ in range(40):
            k = rng.integers(1, 5)
            pts = np.sort(rng.uniform(-10, 10, size=2 * k))
            blue = IntervalUnion([(pts[2 * i], pts[2 * i + 1]) for i in range(k)])
            m = rng.integers(1, 5)
            pts2 = np.sort(rng.uniform(-10, 10, size=2 * m))
            red = IntervalUnion([(pts2[2 * i], pts2[2 * i + 1]) for i in range(m)])
            if blue.intersect(red).measure() > 0:
                continue  # the invariant requires measure-zero overlap at t=0
            state = AnnihilationState(blue, red)
            out = annihilate_step(state, float(rng.uniform(0, 8)))
            assert abs(out.eroded_blue - out.eroded_red) < 1e-9
            assert abs(
                (out.blue.measure() - blue.measure()) - (out.red.measure() - red.measure())
            ) < 1e-9


class TestOracleLevelSets:
    def test_t0_identity(self, wedge_spec):
        ob, orr = oracle_level_sets(wedge_spec, 1.0, 0.0)
        assert ob.intervals == ((-1.0, 1.0),)
        assert orr.intervals == ((2.0, INF),)

    def test_wedge_cross_module(self, wedge_spec):
        for b in (0.25, 1.0, 2.7):
            for t in (0.0, 0.5, 1.5, 3.0):
                ob, orr = oracle_level_sets(wedge_spec, b, t)
                assert sublevel_set(wedge_spec, b, t).symmetric_difference_measure(ob) < 1e-9
                assert superlevel_set(wedge_spec, b, t).symmetric_difference_measure(orr) < 1e-9

    def test_translation_full_annihilation(self):
        spec = ProblemSpec(Domain.whole_line(), PL.linear(1.0), PL([0.0], [-10.0], 1.0, 1.0))
        ob, _ = oracle_level_sets(spec, 0.0, 6.0)
        assert ob.intervals == ((-INF, 5.0),)

    def test_segment_boundary_feeders(self, tent_spec):
        for b in (-0.5, 0.2, 0.8):
            for t in (0.4, 1.1, 2.5):
                ob, orr = oracle_level_sets(tent_spec, b, t)
                assert sublevel_set(tent_spec, b, t).symmetric_difference_measure(ob) < 1e-9
                assert superlevel_set(tent_spec, b, t).symmetric_difference_measure(orr) < 1e-9

    def test_randomized_equivalence(self, rng):
        for _ in range(30):
            spec = random_pl_spec(rng)
            lo, hi = spec.breakpoint_span()
            w_lo, _ = spec.w0.min_max_on(lo, hi)
            _, v_hi = spec.v0.min_max_on(lo, hi)
            for _ in range(3):
                b = float(rng.uniform(w_lo - 1, v_hi + 1))
                t = float(rng.uniform(0, 3))
                ob, orr = oracle_level_sets(spec, b, t)
                assert sublevel_set(spec, b, t).symmetric_difference_measure(ob) < 1e-9
                assert superlevel_set(spec, b, t).symmetric_difference_measure(orr) < 1e-9


class TestGridScheme:
    def test_frozen_data_stationary(self, frozen_ramp_field):
        spec = frozen_ramp_field.spec
        xs, v, w = grid_scheme(spec, 1 / 32, 1.0)
        assert np.allclose(v, xs, atol=1e-12)
        assert np.allclose(w, xs, atol=1e-12)

    def test_bad_step_raises(self, wedge_spec):
        for dx in (0.0, -0.5):
            with pytest.raises(ValueError, match="dx"):
                grid_scheme(wedge_spec, dx, 1.0)

    def test_default_window_pads_the_span(self):
        f = PL([0.0, 1.0], [0.0, 1.0], 1.0, 1.0)
        xs, v, w = grid_scheme(ProblemSpec(Domain.whole_line(), f, f), 0.25, 0.5)
        # the span [0, 1] widened by t_end + 2 dx on each side
        assert xs.tolist() == np.linspace(-1.0, 2.0, 13).tolist() and v.shape == w.shape == (13,)

    def test_pure_transport(self):
        v0 = PL([0.0], [10.0], -1.0, 1.0)
        w0 = PL([0.0], [0.0], -1.0, 1.0)  # gap 10 everywhere: never meets
        spec = ProblemSpec(Domain.whole_line(), v0, w0)
        xs, v, w = grid_scheme(spec, 1 / 64, 0.5, window=(-3, 3))
        assert np.max(np.abs(v - (v0(xs - 0.5)))) < 1e-12
        assert np.max(np.abs(w - (w0(xs + 0.5)))) < 1e-12

    def test_first_order_convergence_on_wedge(self, wedge_spec):
        errs = []
        for dx in (1 / 64, 1 / 128, 1 / 256):
            xs, v, w = grid_scheme(wedge_spec, dx, 1.0, window=(-4, 4))
            errs.append(
                max(
                    float(np.max(np.abs(v - wedge_v_exact(xs, 1.0)))),
                    float(np.max(np.abs(w - wedge_w_exact(xs, 1.0)))),
                )
            )
        assert errs[1] / errs[0] <= 0.6
        assert errs[2] / errs[1] <= 0.6

    def test_instant_thaw_report(self):
        # no discretization is prescribed for instant-thaw data; record the
        # observed error against the exact rarefaction instead of asserting
        # convergence order
        f = PL([0.0], [0.0], -1.0, -1.0)
        spec = ProblemSpec(Domain.whole_line(), f, f)
        xs, v, w = grid_scheme(spec, 1 / 128, 1.0, window=(-4, 4))
        err_v = float(np.max(np.abs(v - (1.0 - xs))))
        err_w = float(np.max(np.abs(w - (-xs - 1.0))))
        assert err_v < 0.5 and err_w < 0.5  # sanity ceiling; value reported below
        print(f"instant-thaw scheme errors at dx=1/128: v {err_v:.3e}, w {err_w:.3e}")
