import math

import pytest

from freezeflow import (
    CornerKind,
    Domain,
    PiecewiseLinear,
    ProblemSpec,
    SolutionField,
    ZoneLabel,
    classify,
    corner_slopes,
    extract_boundaries,
    freezing_curve_monotone_case,
    get_fixture,
)
from freezeflow.fixtures import (
    PARABOLAS_LEFT_CORNER,
    PARABOLAS_RIGHT_CORNER,
    PARABOLAS_TIP,
    parabolas_freeze_time,
)
from freezeflow.geometry import _one_sided_slope

PL = PiecewiseLinear


class TestMonotoneCase:
    def test_translation_pair_horizontal_curve(self):
        # v0 = x, w0 = x - 10 on [0, 20]: characteristics with value c meet at
        # ((c + c + 10)/2, 5): a horizontal segment at t = 5
        spec = ProblemSpec(
            Domain.whole_line(), PL([0.0, 20.0], [0.0, 20.0]), PL([0.0, 20.0], [-10.0, 10.0])
        )
        curve = freezing_curve_monotone_case(spec, 0.0, 20.0, samples=21)
        assert curve.samples
        assert all(abs(t - 5.0) < 1e-12 for _, t in curve.samples)
        assert abs(curve.samples[0][0] - 5.0) < 1e-12
        assert abs(curve.samples[-1][0] - 15.0) < 1e-12

    def test_matches_parabola_freeze_times(self):
        spec = get_fixture("parabolas").build()
        curve = freezing_curve_monotone_case(spec, 0.0, 4.0, samples=60)
        # compare t against S_f(b) through the value at the meeting point
        field = SolutionField(spec, tolerance=1e-9)
        for x, t in curve.samples[5:-5:6]:
            b = field.eval_v(x, t + 1e-3)
            assert abs(t - parabolas_freeze_time(min(max(b, 0.0), 3.0))) < 5e-3

    def test_empty_when_ranges_disjoint(self):
        spec = ProblemSpec(
            Domain.whole_line(), PL([0.0, 1.0], [100.0, 101.0]), PL([0.0, 1.0], [-100.0, -99.0])
        )
        curve = freezing_curve_monotone_case(spec, 0.0, 1.0)
        assert curve.samples == []

    def test_monotonicity_precondition(self, wedge_spec):
        with pytest.raises(ValueError):
            freezing_curve_monotone_case(wedge_spec, -1.0, 1.0)


@pytest.fixture(scope="module")
def wedge_bset():
    field = SolutionField(get_fixture("wedge").build(), tolerance=1e-8)
    return extract_boundaries(field, (-1.0, 5.0, 0.0, 1.5), (140, 120))


class TestExtractWedge:
    @pytest.fixture()
    def bset(self, wedge_bset):
        return wedge_bset

    def test_freezing_fits_known_line(self, bset):
        assert bset.freezing
        for curve in bset.freezing:
            assert max(abs(t - x / 3.0) for x, t in curve.samples) <= 2 * bset.cell_size

    def test_thawing_fits_known_line(self, bset):
        assert bset.thawing
        for curve in bset.thawing:
            assert max(abs(t - 5.0 * x / 3.0) for x, t in curve.samples) <= 2 * bset.cell_size

    def test_slope_regime_invariants(self, bset):
        # consecutive-sample Lipschitz/anti-Lipschitz bounds with an additive
        # 2-cell slack (stair-stepped contour samples make pure slope ratios
        # meaningless at single-segment granularity)
        slack = 2 * bset.cell_size
        for curve in bset.freezing:
            if len(curve.samples) < 8:
                continue
            for (x0, t0), (x1, t1) in zip(curve.samples, curve.samples[1:]):
                assert abs(t1 - t0) <= abs(x1 - x0) + slack
        for curve in bset.thawing:
            if len(curve.samples) < 8:
                continue
            for (x0, t0), (x1, t1) in zip(curve.samples, curve.samples[1:]):
                assert abs(t1 - t0) >= abs(x1 - x0) - slack

    def test_frozen_above_liquid_below(self, bset):
        field = SolutionField(get_fixture("wedge").build(), tolerance=1e-8)
        shift = 4 * bset.cell_size
        for curve in bset.freezing:
            for x, t in curve.samples[:: max(1, len(curve.samples) // 6)]:
                if t - shift <= 0:
                    continue
                assert classify(field, x, t + shift) is ZoneLabel.FROZEN
                assert classify(field, x, t - shift) is ZoneLabel.LIQUID


class TestExtractEdgeCases:
    def test_all_liquid_empty(self):
        spec = ProblemSpec(Domain.whole_line(), PL.constant(1.0), PL.constant(0.0))
        field = SolutionField(spec, tolerance=1e-10)
        bset = extract_boundaries(field, (-2.0, 2.0, 0.0, 1.0), (40, 40))
        assert not bset.freezing and not bset.thawing and not bset.corners

    def test_coarse_resolution_warns_not_raises(self):
        field = SolutionField(get_fixture("wedge").build(), tolerance=1e-8)
        bset = extract_boundaries(field, (0.0, 4.0, 0.0, 1.2), (7, 7))
        assert isinstance(bset.warnings, list)


@pytest.fixture(scope="module")
def parab_bset():
    field = SolutionField(get_fixture("parabolas").build(), tolerance=1e-7)
    return extract_boundaries(field, (0.8, 3.2, 0.0, 3.45), (130, 150), zone_epsilon=1e-4)


@pytest.mark.slow
class TestParabolaCorners:
    @pytest.fixture()
    def bset(self, parab_bset):
        return parab_bset

    def test_three_corners(self, bset):
        kinds = sorted(c.kind.value for c in bset.corners)
        assert kinds == ["freeze_thaw", "freeze_thaw", "tip"]

    def test_base_corner_positions(self, bset):
        fts = [c for c in bset.corners if c.kind is CornerKind.FREEZE_THAW]
        left = min(fts, key=lambda c: c.x)
        right = max(fts, key=lambda c: c.x)
        assert abs(left.x - PARABOLAS_LEFT_CORNER[0]) < 0.01
        assert abs(left.t - PARABOLAS_LEFT_CORNER[1]) < 0.01
        assert abs(right.x - PARABOLAS_RIGHT_CORNER[0]) < 0.01
        assert abs(right.t - PARABOLAS_RIGHT_CORNER[1]) < 0.01

    def test_tip_position(self, bset):
        tip = next(c for c in bset.corners if c.kind is CornerKind.TIP)
        assert math.hypot(tip.x - PARABOLAS_TIP[0], tip.t - PARABOLAS_TIP[1]) < 0.02

    def test_corner_slopes(self, bset):
        fts = sorted(
            (i for i, c in enumerate(bset.corners) if c.kind is CornerKind.FREEZE_THAW),
            key=lambda i: bset.corners[i].x,
        )
        sl_left = corner_slopes(bset, fts[0])
        sl_right = corner_slopes(bset, fts[-1])
        assert abs(sl_left.freezing_slope - (-1.0)) <= 0.05
        assert abs(sl_left.thawing_slope - 3.0) <= 0.15
        assert abs(sl_right.freezing_slope - 1.0) <= 0.05
        assert abs(sl_right.thawing_slope - (-3.0)) <= 0.15


@pytest.mark.slow
class TestRampCorner:
    def test_thaw_freeze_corner(self):
        field = SolutionField(get_fixture("ramp").build(), tolerance=1e-8)
        bset = extract_boundaries(field, (-2.8, 0.4, 0.0, 2.9), (130, 120), zone_epsilon=1e-4)
        corner = min(bset.corners, key=lambda c: abs(c.x + 2.0) + abs(c.t - 2.0))
        assert corner.kind is CornerKind.THAW_FREEZE
        assert abs(corner.x + 2.0) < 0.02 and abs(corner.t - 2.0) < 0.02
        sl = corner_slopes(bset, bset.corners.index(corner))
        assert abs(sl.freezing_slope) <= 0.05
        assert abs(sl.thawing_slope) > 20.0
        assert sl.thawing_unbounded


@pytest.mark.parametrize("dtdx", [0.5, -2.0])
def test_one_sided_slope_skips_a_sample_on_the_corner(dtdx):
    # a zero-length chord to the corner used to divide 0 by 0
    pts = [(0.0, 0.0)] + [(k * 0.1, k * 0.1 * dtdx) for k in range(1, 6)]
    slope, unbounded = _one_sided_slope(pts, (0.0, 0.0))
    assert math.isfinite(slope) and not unbounded
    assert abs(slope - dtdx) < 1e-12
