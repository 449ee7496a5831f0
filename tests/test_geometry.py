import math

import numpy as np
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
from freezeflow.diagnostics import random_pl_spec
from freezeflow.fixtures import (
    PARABOLAS_LEFT_CORNER,
    PARABOLAS_RIGHT_CORNER,
    PARABOLAS_TIP,
    RAMP_CORNER,
    parabolas_freeze_time,
)
from freezeflow.geometry import _one_sided_slope
from freezeflow.levelset import _LevelPair

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


@pytest.mark.parametrize("half", [4.0, 1e6, 1e9, 1e12])
def test_wide_window_ends_its_curves_on_them(half):
    # the clip box pads t by a slack of its own: one slack scaled by |x| let
    # a wide window clip each curve at t = 1 + slack and clamp it back to
    # t = 1, off the curve (the freezing curve x = 3t ended at x = 3.003
    # with half-width 1e6, at 3003 with 1e12)
    field = SolutionField(get_fixture("wedge").build(), tolerance=1e-10)
    bset = extract_boundaries(field, (-half, half, 0.0, 1.0), (40, 40))
    for curves, speed in ((bset.freezing, 3.0), (bset.thawing, 0.6)):
        assert curves
        for curve in curves:
            for x, t in curve.samples:
                assert abs(x - speed * t) <= 1e-8, (half, x, t)


def _count_level_pairs(monkeypatch):
    """One entry per ``_LevelPair`` built."""
    built = []
    real = _LevelPair.__init__

    def counted(self, *args):
        built.append(args[1])
        real(self, *args)

    monkeypatch.setattr(_LevelPair, "__init__", counted)
    return built


def test_boundary_work_is_pinned(monkeypatch):
    # the benchmark's boundary extraction on its base window builds the
    # levels that v0 and w0 both take over the window's triangle, [0, 3]
    # padded out to the nearest critical values: 752 of the 1,869 levels of
    # its whole value bracket, [-24.04, 16]
    built = _count_level_pairs(monkeypatch)
    field = SolutionField(get_fixture("parabolas").build(), tolerance=1e-7)
    extract_boundaries(field, (0.8, 2.0, 0.4, 2.0), (40, 40), zone_epsilon=1e-4)
    assert len(built) == 752


class TestExtractEdgeCases:
    def test_all_liquid_empty(self):
        spec = ProblemSpec(Domain.whole_line(), PL.constant(1.0), PL.constant(0.0))
        field = SolutionField(spec, tolerance=1e-10)
        bset = extract_boundaries(field, (-2.0, 2.0, 0.0, 1.0), (40, 40))
        assert not bset.freezing and not bset.thawing and not bset.corners

    @pytest.mark.parametrize("shape", ["constant", "sloped"])
    def test_empty_frozen_range_builds_no_level(self, monkeypatch, shape):
        # v0's and w0's values over the window's triangle never meet, so no
        # level can carry a frozen point there and none is built
        if shape == "constant":
            spec = ProblemSpec(Domain.whole_line(), PL.constant(1.0), PL.constant(0.0))
        else:
            rng = np.random.default_rng(2805)
            xs = sorted(rng.uniform(-2.0, 2.0, 6).tolist())
            spec = ProblemSpec(
                Domain.whole_line(),
                PL(xs, rng.uniform(2.0, 3.0, 6).tolist(), -0.1, 0.1),
                PL(xs, rng.uniform(-1.0, 0.0, 6).tolist(), -0.1, 0.1),
            )
        built = _count_level_pairs(monkeypatch)
        field = SolutionField(spec, tolerance=1e-10)
        bset = extract_boundaries(field, (-3.0, 3.0, 0.0, 1.0), (41, 21))
        assert not bset.freezing and not bset.thawing and not bset.corners
        assert (bset.cell_size, bset.warnings, built) == (0.15, list(field.warnings), [])

    def test_coarse_resolution_warns_not_raises(self):
        field = SolutionField(get_fixture("wedge").build(), tolerance=1e-8)
        bset = extract_boundaries(field, (0.0, 4.0, 0.0, 1.2), (7, 7))
        assert isinstance(bset.warnings, list)


@pytest.fixture(scope="module")
def parab_bset():
    field = SolutionField(get_fixture("parabolas").build(), tolerance=1e-7)
    return extract_boundaries(field, (0.8, 3.2, 0.0, 3.45), (130, 150), zone_epsilon=1e-4)


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


class TestRampCorner:
    def test_thaw_freeze_corner(self):
        field = SolutionField(get_fixture("ramp").build(), tolerance=1e-8)
        bset = extract_boundaries(field, (-2.8, 0.4, 0.0, 2.9), (130, 120), zone_epsilon=1e-4)
        x, t = RAMP_CORNER
        corner = min(bset.corners, key=lambda c: abs(c.x - x) + abs(c.t - t))
        assert corner.kind is CornerKind.THAW_FREEZE
        assert abs(corner.x - x) < 0.02 and abs(corner.t - t) < 0.02
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


def _one_ulp_right(spec):
    """The spec with every breakpoint and segment end moved one ulp right."""
    def up(xs):
        return np.nextafter(np.asarray(xs, dtype=float), math.inf)

    def pl(f):
        return PL(up(f.xs), f.ys, f.left_slope, f.right_slope)

    dom = spec.domain
    return ProblemSpec(Domain.segment(*up([dom.a1, dom.a2]).tolist()) if dom.is_segment else dom, pl(spec.v0), pl(spec.w0))


@pytest.mark.parametrize("k", [5, 13])
def test_corner_order_survives_a_one_ulp_shift(k):
    # two thaw/freeze corners used to swap places: candidates were ordered by
    # the distance between a segment's ends, which at a corner is rounding
    rng = np.random.default_rng(99)
    spec = [random_pl_spec(rng, segment=bool(i % 2)) for i in range(k + 1)][k]
    found = []
    for s in (spec, _one_ulp_right(spec)):
        lo, hi = s.breakpoint_span()
        bset = extract_boundaries(SolutionField(s, tolerance=1e-9), (lo, hi, 0.0, 2.0), (130, 120))
        found.append(bset.corners)
    assert len(found[0]) == len(found[1]) >= 5
    for a, b in zip(*found):
        assert a.kind is b.kind and abs(a.x - b.x) <= 1e-9 and abs(a.t - b.t) <= 1e-9, (a, b)


# corners of each fixture: kind, position, and (freezing, thawing) slope checks
FT, TF, TIP = CornerKind.FREEZE_THAW, CornerKind.THAW_FREEZE, CornerKind.TIP
ROOT3 = math.sqrt(3.0)


def _rel(target, tol):
    return lambda s, unbounded: not unbounded and abs(s - target) <= tol * abs(target)


def _near(target, tol):
    return lambda s, unbounded: not unbounded and abs(s - target) <= tol


def _unbounded(s, unbounded):
    return unbounded


def _any(s, unbounded):
    return True


CORNER_TABLE = {
    "wedge": ((-1.0, 5.0, 0.0, 1.5), [(FT, 0.0, 0.0, _near(1 / 3, 1e-9), _near(5 / 3, 1e-9))]),
    "parabolas": (
        (0.8, 3.2, 0.0, 3.45),
        [
            (FT, (4 - ROOT3) / 2, (4 - ROOT3) / 2, _rel(-1.0, 0.05), _rel(3.0, 0.05)),
            (FT, (4 + ROOT3) / 2, (4 - ROOT3) / 2, _rel(1.0, 0.05), _rel(-3.0, 0.05)),
            (TIP, 2.0, 2.0 + math.sqrt(1.5), _any, _any),
        ],
    ),
    "ramp": ((-2.8, 0.4, 0.0, 2.9), [(TF, *RAMP_CORNER, _near(0.0, 0.05), _unbounded)]),
    "tent": ((0.0, 2.0, 0.0, 4.0), [(TF, 0.0, 1.0, _any, _unbounded), (TF, 2.0, 1.0, _any, _unbounded)]),
    "seg-tent": ((0.0, 1.0, 0.0, 3.0), [(TF, 0.0, 0.5, _any, _unbounded), (TF, 1.0, 0.5, _any, _unbounded)]),
    "downhill": (
        (-1.0, 1.0, 0.0, 5.0),
        [(TF, -1.0, 2.0, _any, _unbounded), (TF, 1.0, 2.0, _any, _unbounded), (FT, -1.0, 0.0, _any, _any), (FT, 1.0, 0.0, _any, _any)],
    ),
}


@pytest.mark.parametrize("name", sorted(CORNER_TABLE))
def test_corners_are_exact_and_independent_of_the_grid(name):
    window, expected = CORNER_TABLE[name]
    field = SolutionField(get_fixture(name).build(), tolerance=1e-8)
    coarse, fine = (extract_boundaries(field, window, grid, zone_epsilon=1e-4) for grid in ((40, 40), (130, 150)))
    assert len(coarse.corners) == len(fine.corners)
    for a, b in zip(coarse.corners, fine.corners):
        assert a.kind is b.kind and abs(a.x - b.x) <= 1e-9 and abs(a.t - b.t) <= 1e-9
        assert all(abs(p - q) <= 1e-9 for p, q in zip(a.slopes, b.slopes))
    for kind, x, t, freezing_ok, thawing_ok in expected:
        corner = min(coarse.corners, key=lambda c: math.hypot(c.x - x, c.t - t))
        assert corner.kind is kind and math.hypot(corner.x - x, corner.t - t) <= 1e-3, (corner, kind, x, t)
        sl = corner.slopes
        assert freezing_ok(sl.freezing_slope, sl.freezing_unbounded) and thawing_ok(sl.thawing_slope, sl.thawing_unbounded), sl


def test_parabolas_freezing_curve_is_exact(parab_bset):
    # the sweep's freezing polyline against the meeting points of equal
    # values, solved level by level
    reference = freezing_curve_monotone_case(get_fixture("parabolas").build(), 0.0, 4.0)
    (curve,) = parab_bset.freezing
    xs, ts = zip(*curve.samples)
    assert list(xs) == sorted(xs)
    inside = [(x, t) for x, t in reference.samples if xs[0] <= x <= xs[-1]]
    assert len(inside) > 150
    for x, t in inside:
        assert abs(float(np.interp(x, xs, ts)) - t) <= 1e-9, (x, t)
