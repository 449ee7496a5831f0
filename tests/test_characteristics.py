import math

import numpy as np
import pytest

from freezeflow import (
    CharacteristicStepError,
    Domain,
    PiecewiseLinear,
    ProblemSpec,
    SolutionField,
    ZoneLabel,
    classify,
    get_fixture,
    trace_backward_v,
    trace_backward_w,
    trace_forward_v,
    trace_forward_w,
)
from freezeflow import characteristics, cli
from freezeflow.diagnostics import random_pl_spec
from freezeflow.fixtures import FIXTURES
from freezeflow.levelset import _LevelPair

PL = PiecewiseLinear


class TestClassify:
    def test_frozen_band(self, wedge_field):
        # inside 3t/5 < x < 3t the fields coincide and stay frozen
        assert classify(wedge_field, 2.0, 0.9) is ZoneLabel.FROZEN

    def test_liquid(self, wedge_field):
        assert classify(wedge_field, 4.0, 0.1) is ZoneLabel.LIQUID

    def test_uniform_gap_everywhere_liquid(self):
        spec = ProblemSpec(Domain.whole_line(), PL.constant(1.0), PL.constant(0.0))
        field = SolutionField(spec, tolerance=1e-12)
        for x, t in ((-3.0, 0.0), (0.0, 1.0), (5.0, 2.5)):
            assert classify(field, x, t) is ZoneLabel.LIQUID

    def test_origin_on_thawing_line(self, wedge_field):
        assert classify(wedge_field, 0.0, 0.0) is ZoneLabel.BOUNDARY


class TestBackward:
    def test_straight_liquid_segment(self, wedge_field):
        c = trace_backward_v(wedge_field, 4.0, 1.0)
        x0, t0 = c.samples[0]
        assert t0 == 0.0 and abs(x0 - 3.0) < 5e-3
        assert max(abs(v - 3.0) for v in c.values) < 5e-3
        assert c.is_subsonic(2e-3)
        assert c.constant_slope_runs() == 1

    def test_vertical_then_sloped(self, wedge_field):
        # from the frozen band: vertical down to the freezing line x = 3t at
        # (1, 1/3), then slope 1 to (2/3, 0)
        c = trace_backward_v(wedge_field, 1.0, 1.0)
        x0, t0 = c.samples[0]
        assert t0 == 0.0 and abs(x0 - 2.0 / 3.0) < 5e-3
        assert c.constant_slope_runs() <= 2

    def test_w_mirror(self, wedge_field):
        c = trace_backward_w(wedge_field, -2.0, 1.0)
        x0, t0 = c.samples[0]
        assert abs(x0 - (-1.0)) < 5e-3
        assert max(abs(v + 0.5) for v in c.values) < 5e-3
        assert c.is_subsonic(2e-3)

    def test_frozen_data_vertical(self, frozen_ramp_field):
        c = trace_backward_v(frozen_ramp_field, 0.5, 2.0)
        assert all(abs(x - 0.5) < 1e-9 for x, _ in c.samples)
        c = trace_backward_w(frozen_ramp_field, 0.5, 2.0)
        assert all(abs(x - 0.5) < 1e-9 for x, _ in c.samples)

    def test_value_constancy(self, wedge_field):
        lam = wedge_field.spec.lipschitz
        for x, t in ((3.5, 1.2), (0.5, 0.8), (-1.0, 1.5)):
            c = trace_backward_v(wedge_field, x, t)
            tol = lam * 1e-3 * t + 10 * wedge_field.zone_epsilon()
            ref = wedge_field.eval_v(x, t)
            assert max(abs(v - ref) for v in c.values) <= tol

    def test_non_crossing(self, wedge_field):
        ca = trace_backward_v(wedge_field, 0.5, 1.0)
        cb = trace_backward_v(wedge_field, 0.9, 1.0)
        ta = {round(t, 9): x for x, t in ca.samples}
        tb = {round(t, 9): x for x, t in cb.samples}
        for key in set(ta) & set(tb):
            assert ta[key] <= tb[key] + 1e-9

    def test_segment_boundary_termination(self, tent_field):
        # backward v-characteristics may end on the emitting left boundary
        c = trace_backward_v(tent_field, 0.2, 0.6)
        x0, t0 = c.samples[0]
        assert c.termination == "left boundary"
        assert x0 <= tent_field.spec.domain.a1 + 1e-6
        assert t0 > 0

    def test_requires_positive_time(self, wedge_field):
        with pytest.raises(ValueError):
            trace_backward_v(wedge_field, 0.0, 0.0)
        for t in (0.0, -0.5):
            with pytest.raises(ValueError, match="backward tracing requires t > 0"):
                trace_backward_w(wedge_field, 0.0, t)

    def test_a_path_off_its_band_fails_the_step(self, monkeypatch, capsys):
        # a path that drifts 3 labels per unit time off the band between the
        # start's two slices no longer preserves the value
        real = characteristics.band_path

        def drifting(outer, inner, x0, t):
            r = real(outer, inner, x0, t)
            return lambda s: None if r(s) is None else r(s) + 3.0 * (t - s)

        monkeypatch.setattr(characteristics, "band_path", drifting)
        with pytest.raises(CharacteristicStepError) as info:
            trace_backward_v(SolutionField(get_fixture("wedge").build()), 4.0, 1.0)
        message = "characteristic step failure at (x=4, t=1): the path below does not preserve the value"
        assert (str(info.value), info.value.x, info.value.t) == (message, 4.0, 1.0)
        argv = ["trace", "--fixture", "wedge", "--kind", "v", "--direction", "backward", "--x", "4", "--t", "1"]
        assert cli.main(argv) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestForward:
    def test_reverse_of_backward(self, wedge_field):
        c = trace_forward_v(wedge_field, 3.0, 0.0, t_end=1.0)
        xe, te = c.samples[-1]
        assert abs(te - 1.0) < 1e-9 and abs(xe - 4.0) < 5e-3

    def test_frozen_vertical(self, frozen_ramp_field):
        c = trace_forward_v(frozen_ramp_field, 0.5, 0.0, t_end=1.5)
        assert all(abs(x - 0.5) < 1e-9 for x, _ in c.samples)

    def test_no_forward_continuation_from_thaw_origin(self, wedge_field):
        # the origin sits on the thawing boundary; there is no forward
        # v-characteristic from it
        c = trace_forward_v(wedge_field, 0.0, 0.0, t_end=1.0)
        assert c.termination == "no value-preserving continuation"
        assert c.samples[-1][1] < 0.05
        assert c.zones[0] is ZoneLabel.BOUNDARY

    def test_w_through_frozen_band(self, wedge_field):
        # w-characteristic of value 2/3 from inside the band: vertical until
        # the thawing line x = 3t/5 reaches it at t = 5/3, then slope -1
        c = trace_forward_w(wedge_field, 1.0, 0.5, t_end=2.5)
        xe, te = c.samples[-1]
        assert abs(te - 2.5) < 1e-9
        assert abs(xe - (1.0 - (2.5 - 5.0 / 3.0))) < 1e-2
        assert c.is_subsonic(2e-3)

    def test_w_from_origin_continues(self, wedge_field):
        c = trace_forward_w(wedge_field, 0.0, 0.0, t_end=1.0)
        xe, te = c.samples[-1]
        assert abs(xe - (-1.0)) < 5e-3 and abs(te - 1.0) < 1e-9

    @pytest.mark.parametrize("tracer", [trace_forward_v, trace_forward_w])
    def test_end_before_start_is_rejected(self, wedge_field, tracer):
        # used to return one sample that had "reached horizon"
        with pytest.raises(ValueError, match="t_end >= t"):
            tracer(wedge_field, 1.0, 1.0, t_end=0.5)
        assert len(tracer(wedge_field, 1.0, 1.0, t_end=1.0).samples) == 1


@pytest.mark.parametrize("kind", [characteristics.CurveKind.FREEZING, characteristics.CurveKind.THAWING])
def test_boundary_curve_slopes_are_dt_over_dx(kind):
    curve = characteristics.Curve(kind, [(0.0, 0.0), (2.0, 1.0), (2.0, 3.0), (3.0, 2.0)])
    assert curve.slopes() == [0.5, math.inf, -1.0]
    assert curve.is_subsonic()


class TestRunsBound:
    def test_at_most_three_runs_on_fixtures(self, wedge_field, frozen_ramp_field):
        for field, pts in (
            (wedge_field, [(4.0, 1.0), (1.0, 1.0), (0.2, 1.8), (-1.0, 1.0)]),
            (frozen_ramp_field, [(0.3, 1.0), (0.8, 1.5)]),
        ):
            for x, t in pts:
                c = trace_backward_v(field, x, t)
                assert c.constant_slope_runs() <= 3


@pytest.mark.parametrize(
    "tracer, t, kwargs",
    [
        # a backward step is 1e-3 * t with no floor, also below t = 1e-9
        (trace_backward_v, 1e-12, {"dt": 1e-15}),
        (trace_backward_w, 1e-12, {"dt": 1e-15}),
        (trace_forward_v, 0.5, {"dt": 1e-3, "t_end": 1.5}),
        (trace_forward_w, 0.5, {"dt": 1e-3, "t_end": 1.5}),
    ],
)
def test_tracers_default_to_a_thousandth_of_the_span(wedge_field, tracer, t, kwargs):
    a, b = tracer(wedge_field, 1.0, t), tracer(wedge_field, 1.0, t, **kwargs)
    assert (a.samples, a.values, a.zones, a.termination) == (b.samples, b.values, b.zones, b.termination)
    assert len(a.samples) > 100


@pytest.mark.parametrize("dt", [-0.1, math.inf])
@pytest.mark.parametrize("tracer", [trace_backward_v, trace_backward_w, trace_forward_v, trace_forward_w])
def test_tracers_require_finite_positive_step(wedge_field, tracer, dt):
    # dt = 0 used to loop forever; tests/test_cli.py runs it in a subprocess
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        tracer(wedge_field, 1.0, 1.0, dt=dt)


class TestExactPath:
    """Traces follow the level-set end exactly, kinks included."""

    def test_vertical_then_sloped_exactly(self, wedge_field):
        # value 2/3: slope 1 from (2/3, 0) to the freezing line at (1, 1/3),
        # then vertical
        c = trace_backward_v(wedge_field, 1.0, 1.0)
        assert c.termination == "reached t=0"
        assert all(abs(x - min(2.0 / 3.0 + t, 1.0)) <= 1e-9 for x, t in c.samples)

    def test_left_end(self, wedge_field):
        # value 1.6, carried by the left end of the sublevel set [-1.6, 1.6]
        c = trace_backward_v(wedge_field, 0.2, 1.8)
        assert all(abs(x - (-1.6 + t)) <= 1e-9 for x, t in c.samples)

    @pytest.mark.parametrize("fixture, x, t", [("wedge", 1.0, 1.0), ("wedge", 0.2, 1.8), ("tent", 0.2, 0.6)])
    def test_w_is_the_mirrored_v(self, fixture, x, t):
        from test_levelset import mirrored_spec

        spec = get_fixture(fixture).build()
        cv = trace_backward_v(SolutionField(spec, tolerance=1e-12), x, t)
        cw = trace_backward_w(SolutionField(mirrored_spec(spec), tolerance=1e-12), -x, t)
        assert len(cw.samples) == len(cv.samples)
        for (xv, tv), (xw, tw) in zip(cv.samples, cw.samples):
            assert abs(xw + xv) <= 1e-9 and abs(tw - tv) <= 1e-9
        assert max(abs(a + b) for a, b in zip(cv.values, cw.values)) <= 1e-9
        assert cw.zones == cv.zones
        mirrored = {"left boundary": "right boundary", "reached t=0": "reached t=0"}
        assert cw.termination == mirrored[cv.termination]

    @pytest.mark.parametrize(
        "fixture, tracer, x, t, slope",
        [("ramp", trace_backward_w, -1.0, 1.0, -1.0), ("tent", trace_backward_v, 1.2, 0.2, 1.0)],
    )
    def test_local_extremum(self, fixture, tracer, x, t, slope):
        # the minimum of w0 (maximum of v0) carried at unit speed: on one
        # side of the value x is deep inside the level set, with no end near
        c = tracer(SolutionField(get_fixture(fixture).build()), x, t)
        assert c.termination == "reached t=0"
        assert all(abs(xs - (x - slope * (t - ts))) <= 1e-6 for xs, ts in c.samples)

    @pytest.mark.parametrize("x", [1.7, 2.0, 2.3])
    def test_flat_stretch_follows_the_label(self, x):
        # v0 = 1 on [1, 2] and w0 = x - 5: all liquid, so a value-1
        # characteristic is its label moving at unit speed; no end of the
        # level set lies near the label, and jumping to one broke slope <= 1
        spec = ProblemSpec(Domain.whole_line(), PL([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], 1.0, 1.0), PL([0.0], [-5.0], 1.0, 1.0))
        field = SolutionField(spec)
        for c in (trace_backward_v(field, x, 0.5), trace_forward_v(field, x, 0.5)):
            assert c.is_subsonic()
            assert all(abs(xs - (x - 0.5 + ts)) <= 1e-9 for xs, ts in c.samples)

    def test_flat_stretch_into_the_frozen_zone(self):
        # the wedge with v0 = 1 on [1, 2]: the value-1 front stands at x = 2,
        # and label 1.3 moves until it meets it at t = 0.7; w on the mirror
        from test_levelset import mirrored_spec

        spec = ProblemSpec(Domain.whole_line(), PL([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], -1.0, 1.0), PL([0.0], [0.0], 0.5, 0.5))
        cv = trace_forward_v(SolutionField(spec), 1.8, 0.5)
        cw = trace_forward_w(SolutionField(mirrored_spec(spec)), -1.8, 0.5)
        assert all(abs(x - min(1.3 + t, 2.0)) <= 1e-9 for x, t in cv.samples)
        assert all(abs(x + min(1.3 + t, 2.0)) <= 1e-9 for x, t in cw.samples)
        assert cv.zones == cw.zones and cv.zones[-1] is ZoneLabel.FROZEN

    @pytest.mark.parametrize(
        "x, t, dt",
        [
            (0.7596940422380261, 0.6932283983354456, 0.0346614),
            # this path stops a rounding step short of a2 and must end there
            # rather than run up the boundary, where the value changes
            (0.7578638174530101, 1.0390436733264594, 0.051952183666322975),
        ],
    )
    def test_segment_trace_ends_on_the_feeder(self, x, t, dt):
        field = SolutionField(get_fixture("seg-tent").build())
        c = trace_backward_w(field, x, t, dt=dt)
        assert c.termination == "right boundary"
        assert c.samples[0][0] == 1.0
        tol = field.spec.lipschitz * dt + field.zone_epsilon()
        assert max(abs(v - c.values[-1]) for v in c.values) <= tol


@pytest.mark.parametrize(
    "tracer, kwargs",
    [
        (trace_backward_v, {"dt": 1e-12}),
        (trace_backward_w, {"dt": 1e-12}),
        (trace_forward_v, {"dt": 1e-12}),
        (trace_forward_w, {"dt": 1e-12}),
        (trace_forward_v, {"dt": 0.1, "t_end": math.nan}),
        (trace_forward_w, {"dt": 0.1, "t_end": math.nan}),
    ],
)
def test_tracers_bound_their_samples(wedge_field, tracer, kwargs):
    # 1e12 steps used to run for hours; the exact path would run out of
    # memory, and a nan horizon would never be reached
    with pytest.raises(ValueError, match="samples"):
        tracer(wedge_field, 1.0, 1.0, **kwargs)


def _trace_problems():
    """Every fixture, with its horizon, and 6 seeded random specs."""
    problems = [(name, FIXTURES[name].build(), FIXTURES[name].horizon) for name in sorted(FIXTURES)]
    rng = np.random.default_rng(4242)
    return problems + [(f"random-{k}", random_pl_spec(rng), 2.0) for k in range(6)]


TRACE_PROBLEMS = _trace_problems()


@pytest.mark.parametrize("name, spec, horizon", TRACE_PROBLEMS, ids=[p[0] for p in TRACE_PROBLEMS])
def test_samples_are_bisection_on_the_start_bracket(name, spec, horizon):
    # every sample of a backward trace is evaluated on the start's bracket;
    # a forward sample is too while its own bracket stays inside the start's,
    # and on its own bracket after that
    field = SolutionField(spec)
    dom = spec.domain
    lo, hi = (dom.a1, dom.a2) if dom.is_segment else np.add(spec.breakpoint_span(), (-1.0, 1.0))
    rng = np.random.default_rng(sum(map(ord, name)))
    x, t = float(rng.uniform(lo, hi)), float(rng.uniform(0.1, horizon))
    start = field._value_range(x - t, x + t)
    for kind, tracer, ev in (("v", trace_backward_v, field.eval_v), ("w", trace_backward_w, field.eval_w)):
        c = tracer(field, x, t)
        assert c.termination in ("reached t=0", "left boundary", "right boundary")
        for (xs, ts), value in zip(c.samples, c.values):
            assert value == ev(xs, ts, start), (kind, xs, ts)
    for kind, tracer, ev in (("v", trace_forward_v, field.eval_v), ("w", trace_forward_w, field.eval_w)):
        c = tracer(field, x, t, dt=0.01)
        for (xs, ts), value in zip(c.samples, c.values):
            own = field._value_range(xs - ts, xs + ts)
            inside = start[0] <= own[0] and own[1] <= start[1]
            assert value == ev(xs, ts, start if inside else own), (kind, xs, ts)


def test_wedge_traces_build_few_levels(monkeypatch):
    # the samples of a trace reuse the start's two levels; one inversion per
    # sample built 4,005 levels for these two traces.  The w trace reads the
    # levels the v trace built, so it builds none (6 if it read only its own)
    built = []
    init = _LevelPair.__init__

    def counted(self, spec, b):
        built.append(b)
        init(self, spec, b)

    monkeypatch.setattr(_LevelPair, "__init__", counted)
    field = SolutionField(get_fixture("wedge").build())
    cv = trace_backward_v(field, 4.0, 1.0)
    assert len(built) == 4
    cw = trace_backward_w(field, 4.0, 1.0)
    assert len(built) == 4
    assert len(cv.samples) == len(cw.samples) == 1001



@pytest.mark.parametrize("name, x, t", [("wedge", 4.0, 1.0), ("wedge", 2.0, 0.9), ("seg-tent", 0.3, 0.8)])
def test_trace_inverts_its_start_once(monkeypatch, name, x, t):
    # the start's zone reuses the start's value, so each side is inverted
    # once at (x, t), and the zone is still classify's
    spec = get_fixture(name).build()
    zone = classify(SolutionField(spec), x, t)
    calls = []
    cell = SolutionField._cell

    def counted(self, xs, ts, bracket, reflected, *args):
        calls.append((xs, ts, reflected))
        return cell(self, xs, ts, bracket, reflected, *args)

    monkeypatch.setattr(SolutionField, "_cell", counted)
    for tracer in (trace_backward_v, trace_backward_w):
        calls.clear()
        curve = tracer(SolutionField(spec), x, t)
        assert calls.count((x, t, False)) == calls.count((x, t, True)) == 1
        assert curve.zones[-1] is zone
