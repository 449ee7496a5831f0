import numpy as np
import pytest

from freezeflow import (
    FIXTURES,
    Domain,
    PiecewiseLinear,
    ProblemSpec,
    SolutionField,
    check_constraint,
    check_eventual_freeze,
    check_lipschitz_map,
    check_momentum_energy,
    check_monotone_dependence,
    check_occupation,
    check_total_variation,
    get_fixture,
    occupation_difference,
    perturb_spec,
    random_pl_spec,
    run_default_checks,
    validate,
)

PL = PiecewiseLinear


@pytest.fixture
def calls(monkeypatch):
    """Counts the SolutionField queries made while a test runs."""
    counts = dict.fromkeys(("eval_grid", "eval_pair", "eval_v", "eval_w"), 0)
    for name in counts:

        def counted(self, *args, _name=name, _method=getattr(SolutionField, name)):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SolutionField, name, counted)
    return counts


GRID_CHECKS = {
    "momentum_energy": lambda field: check_momentum_energy(field, [0.0, 0.5, 1.0, 2.0], 256),
    "total_variation": lambda field: check_total_variation(field, [0.0, 0.5, 1.0, 2.0], (-1.0, 3.0), 101),
    "eventual_freeze": check_eventual_freeze,
}


@pytest.mark.parametrize("check", GRID_CHECKS.values(), ids=list(GRID_CHECKS))
def test_grid_checks_make_one_grid_call(calls, tent_field, check):
    check(tent_field)
    assert calls == {"eval_grid": 1, "eval_pair": 0, "eval_v": 0, "eval_w": 0}


@pytest.mark.parametrize(
    "check",
    [check_monotone_dependence, lambda a, b, **kw: check_lipschitz_map(a, b, window=2.0, **kw)],
    ids=["monotone_dependence", "lipschitz_map"],
)
def test_paired_checks_ask_each_field_once_per_point(calls, tent_spec, check):
    check(tent_spec, tent_spec, sample_points=7)
    assert calls == {"eval_grid": 0, "eval_pair": 14, "eval_v": 0, "eval_w": 0}


def _seeded_points(n, seed, x_lo, x_hi, t_hi):
    """The sampled checks' points: x, then t, for each point."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(x_lo, x_hi), rng.uniform(0.0, t_hi)) for _ in range(n)]


@pytest.mark.parametrize(
    "case", [*sorted(FIXTURES), 0, 1, 2, 3], ids=lambda c: c if isinstance(c, str) else f"random-{c}"
)
def test_sampled_checks_equal_a_per_side_reference(case):
    # the checks ask eval_pair once per field and point; a reference asking
    # eval_v and eval_w on the same seeded points gives the same numbers
    if isinstance(case, str):
        spec = get_fixture(case).build()
        upper = ProblemSpec(spec.domain, spec.v0.shift_value(0.25), spec.w0.shift_value(0.25))
    else:
        rng = np.random.default_rng(case)
        spec = random_pl_spec(rng, segment=bool(case % 2))
        other = perturb_spec(spec, rng, 0.3)
        upper = ProblemSpec(spec.domain, other.v0.shift_value(0.5), other.w0.shift_value(0.5))
    fa, fb = SolutionField(spec, tolerance=1e-10), SolutionField(upper, tolerance=1e-10)
    lo, hi = spec.breakpoint_span()
    seg, n = spec.domain.is_segment, 25

    def sides(x, t):
        return (fa.eval_v(x, t) - fb.eval_v(x, t), fa.eval_w(x, t) - fb.eval_w(x, t))

    pad = 0.0 if seg else 2.0
    points = _seeded_points(n, 1, lo - pad, hi + pad, hi - lo + 1.0)
    expected = max(fa.eval_w(x, t) - fa.eval_v(x, t) for x, t in points)
    assert check_constraint(fa, sample_points=n, seed=1).measured == expected
    pad = 0.0 if seg else 1.0
    points = _seeded_points(n, 2, lo - pad, hi + pad, hi - lo + 1.0)
    expected = max(d for x, t in points for d in sides(x, t))
    assert check_monotone_dependence(spec, upper, sample_points=n, seed=2).measured == expected
    x_lo, x_hi, t_hi = (lo, hi, 2.0 * (hi - lo)) if seg else (-1.5, 1.5, 1.5)
    points = _seeded_points(n, 3, x_lo, x_hi, t_hi * 0.999)
    expected = max(abs(d) for x, t in points for d in sides(x, t))
    assert check_lipschitz_map(spec, upper, window=1.5, sample_points=n, seed=3).measured == expected


class TestMomentumEnergy:
    def test_frozen_data_exact_integrals(self, frozen_ramp_field):
        # v0 = w0 = x on [0, 1]: integral of mu = 1, of mu^2 + sigma^2 = 4/3
        rep_mu, rep_en = check_momentum_energy(frozen_ramp_field, [0.0, 1.0, 3.0], 1024)
        assert rep_mu.passed and rep_en.passed
        assert rep_mu.measured < 1e-9
        assert rep_en.measured < 1e-9

    def test_tent_conserved(self, tent_field):
        rep_mu, rep_en = check_momentum_energy(tent_field, [0.0, 0.5, 1.0, 2.0, 4.0], 2048)
        assert rep_mu.passed, rep_mu
        assert rep_en.passed, rep_en

    def test_instant_thaw_segment(self):
        field = SolutionField(get_fixture("downhill").build(), tolerance=1e-11)
        rep_mu, rep_en = check_momentum_energy(field, [0.0, 0.5, 1.0, 2.0], 2048)
        assert rep_mu.passed and rep_en.passed

    def test_whole_line_rejected(self, wedge_field):
        with pytest.raises(ValueError):
            check_momentum_energy(wedge_field, [0.0, 1.0])


class TestOccupation:
    def test_t0_identity(self, tent_field):
        rep = check_occupation(tent_field, [0.3], [0.0, 0.0], (0.0, 2.0))
        assert rep.passed and rep.measured == 0.0

    def test_wedge_windowed(self, wedge_field):
        bs = np.linspace(0.1, 2.5, 8)
        rep = check_occupation(wedge_field, bs, [0.0, 1.0, 2.0], (-10.0, 10.0))
        assert rep.passed, rep

    def test_tent_segment(self, tent_field):
        bs = np.linspace(-0.9, 0.9, 10)
        rep = check_occupation(tent_field, bs, [0.0, 0.5, 1.3, 2.0, 4.0], (0.0, 2.0))
        assert rep.passed, rep

    def test_difference_is_exactly_conserved(self, tent_spec):
        # by-hand values at b = 0.5: sublevel [0, .5] u [1.5, 2] (measure 1),
        # superlevel empty, so the difference is 1 for all times
        for t in (0.0, 0.3, 0.6, 1.0, 2.5):
            assert abs(occupation_difference(tent_spec, 0.5, t, (0.0, 2.0)) - 1.0) < 1e-12


class TestTotalVariation:
    def test_frozen_constant(self, frozen_ramp_field):
        rep = check_total_variation(frozen_ramp_field, [0.0, 1.0, 2.0], (0.0, 1.0), samples=301)
        assert rep.passed
        assert abs(rep.measured) < 1e-6

    def test_wedge_non_increasing(self, wedge_field):
        rep = check_total_variation(wedge_field, [0.0, 0.5, 1.0, 2.0], (-6.0, 6.0), samples=601)
        assert rep.passed, rep

    def test_tent_variation_exactly_conserved(self, tent_field):
        # the symmetric tent converts its down-stroke into up-stroke through
        # the boundary reflections: variation is conserved, not lost
        xs = np.linspace(0.0, 2.0, 801)
        tvs = []
        for t in (0.0, 4.0):
            V, _ = tent_field.eval_grid(xs, [t])
            tvs.append(float(np.sum(np.abs(np.diff(V[0])))))
        assert abs(tvs[0] - 2.0) < 1e-8 and abs(tvs[1] - 2.0) < 1e-8

    def test_capped_wedge_strictly_loses_variation(self):
        # a v-minimum dying on the thawing boundary strictly reduces the
        # variation; flat tails make the windowed value the global one
        v0 = PL([-2.0, 0.0, 2.0], [2.0, 0.0, 2.0], 0.0, 0.0)
        w0 = PL([-2.0, 2.0], [-1.0, 1.0], 0.0, 0.0)
        field = SolutionField(ProblemSpec(Domain.whole_line(), v0, w0), tolerance=1e-11)
        rep = check_total_variation(field, [0.0, 0.5, 1.0], (-6.0, 6.0), samples=801)
        assert rep.passed  # assertive mode: flat tails
        xs = np.linspace(-6.0, 6.0, 801)
        tvs = []
        for t in (0.0, 1.0):
            V, _ = field.eval_grid(xs, [t])
            tvs.append(float(np.sum(np.abs(np.diff(V[0])))))
        assert tvs[1] < tvs[0] - 0.5


class TestEventualFreeze:
    def test_seg_tent(self):
        field = SolutionField(get_fixture("seg-tent").build(), tolerance=1e-11)
        rep = check_eventual_freeze(field)
        assert rep.passed, rep

    def test_already_frozen_passes_at_zero(self, frozen_ramp_field):
        rep = check_eventual_freeze(frozen_ramp_field)
        assert rep.passed

    def test_whole_line_rejected(self, wedge_field):
        with pytest.raises(ValueError, match="segment domains"):
            check_eventual_freeze(wedge_field)

    @pytest.mark.parametrize("name", ["seg-tent", "tent"])
    def test_equals_a_per_row_reference(self, name):
        # every row spans the segment, so each row's own bracket is the
        # bracket the check's one grid shares
        field = SolutionField(get_fixture(name).build(), tolerance=1e-10)
        a1, a2 = field.spec.domain.a1, field.spec.domain.a2
        t_star, xs = 2.0 * (a2 - a1), np.linspace(a1, a2, 101)
        rows = [field.eval_grid(xs, [t]) for t in (t_star, 1.25 * t_star, 1.5 * t_star)]
        base = rows[0][0][0]
        expected = 0.0
        for (v,), (w,) in rows:
            expected = max(expected, np.max(np.abs(v - w)), np.max(np.abs(v - base)), np.max(-np.diff(v)))
        assert check_eventual_freeze(field).measured == expected

    def test_downhill_mirror_identity(self):
        # decreasing mu0 with sigma0 = 0 on [-a, a]: mu(x, t) = mu(-x, 0)
        # for t >= 4a
        spec = get_fixture("downhill").build()
        field = SolutionField(spec, tolerance=1e-11)
        assert check_eventual_freeze(field).passed
        for x in np.linspace(-1, 1, 21):
            v, w = field.eval_pair(x, 4.0)
            mu = v + w
            mu0_mirror = spec.v0(-x) + spec.w0(-x)
            assert abs(mu - mu0_mirror) < 1e-6
            assert abs(v - w) < 1e-8


class TestMonotoneDependence:
    def test_identical_specs(self, tent_spec):
        rep = check_monotone_dependence(tent_spec, tent_spec, sample_points=50)
        assert rep.passed

    def test_shifted_up(self, wedge_spec):
        up = ProblemSpec(
            wedge_spec.domain, wedge_spec.v0.shift_value(1.0), wedge_spec.w0.shift_value(1.0)
        )
        rep = check_monotone_dependence(wedge_spec, up, sample_points=80)
        assert rep.passed, rep

    def test_random_ordered_pair(self, rng):
        spec = random_pl_spec(rng, segment=False)
        upper = perturb_spec(spec, rng, 0.5)
        bump = ProblemSpec(
            spec.domain,
            upper.v0.shift_value(0.75),
            upper.w0.shift_value(0.75),
        )
        rep = check_monotone_dependence(spec, bump, sample_points=60, seed=3)
        assert rep.passed, rep

    def test_precondition_enforced(self, wedge_spec):
        down = ProblemSpec(
            wedge_spec.domain, wedge_spec.v0.shift_value(-1.0), wedge_spec.w0.shift_value(-1.0)
        )
        with pytest.raises(ValueError):
            check_monotone_dependence(wedge_spec, down, sample_points=10)

    @pytest.mark.parametrize(
        "slopes, side", [((2.0, 1.0), "left"), ((1.0, 0.5), "right")], ids=["left", "right"]
    )
    def test_tail_ordering_enforced(self, slopes, side):
        # the data are ordered at every breakpoint, but not on one tail
        w0 = PL([0.0, 1.0], [-1.0, 0.0], 1.0, 1.0)
        low = ProblemSpec(Domain.whole_line(), PL([0.0, 1.0], [0.0, 1.0], 1.0, 1.0), w0)
        high = ProblemSpec(Domain.whole_line(), PL([0.0, 1.0], [0.0, 1.0], *slopes), w0)
        with pytest.raises(ValueError, match=f"v0: ordering violated on the {side} tail"):
            check_monotone_dependence(low, high, sample_points=10)


class TestLipschitzMap:
    def test_identical_is_zero(self, tent_spec):
        rep = check_lipschitz_map(tent_spec, tent_spec, window=1.0, sample_points=40)
        assert rep.passed and rep.measured < 1e-8

    def test_uniform_shift(self, wedge_spec):
        eps = 0.125
        shifted = ProblemSpec(
            wedge_spec.domain, wedge_spec.v0.shift_value(eps), wedge_spec.w0.shift_value(eps)
        )
        rep = check_lipschitz_map(wedge_spec, shifted, window=2.0, sample_points=60, tolerance=1e-12)
        assert rep.passed
        assert rep.measured <= eps + 1e-8

    def test_random_perturbation(self, rng):
        spec = random_pl_spec(rng, segment=True)
        other = perturb_spec(spec, rng, 0.3)
        assert validate(other).errors() == ()
        rep = check_lipschitz_map(spec, other, window=2.0, sample_points=60, tolerance=1e-12)
        assert rep.passed, rep


class TestDefaultBattery:
    def test_segment_battery_all_pass(self):
        field = SolutionField(get_fixture("seg-tent").build(), tolerance=1e-11)
        reports = run_default_checks(field, seed=1)
        names = {r.name for r in reports}
        assert {"constraint", "occupation", "total_variation", "momentum", "energy", "eventual_freeze"} <= names
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]

    def test_whole_line_battery_all_pass(self, wedge_field):
        reports = run_default_checks(wedge_field, seed=2)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]
