"""Runnable conservation and monotonicity checks over a solution field.

Every property the dynamics guarantees is packaged as a check returning a
CheckReport with an explicit measured value and bound, so a full diagnostic
run is a list of pass/fail lines rather than a pile of ad-hoc assertions.
Randomized piecewise-linear fixtures are generated from a seeded RNG with
bounded slopes and a nonnegative gap built in by construction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .intervals import IntervalUnion
from .levelset import SolutionField, _level_set, _LevelPair
from .problem import Domain, PiecewiseLinear, ProblemSpec

INF = math.inf
QUADRATURE_N = 2048  # midpoint-rule cells of the momentum and energy integrals


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    measured: float
    bound: float
    details: str = ""

    @classmethod
    def from_measure(cls, name: str, measured: float, bound: float, details: str = "") -> "CheckReport":
        return cls(name, bool(measured <= bound), float(measured), float(bound), details)

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Conservation of momentum and energy (segment domains)
# ---------------------------------------------------------------------------


def check_momentum_energy(
    field: SolutionField, times: Sequence[float], quadrature_n: int = QUADRATURE_N
) -> Tuple[CheckReport, CheckReport]:
    """Composite-midpoint integrals of mu and mu^2 + sigma^2 over the segment.

    Both are conserved exactly by the dynamics; the reported bound is the
    midpoint-rule error for piecewise-linear integrands, which is confined to
    the cells containing kinks.  Every time is evaluated on one grid with
    one bracket.  Raises ValueError where the integrals or their bounds
    overflow.
    """
    spec = field.spec
    if not spec.domain.is_segment:
        raise ValueError("momentum/energy integrals need a segment domain")
    a1, a2 = spec.domain.a1, spec.domain.a2
    h = (a2 - a1) / quadrature_n
    xs = a1 + h * (np.arange(quadrature_n) + 0.5)
    lam = spec.lipschitz
    v_lo, v_hi = spec.v0.min_max_on(a1, a2)
    w_lo, w_hi = spec.w0.min_max_on(a1, a2)
    m_scale = max(abs(v_hi + w_hi), abs(v_lo + w_lo), 1.0)
    n_kinks = spec.v0.n + spec.w0.n + 8
    mu_bound = n_kinks * lam * h * h
    try:
        en_bound = (a2 - a1) * h * h * (2 * lam) ** 2 / 24.0 + n_kinks * 4.0 * m_scale * lam * h * h
    except OverflowError:  # float ** raises where * gives inf; reported below
        en_bound = math.inf
    V, W = field.eval_grid(xs, times)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        mu, sg = V + W, V - W
        mus = h * np.sum(mu, axis=1)
        ens = h * np.sum(mu * mu + sg * sg, axis=1)
        dev_mu, dev_en = float(np.max(np.abs(mus - mus[0]))), float(np.max(np.abs(ens - ens[0])))
    # solver tolerance enters linearly through the integrand values
    tol_term = 2.0 * field.tolerance * max(1.0, v_hi - w_lo) * (a2 - a1)
    if not all(map(math.isfinite, (*mus, *ens, dev_mu, dev_en, en_bound, 8 * m_scale * tol_term))):
        raise ValueError("the momentum or energy integral overflows: the values are too large")
    return (
        CheckReport.from_measure(
            "momentum", dev_mu, mu_bound + 4 * tol_term, f"integral of mu at t={list(times)}"
        ),
        CheckReport.from_measure(
            "energy",
            dev_en,
            en_bound + 8 * m_scale * tol_term,
            f"integral of mu^2 + sigma^2 at t={list(times)}",
        ),
    )


# ---------------------------------------------------------------------------
# Occupation measure
# ---------------------------------------------------------------------------


def _tail_drift(iu: IntervalUnion, velocity: float) -> float:
    """Rate at which the windowed measure of a translating set drifts due to
    its unbounded tails (a half-line anchored at a window edge gains or loses
    length at the translation speed)."""
    d = 0.0
    if iu.has_lower_tail():
        d += velocity
    if iu.has_upper_tail():
        d -= velocity
    return d


def occupation_difference(
    spec: ProblemSpec, b: float, t: float, window: Tuple[float, float]
) -> float:
    """The conserved level quantity: Leb A(v,b,t) - Leb A(w,b,t) over the
    window, with drift corrections for unbounded tails on the whole line.

    Equal-rate annihilation removes the same length from both sets while
    translation preserves length, so this difference is constant in t (it is
    the difference of occupation measures in mean/dispersion variables).
    """
    return _occupation(spec, _LevelPair(spec, b), t, window)


def _occupation(spec: ProblemSpec, level: _LevelPair, t: float, window: Tuple[float, float]) -> float:
    """``occupation_difference`` at the level b of ``level``."""
    lo, hi = window
    sub = _level_set(spec, level, t, 0)
    sup = _level_set(spec, level, t, 1)
    m_sub = sub.clip(lo, hi).measure() - t * _tail_drift(sub, +1.0)
    m_sup = sup.clip(lo, hi).measure() - t * _tail_drift(sup, -1.0)
    return m_sub - m_sup


def check_occupation(
    field: SolutionField,
    b_values: Sequence[float],
    times: Sequence[float],
    window: Tuple[float, float],
) -> CheckReport:
    """Constancy in t of the occupation difference, from exact interval
    lengths (no sampling), to within 1e-8.

    The difference is conserved for any window containing all finite
    level-set structure over the checked horizon; shallow tails can place
    level crossings far beyond the breakpoint span, so the window is widened
    per level as needed.
    """
    spec = field.spec
    horizon = max(times) if len(list(times)) else 0.0
    worst = 0.0
    for b in b_values:
        lo, hi = window
        level = _LevelPair(spec, b)  # one level serves both sides at every time
        if not spec.domain.is_segment:
            pts = [e for s in (level.blue, level.red) for iv in s for e in iv if math.isfinite(e)]
            if pts:
                lo = min(lo, min(pts) - horizon - 1.0)
                hi = max(hi, max(pts) + horizon + 1.0)
        vals = [_occupation(spec, level, t, (lo, hi)) for t in times]
        finite = [v for v in vals if math.isfinite(v)]
        if len(finite) >= 2:
            worst = max(worst, max(finite) - min(finite))
    return CheckReport.from_measure(
        "occupation", worst, 1e-8, f"{len(list(b_values))} levels x {len(list(times))} times"
    )


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------


def check_total_variation(
    field: SolutionField,
    times: Sequence[float],
    window: Tuple[float, float],
    samples: int = 512,
) -> CheckReport:
    """Sampled total variation of v and w over the window: non-increasing in
    t up to the sampling slack 2 * lambda * spacing.

    Monotonicity of the total variation holds on the whole line for data of
    finite global variation; with sloped tails, or on a segment window,
    variation can slide in across the window edges, so the check then only
    reports the measured drift (passed unconditionally) instead of
    asserting the bound.  Every time is evaluated on one grid with one
    bracket.
    """
    spec = field.spec
    lo, hi = max(window[0], spec.domain.a1), min(window[1], spec.domain.a2)
    flat_tails = (
        not spec.domain.is_segment
        and spec.v0.left_slope == 0.0
        and spec.v0.right_slope == 0.0
        and spec.w0.left_slope == 0.0
        and spec.w0.right_slope == 0.0
    )
    xs = np.linspace(lo, hi, samples)
    spacing = xs[1] - xs[0]
    lam = spec.lipschitz
    tv = np.sum(np.abs(np.diff(field.eval_grid(xs, sorted(times)), axis=2)), axis=2)  # (v, w) x times
    worst = float(np.max(np.diff(tv, axis=1), initial=0.0))
    slack = float(2.0 * lam * spacing + 8.0 * field.tolerance * samples)
    details = f"times={sorted(times)}"
    if not flat_tails:
        details += "; reported only (windowed variation can grow through the window edges for this domain/data)"
    return CheckReport("total_variation", not flat_tails or worst <= slack, worst, slack, details)


# ---------------------------------------------------------------------------
# Eventual freezing on a segment
# ---------------------------------------------------------------------------


def check_eventual_freeze(field: SolutionField) -> CheckReport:
    """After 2 (a2 - a1) time units a segment solution is frozen (v = w),
    constant in time, and nondecreasing in x.  Every time is evaluated on
    one grid of 101 points with one bracket."""
    spec = field.spec
    if not spec.domain.is_segment:
        raise ValueError("eventual freezing applies to segment domains")
    a1, a2 = spec.domain.a1, spec.domain.a2
    t_star = 2.0 * (a2 - a1)
    xs = np.linspace(a1, a2, 101)
    V, W = field.eval_grid(xs, [t_star, 1.25 * t_star, 1.5 * t_star])
    worst = max(
        float(np.max(np.abs(V - W))),
        float(np.max(np.abs(V - V[0]))),
        float(np.max(np.maximum(0.0, -np.diff(V, axis=1)))),
    )
    bound = field.zone_epsilon() / 5.0  # 2x the scaled solver tolerance
    return CheckReport.from_measure("eventual_freeze", worst, bound, f"t >= {t_star:g}")


# ---------------------------------------------------------------------------
# Monotone dependence and the 1-Lipschitz solution map
# ---------------------------------------------------------------------------


def _points(sample_points: int, seed: int, x_lo: float, x_hi: float, t_hi: float):
    """Seeded random points (x, t), each drawing x from [x_lo, x_hi) and
    then t from [0, t_hi)."""
    rng = np.random.default_rng(seed)
    for _ in range(sample_points):
        x = rng.uniform(x_lo, x_hi)
        yield x, rng.uniform(0.0, t_hi)


def _assert_ordered(fa: PiecewiseLinear, fb: PiecewiseLinear, what: str):
    grid = sorted(set(fa.xs) | set(fb.xs))
    if any(fa(x) > fb(x) + 1e-12 for x in grid):
        raise ValueError(f"{what}: ordering precondition violated")
    if fa.left_slope is not None and fb.left_slope is not None and fa.left_slope < fb.left_slope - 1e-12:
        raise ValueError(f"{what}: ordering violated on the left tail")
    if fa.right_slope is not None and fb.right_slope is not None and fa.right_slope > fb.right_slope + 1e-12:
        raise ValueError(f"{what}: ordering violated on the right tail")


def check_monotone_dependence(
    spec_a: ProblemSpec,
    spec_b: ProblemSpec,
    sample_points: int = 200,
    seed: int = 0,
) -> CheckReport:
    """Pointwise larger initial data yields pointwise larger solutions, at tolerance 1e-10."""
    _assert_ordered(spec_a.v0, spec_b.v0, "v0")
    _assert_ordered(spec_a.w0, spec_b.w0, "w0")
    fa = SolutionField(spec_a, tolerance=1e-10)
    fb = SolutionField(spec_b, tolerance=1e-10)
    lo, hi = spec_a.breakpoint_span()
    pad = 0.0 if spec_a.domain.is_segment else 1.0
    points = _points(sample_points, seed, lo - pad, hi + pad, hi - lo + 1.0)
    pairs = ((fa.eval_pair(x, t), fb.eval_pair(x, t)) for x, t in points)
    worst = max((a - b for pa, pb in pairs for a, b in zip(pa, pb)), default=-INF)
    bound = fa.zone_epsilon() / 5.0 + fb.zone_epsilon() / 5.0
    return CheckReport.from_measure("monotone_dependence", worst, bound, f"{sample_points} samples")


def data_sup_distance(spec_a: ProblemSpec, spec_b: ProblemSpec, lo: float, hi: float) -> float:
    """Exact sup-norm distance of the initial pairs over [lo, hi]."""
    d = 0.0
    for fa, fb in ((spec_a.v0, spec_b.v0), (spec_a.w0, spec_b.w0)):
        diff = fa - fb
        grid = [lo] + [x for x in diff.xs if lo < x < hi] + [hi]
        d = max(d, max(abs(diff(x)) for x in grid))
    return d


def check_lipschitz_map(
    spec_a: ProblemSpec,
    spec_b: ProblemSpec,
    window: float,
    sample_points: int = 200,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> CheckReport:
    """The solution map does not expand the sup norm.

    On the whole line the solution is compared on [-a, a] x [0, a) against
    the data distance on [-2a, 2a] (domain of dependence); on a segment the
    comparison is global.
    """
    a = float(window)
    fa = SolutionField(spec_a, tolerance=tolerance)
    fb = SolutionField(spec_b, tolerance=tolerance)
    if spec_a.domain.is_segment:
        x_lo, x_hi = spec_a.domain.a1, spec_a.domain.a2
        d_inf = data_sup_distance(spec_a, spec_b, x_lo, x_hi)
        t_hi = 2.0 * (x_hi - x_lo)
    else:
        x_lo, x_hi = -a, a
        d_inf = data_sup_distance(spec_a, spec_b, -2 * a, 2 * a)
        t_hi = a
    points = _points(sample_points, seed, x_lo, x_hi, t_hi * 0.999)
    pairs = ((fa.eval_pair(x, t), fb.eval_pair(x, t)) for x, t in points)
    worst = max((abs(a - b) for pa, pb in pairs for a, b in zip(pa, pb)), default=0.0)
    bound = d_inf + 2.0 * (fa.zone_epsilon() + fb.zone_epsilon()) / 5.0
    return CheckReport.from_measure(
        "lipschitz_map", worst, bound, f"data distance {d_inf:.3e}, {sample_points} samples"
    )


# ---------------------------------------------------------------------------
# Randomized fixtures
# ---------------------------------------------------------------------------


def random_pl_spec(rng: np.random.Generator, segment: Optional[bool] = None) -> ProblemSpec:
    """Seeded random admissible spec: v0 a random walk with slopes below 4
    over 3 to 12 breakpoints in [-5, 5], w0 the same minus a nonnegative
    random gap (zero gap at segment endpoints)."""
    if segment is None:
        segment = bool(rng.random() < 0.5)
    k = int(rng.integers(3, 13))
    xs = np.sort(rng.uniform(-5.0, 5.0, size=k))
    while np.min(np.diff(xs)) < 1e-3:
        xs = np.sort(rng.uniform(-5.0, 5.0, size=k))
    steps = np.r_[1.0, np.diff(xs)]
    vy = np.cumsum(rng.uniform(-4.0, 4.0, size=k) * steps)
    gap = np.abs(np.cumsum(rng.uniform(-3.0, 3.0, size=k) * steps))
    if segment:
        gap[0] = 0.0
        gap[-1] = 0.0
        v0 = PiecewiseLinear(xs, vy)
        w0 = PiecewiseLinear(xs, vy - gap)
        return ProblemSpec(Domain.segment(xs[0], xs[-1]), v0, w0)
    vls, vrs = rng.uniform(-4.0, 4.0, size=2)
    gls = -abs(rng.uniform(0.0, 2.0))
    grs = abs(rng.uniform(0.0, 2.0))
    v0 = PiecewiseLinear(xs, vy, vls, vrs)
    w0 = PiecewiseLinear(xs, vy - gap, vls - gls, vrs - grs)
    return ProblemSpec(Domain.whole_line(), v0, w0)


def perturb_spec(spec: ProblemSpec, rng: np.random.Generator, amplitude: float) -> ProblemSpec:
    """Admissible perturbation: a common shift plus a nonnegative gap widening
    (zero at segment endpoints), so ordering and boundary ties survive.  It
    is laid on the breakpoint span, or on [lo - 1, lo + 1] for a one-point
    span."""
    lo, hi = spec.breakpoint_span()
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    k = int(rng.integers(3, 7))
    xs = np.linspace(lo, hi, k)
    common = rng.uniform(-amplitude, amplitude, size=k)
    widen = rng.uniform(0.0, amplitude, size=k)
    if spec.domain.is_segment:
        widen[0] = 0.0
        widen[-1] = 0.0
        delta_c = PiecewiseLinear(xs, common)
        delta_g = PiecewiseLinear(xs, widen)
    else:
        delta_c = PiecewiseLinear(xs, common, 0.0, 0.0)
        delta_g = PiecewiseLinear(xs, widen, 0.0, 0.0)
    return ProblemSpec(spec.domain, spec.v0 + delta_c + delta_g, spec.w0 + delta_c)


# ---------------------------------------------------------------------------
# Default diagnostic battery (CLI `check`)
# ---------------------------------------------------------------------------


def check_constraint(field: SolutionField, sample_points: int = 400, seed: int = 0) -> CheckReport:
    """v >= w - 2 tolerance on a random sample of space-time points."""
    lo, hi = field.spec.breakpoint_span()
    pad = 0.0 if field.spec.domain.is_segment else 2.0
    points = _points(sample_points, seed, lo - pad, hi + pad, (hi - lo) + 1.0)
    pairs = (field.eval_pair(x, t) for x, t in points)
    worst = max((w - v for v, w in pairs), default=-INF)
    return CheckReport.from_measure("constraint", worst, field.zone_epsilon() / 5.0)


def random_levels(spec: ProblemSpec, rng: np.random.Generator, n: int) -> List[float]:
    """n levels drawn uniformly from the data's values over the breakpoint
    span, widened by 1/2 on both sides."""
    lo, hi = spec.breakpoint_span()
    v_lo, v_hi = spec.v0.min_max_on(lo, hi)
    w_lo, w_hi = spec.w0.min_max_on(lo, hi)
    return rng.uniform(min(v_lo, w_lo) - 0.5, max(v_hi, w_hi) + 0.5, size=n).tolist()


def run_default_checks(
    field: SolutionField, seed: int = 0, times: Optional[Sequence[float]] = None
) -> List[CheckReport]:
    spec = field.spec
    lo, hi = spec.breakpoint_span()
    pad = (hi - lo) + 1.0
    horizon = sorted(times) if times else [0.0, 0.25 * pad, 0.5 * pad, pad]
    levels = random_levels(spec, np.random.default_rng(seed), 12)
    reports = [
        check_constraint(field, seed=seed),
        check_occupation(field, levels, horizon, (lo - 2 * pad, hi + 2 * pad)),
        check_total_variation(field, horizon, (lo - pad, hi + pad)),
    ]
    if spec.domain.is_segment:
        reports.extend(check_momentum_energy(field, horizon))
        reports.append(check_eventual_freeze(field))
    return reports
