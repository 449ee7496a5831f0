"""Initial data model: piecewise-linear functions, domains, problem specs.

Initial conditions are continuous piecewise-linear (PL) functions.  On the
whole line they carry linear extension slopes beyond the first and last
breakpoints, so level sets and evaluations stay exact arbitrarily far out.
The pair (v0, w0) with v0 >= w0 fully determines the evolution; the
diagonalizing change of variables mu = v + w, sigma = v - w is provided for
callers that think in mean/dispersion coordinates.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .intervals import merge_sorted

INF = math.inf


class DomainKind(Enum):
    WHOLE_LINE = "whole_line"
    SEGMENT = "segment"


@dataclass(frozen=True)
class Domain:
    kind: DomainKind
    a1: float = -INF
    a2: float = INF

    def __post_init__(self):
        if self.kind is DomainKind.SEGMENT:
            if not (math.isfinite(self.a1) and math.isfinite(self.a2) and self.a1 < self.a2):
                raise ValueError("segment domain requires finite a1 < a2")

    @classmethod
    def whole_line(cls) -> "Domain":
        return cls(DomainKind.WHOLE_LINE)

    @classmethod
    def segment(cls, a1: float, a2: float) -> "Domain":
        return cls(DomainKind.SEGMENT, float(a1), float(a2))

    @property
    def is_segment(self) -> bool:
        return self.kind is DomainKind.SEGMENT

    def contains(self, x: float) -> bool:
        return not self.is_segment or self.a1 <= x <= self.a2


class PiecewiseLinear:
    """A continuous piecewise-linear function.

    ``breakpoints`` are strictly increasing; ``values`` match them.  Between
    breakpoints evaluation is linear interpolation.  Outside the breakpoint
    range, evaluation uses ``left_slope``/``right_slope`` when given; on
    bounded domains those may be omitted and evaluation clamps to the ends.
    Instances are immutable; all operations return new objects.
    """

    __slots__ = ("xs", "ys", "left_slope", "right_slope", "_xs_arr", "_ys_arr", "_runs", "_neg_ys")

    def __init__(
        self,
        breakpoints: Sequence[float],
        values: Sequence[float],
        left_slope: Optional[float] = None,
        right_slope: Optional[float] = None,
    ):
        xs = tuple(float(x) for x in breakpoints)
        ys = tuple(float(y) for y in values)
        if len(xs) == 0 or len(xs) != len(ys):
            raise ValueError("breakpoints and values must be nonempty, equal-length")
        for a, b in zip(xs, xs[1:]):
            if not b > a:
                raise ValueError("breakpoints must be strictly increasing")
        self.left_slope = None if left_slope is None else float(left_slope)
        self.right_slope = None if right_slope is None else float(right_slope)
        slopes = tuple(s for s in (self.left_slope, self.right_slope) if s is not None)
        if any(not math.isfinite(v) for v in xs + ys + slopes):
            raise ValueError("breakpoints, values and slopes must be finite")
        self.xs = xs
        self.ys = ys
        self._xs_arr: Optional[np.ndarray] = None
        self._ys_arr: Optional[np.ndarray] = None
        self._runs: Optional[Tuple[Tuple[int, int, bool], ...]] = None
        self._neg_ys: Tuple[float, ...] = ()

    # -- construction helpers ------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls((0.0,), (value,), 0.0, 0.0)

    @classmethod
    def linear(cls, slope: float, intercept: float = 0.0) -> "PiecewiseLinear":
        return cls((0.0,), (intercept,), slope, slope)

    @classmethod
    def from_callable(
        cls,
        f: Callable[[np.ndarray], np.ndarray],
        lo: float,
        hi: float,
        n: int,
        left_slope: Optional[float] = None,
        right_slope: Optional[float] = None,
    ) -> "PiecewiseLinear":
        """PL sampler on a uniform grid of ``n`` breakpoints over [lo, hi].

        For data that is merely continuous the solution error is bounded by
        the sup-norm sampling error (the solution map is 1-Lipschitz), so the
        caller controls accuracy through ``n`` alone.
        """
        xs = np.linspace(lo, hi, n)
        ys = np.asarray(f(xs), dtype=float)
        if left_slope is None:
            left_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        if right_slope is None:
            right_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return cls(xs, ys, left_slope, right_slope)

    # -- evaluation ------------------------------------------------------

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._xs_arr is None:
            self._xs_arr = np.asarray(self.xs)
            self._ys_arr = np.asarray(self.ys)
        return self._xs_arr, self._ys_arr

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self._eval_array(x)
        x = float(x)
        if math.isnan(x):
            raise ValueError(f"cannot evaluate at x={x!r}")
        return self._eval_scalar(x)

    def _eval_scalar(self, x: float) -> float:
        xs, ys = self.xs, self.ys
        if x <= xs[0]:
            s = self.left_slope
            return ys[0] if s is None or x == xs[0] else ys[0] + s * (x - xs[0])
        if x >= xs[-1]:
            s = self.right_slope
            return ys[-1] if s is None or x == xs[-1] else ys[-1] + s * (x - xs[-1])
        i = bisect_right(xs, x) - 1
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[i], ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        xs, ys = self._arrays()
        out = np.interp(x, xs, ys)
        if self.left_slope is not None:
            mask = x < xs[0]
            if mask.any():
                out = np.where(mask, ys[0] + self.left_slope * (x - xs[0]), out)
        if self.right_slope is not None:
            mask = x > xs[-1]
            if mask.any():
                out = np.where(mask, ys[-1] + self.right_slope * (x - xs[-1]), out)
        return out

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.xs)

    def segment_slopes(self) -> list[float]:
        xs, ys = self.xs, self.ys
        return [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]

    def max_abs_slope(self) -> float:
        slopes = [abs(s) for s in self.segment_slopes()]
        if self.left_slope is not None:
            slopes.append(abs(self.left_slope))
        if self.right_slope is not None:
            slopes.append(abs(self.right_slope))
        return max(slopes, default=0.0)

    def flat_segments(self) -> list[Tuple[float, float]]:
        out = []
        for i, s in enumerate(self.segment_slopes()):
            if s == 0.0:
                out.append((self.xs[i], self.xs[i + 1]))
        return out

    def min_max_on(self, lo: float, hi: float) -> Tuple[float, float]:
        """Exact min and max over [lo, hi] (tails included on the whole line)."""
        for name, end in (("lo", lo), ("hi", hi)):
            if math.isnan(end):
                raise ValueError(f"min_max_on: {name}={end!r} is not a number")
        if hi < lo:
            lo, hi = hi, lo
        cand = [self._eval_scalar(lo), self._eval_scalar(hi)]
        # f is monotone along each run, so inside (lo, hi] only the run ends
        # can beat the values at lo and hi
        xs, ys = self.xs, self.ys
        runs = self._runs or self._monotone_runs()
        for i0, _, _ in runs:
            if lo < xs[i0] <= hi:
                cand.append(ys[i0])
        last = runs[-1][1]
        if lo < xs[last] <= hi:
            cand.append(ys[last])
        return min(cand), max(cand)

    # -- algebra ---------------------------------------------------------

    def _binary(self, other: "PiecewiseLinear", op) -> "PiecewiseLinear":
        grid = sorted(set(self.xs) | set(other.xs))
        ys = [op(self._eval_scalar(x), other._eval_scalar(x)) for x in grid]

        def ext(sa, sb):
            if sa is None or sb is None:
                return None
            return op(sa, sb)

        # extension slopes combine linearly for +/- (op is +/- on slopes too)
        return PiecewiseLinear(
            grid, ys, ext(self.left_slope, other.left_slope), ext(self.right_slope, other.right_slope)
        )

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._binary(other, lambda a, b: a - b)

    def scale(self, c: float) -> "PiecewiseLinear":
        return PiecewiseLinear(
            self.xs,
            tuple(c * y for y in self.ys),
            None if self.left_slope is None else c * self.left_slope,
            None if self.right_slope is None else c * self.right_slope,
        )

    def shift_value(self, c: float) -> "PiecewiseLinear":
        return PiecewiseLinear(self.xs, tuple(y + c for y in self.ys), self.left_slope, self.right_slope)

    def is_strictly_increasing(self) -> bool:
        if any(s <= 0 for s in self.segment_slopes()):
            return False
        if self.left_slope is not None and self.left_slope <= 0:
            return False
        if self.right_slope is not None and self.right_slope <= 0:
            return False
        return True

    def inverse(self) -> "PiecewiseLinear":
        """Inverse of a strictly increasing PL function (exact)."""
        if not self.is_strictly_increasing():
            raise ValueError("inverse requires a strictly increasing function")
        ls = None if self.left_slope in (None, 0.0) else 1.0 / self.left_slope
        rs = None if self.right_slope in (None, 0.0) else 1.0 / self.right_slope
        return PiecewiseLinear(self.ys, self.xs, ls, rs)

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """self(inner(x)), exact for monotone ``inner`` (breakpoint pullback)."""
        slopes = inner.segment_slopes()
        if slopes and min(slopes) < 0 < max(slopes):
            raise ValueError("compose requires monotone inner function")
        grid = set(inner.xs)
        # pull back self's breakpoints through each linear piece of inner
        pieces: list[Tuple[float, float, float, float]] = []
        for i in range(inner.n - 1):
            pieces.append((inner.xs[i], inner.xs[i + 1], inner.ys[i], inner.ys[i + 1]))
        for bp in self.xs:
            for x0, x1, y0, y1 in pieces:
                if (y0 - bp) * (y1 - bp) < 0:
                    grid.add(x0 + (bp - y0) * (x1 - x0) / (y1 - y0))
            if inner.left_slope not in (None, 0.0):
                t = inner.xs[0] + (bp - inner.ys[0]) / inner.left_slope
                if t < inner.xs[0]:
                    grid.add(t)
            if inner.right_slope not in (None, 0.0):
                t = inner.xs[-1] + (bp - inner.ys[-1]) / inner.right_slope
                if t > inner.xs[-1]:
                    grid.add(t)
        xs = sorted(grid)
        ys = [self._eval_scalar(inner._eval_scalar(x)) for x in xs]

        def tail(inner_slope: Optional[float], left_tail: bool) -> Optional[float]:
            # chain rule on a composed tail: beyond the pulled-back grid the
            # inner argument has left every outer breakpoint behind, heading
            # toward -inf or +inf depending on the inner slope sign
            if inner_slope is None:
                return None
            if inner_slope == 0.0:
                return 0.0
            heading_down = (inner_slope > 0) == left_tail
            outer_slope = self.left_slope if heading_down else self.right_slope
            if outer_slope is None:
                return None
            return outer_slope * inner_slope

        return PiecewiseLinear(xs, ys, tail(inner.left_slope, True), tail(inner.right_slope, False))

    # -- level sets -------------------------------------------------------

    def sublevel_intervals(self, b: float, domain: Optional[Tuple[float, float]] = None) -> list[Tuple[float, float]]:
        """Closed intervals of {x : f(x) <= b}, exact per linear segment."""
        return self._level_intervals(b, below=True, domain=domain)

    def superlevel_intervals(self, b: float, domain: Optional[Tuple[float, float]] = None) -> list[Tuple[float, float]]:
        """Closed intervals of {x : f(x) >= b}, exact per linear segment."""
        return self._level_intervals(b, below=False, domain=domain)

    def _monotone_runs(self) -> Tuple[Tuple[int, int, bool], ...]:
        """Maximal monotone runs of ``ys`` as (first index, last index, rising).

        A flat segment joins the run it sits in; a run ends only where the
        slope sign strictly reverses, so neighbouring runs share a breakpoint.
        """
        if self._runs is None:
            ys = self.ys
            runs = []
            start, rising = 0, None
            for i in range(len(ys) - 1):
                if ys[i + 1] == ys[i]:
                    continue
                up = ys[i + 1] > ys[i]
                if rising is None:
                    rising = up
                elif up != rising:
                    runs.append((start, i, rising))
                    start, rising = i, up
            runs.append((start, len(ys) - 1, rising is not False))  # all flat: call it rising
            self._runs = tuple(runs)
            self._neg_ys = tuple(-y for y in ys)
        return self._runs

    def _level_intervals(self, b, below, domain):
        """Sorted, merged closed intervals of {f <= b} (below) or {f >= b}.

        {f >= b} is read as {-f <= -b}, on the negated breakpoint values:
        negation is exact, so both sets come from one routine.  Each
        monotone run of the breakpoint values holds at most one interval:
        its two end values decide between all, nothing, or one bisection for
        the crossing segment, so a call costs O(m log n) for m runs.
        """
        runs = self._runs or self._monotone_runs()
        xs = self.xs
        # a missing slope is the clamped tail that evaluation uses, which
        # matters where a domain reaches beyond the breakpoints
        left, right = self.left_slope, self.right_slope
        if domain is not None:
            if left is None and domain[0] < xs[0]:
                left = 0.0
            if right is None and domain[1] > xs[-1]:
                right = 0.0
        if below:
            ys, neg = self.ys, self._neg_ys
        else:
            ys, neg, b = self._neg_ys, self.ys, -b
            left = None if left is None else -left
            right = None if right is None else -right
        raw: list[Tuple[float, float]] = []
        if left is not None:
            g0 = ys[0] - b
            if g0 <= 0:
                raw.append((-INF, xs[0]) if left >= 0 else (xs[0] - g0 / left, xs[0]))
            elif left > 0 and xs[0] - g0 / left > -INF:  # no point: the crossing overflowed
                raw.append((-INF, xs[0] - g0 / left))
        # {f <= b} is a prefix of a rising run and a suffix of a falling one;
        # bisecting ys (rising) or -ys (falling) finds the breakpoint just
        # past the crossing
        for i0, i1, rising in runs:
            if rising == below:
                if ys[i0] > b:
                    continue
                if ys[i1] <= b:
                    raw.append((xs[i0], xs[i1]))
                else:
                    j = bisect_right(ys, b, i0, i1)
                    raw.append((xs[i0], _crossing(xs, ys, j - 1, b)))
            else:
                if ys[i1] > b:
                    continue
                if ys[i0] <= b:
                    raw.append((xs[i0], xs[i1]))
                else:
                    j = bisect_left(neg, -b, i0, i1)
                    raw.append((_crossing(xs, ys, j - 1, b), xs[i1]))
        if right is not None:
            g1 = ys[-1] - b
            if g1 <= 0:
                raw.append((xs[-1], INF) if right <= 0 else (xs[-1], xs[-1] - g1 / right))
            elif right < 0 and xs[-1] - g1 / right < INF:
                raw.append((xs[-1] - g1 / right, INF))
        if domain is not None:
            lo_d, hi_d = domain
            raw = [(max(lo, lo_d), min(hi, hi_d)) for lo, hi in raw if max(lo, lo_d) <= min(hi, hi_d)]
        return merge_sorted(raw)


def _crossing(xs, ys, i, b) -> float:
    """Where segment i (from breakpoint i to i + 1) takes the value b.

    The segment must straddle b.  An end value equal to b gives its
    breakpoint exactly, and the result never leaves [xs[i], xs[i + 1]]:
    x0 + t (x1 - x0) with t rounded to 1 can land an ulp past x1.
    """
    x0, x1 = xs[i], xs[i + 1]
    d0, d1 = ys[i] - b, ys[i + 1] - b
    if d1 == 0.0:
        return x1
    return min(x0 - d0 * (x1 - x0) / (d1 - d0), x1)


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    location: Optional[float] = None


@dataclass(frozen=True)
class ValidationReport:
    issues: Tuple[ValidationIssue, ...] = ()

    @property
    def admissible(self) -> bool:
        return not self.issues

    def errors(self) -> Tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.code != "flat_segment")


class ProblemSpec:
    """Domain plus initial pair (v0, w0); the Lipschitz constant is computed."""

    __slots__ = ("domain", "v0", "w0", "lipschitz")

    def __init__(self, domain: Domain, v0: PiecewiseLinear, w0: PiecewiseLinear):
        self.domain = domain
        self.v0 = v0
        self.w0 = w0
        self.lipschitz = max(v0.max_abs_slope(), w0.max_abs_slope())

    def breakpoint_span(self) -> Tuple[float, float]:
        if self.domain.is_segment:
            return self.domain.a1, self.domain.a2
        lo = min(self.v0.xs[0], self.w0.xs[0])
        hi = max(self.v0.xs[-1], self.w0.xs[-1])
        return lo, hi

    def __repr__(self) -> str:
        kind = "segment" if self.domain.is_segment else "whole_line"
        return f"ProblemSpec({kind}, {self.v0.n}+{self.w0.n} breakpoints, lam={self.lipschitz:g})"


def validate(spec: ProblemSpec) -> ValidationReport:
    """Check admissibility; returns one issue per violated invariant."""
    issues: list[ValidationIssue] = []
    gap = spec.v0 - spec.w0
    lo, hi = spec.breakpoint_span()
    # constraint v >= w: exact segment-pair check via the refined difference
    for i, y in enumerate(gap.ys):
        if y < 0:
            issues.append(ValidationIssue("constraint", f"v0 < w0 at x={gap.xs[i]:g}", gap.xs[i]))
    if not spec.domain.is_segment:
        if gap.left_slope is not None and gap.left_slope > 0:
            issues.append(ValidationIssue("constraint", "v0 < w0 on the left tail", -INF))
        if gap.right_slope is not None and gap.right_slope < 0:
            issues.append(ValidationIssue("constraint", "v0 < w0 on the right tail", INF))
    else:
        a1, a2 = spec.domain.a1, spec.domain.a2
        for a in (a1, a2):
            if abs(spec.v0(a) - spec.w0(a)) > 0.0:
                issues.append(
                    ValidationIssue("boundary", f"v0({a:g}) != w0({a:g}) on a segment domain", a)
                )
    # flat segments are representable but flagged: strict monotonicity between
    # extrema is assumed by the uniqueness theory, while the set formulas
    # remain total, so flats are a warning rather than a hard error
    for f, name in ((spec.v0, "v0"), (spec.w0, "w0")):
        for s0, s1 in f.flat_segments():
            if spec.domain.is_segment and (s1 < spec.domain.a1 or s0 > spec.domain.a2):
                continue
            issues.append(ValidationIssue("flat_segment", f"{name} flat on [{s0:g}, {s1:g}]", s0))
    return ValidationReport(tuple(issues))


@dataclass(frozen=True)
class MuSigmaPair:
    mu: PiecewiseLinear
    sigma: PiecewiseLinear


def to_vw(ms: MuSigmaPair) -> Tuple[PiecewiseLinear, PiecewiseLinear]:
    """Diagonalize: v = (mu + sigma) / 2, w = (mu - sigma) / 2."""
    v = (ms.mu + ms.sigma).scale(0.5)
    w = (ms.mu - ms.sigma).scale(0.5)
    return v, w


def from_vw(v: PiecewiseLinear, w: PiecewiseLinear) -> MuSigmaPair:
    """Inverse transform: mu = v + w, sigma = v - w.  Requires v >= w."""
    sigma = v - w
    if min(sigma.ys) < 0:
        raise ValueError("constraint violation: v < w at a breakpoint")
    return MuSigmaPair(v + w, sigma)


def initial_from_terminal(T: PiecewiseLinear, f: PiecewiseLinear) -> ProblemSpec:
    """Initial data whose solution freezes exactly on the line t = T(x).

    Requires T >= 0 with all slopes strictly inside (-1, 1) and f continuous
    strictly increasing.  The construction traces characteristics back from
    the freezing line: v(x,0) = f(y) with y the first z >= x where
    T(z) = z - x, and w(x,0) = f(r) with r the last z <= x where
    T(z) = x - z.  Both are exact PL compositions: y and r are the inverses
    of z - T(z) and z + T(z).  The resulting solution satisfies
    v(x, T(x)+t) = w(x, T(x)+t) = f(x), i.e. sigma vanishes on the line.
    """
    if min(T.ys) < 0:
        raise ValueError("T must be nonnegative")
    slopes = T.segment_slopes()
    if T.left_slope is not None:
        slopes = slopes + [T.left_slope]
    if T.right_slope is not None:
        slopes = slopes + [T.right_slope]
    if any(abs(s) >= 1.0 for s in slopes):
        raise ValueError("T must have all slopes strictly inside (-1, 1)")
    if not f.is_strictly_increasing():
        raise ValueError("f must be strictly increasing")
    ident = PiecewiseLinear(T.xs, T.xs, 1.0, 1.0)
    phi = ident - T    # phi(z) = z - T(z), strictly increasing
    psi = ident + T    # psi(z) = z + T(z), strictly increasing
    y_of_x = phi.inverse()
    r_of_x = psi.inverse()
    v0 = f.compose(y_of_x)
    w0 = f.compose(r_of_x)
    return ProblemSpec(Domain.whole_line(), v0, w0)


# ---------------------------------------------------------------------------
# JSON problem format
# ---------------------------------------------------------------------------


def _pl_to_json(f: PiecewiseLinear) -> dict:
    out = {"breakpoints": list(f.xs), "values": list(f.ys)}
    if f.left_slope is not None:
        out["left_slope"] = f.left_slope
    if f.right_slope is not None:
        out["right_slope"] = f.right_slope
    return out


def _reject_booleans(*values):
    """JSON true and false are not numbers, although float() takes them."""
    for v in values:
        if any(isinstance(u, bool) for u in (v if isinstance(v, list) else [v])):
            raise ValueError(f"expected a number, got {v!r}")


def _pl_from_json(obj: dict, whole_line: bool) -> PiecewiseLinear:
    _reject_booleans(obj["breakpoints"], obj["values"], obj.get("left_slope"), obj.get("right_slope"))
    f = PiecewiseLinear(
        obj["breakpoints"], obj["values"], obj.get("left_slope"), obj.get("right_slope")
    )
    if whole_line and (f.left_slope is None or f.right_slope is None):
        raise ValueError("whole-line functions need left_slope and right_slope")
    return f


def spec_to_json(spec: ProblemSpec) -> dict:
    dom: dict = {"kind": spec.domain.kind.value}
    if spec.domain.is_segment:
        dom["a1"] = spec.domain.a1
        dom["a2"] = spec.domain.a2
    return {"domain": dom, "v0": _pl_to_json(spec.v0), "w0": _pl_to_json(spec.w0)}


def spec_from_json(obj: dict) -> ProblemSpec:
    dom = obj["domain"]
    kind = DomainKind(dom["kind"])
    if kind is DomainKind.SEGMENT:
        _reject_booleans(dom["a1"], dom["a2"])
    domain = (
        Domain.segment(dom["a1"], dom["a2"]) if kind is DomainKind.SEGMENT else Domain.whole_line()
    )
    whole_line = kind is DomainKind.WHOLE_LINE
    if obj.get("mu_sigma"):
        ms = MuSigmaPair(_pl_from_json(obj["mu"], whole_line), _pl_from_json(obj["sigma"], whole_line))
        v0, w0 = to_vw(ms)
    else:
        v0 = _pl_from_json(obj["v0"], whole_line)
        w0 = _pl_from_json(obj["w0"], whole_line)
    return ProblemSpec(domain, v0, w0)


def load_spec(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))
