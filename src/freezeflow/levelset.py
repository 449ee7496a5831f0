"""Exact level-set solution of the coupled transport system with freezing.

The system

    v_t = -v_x 1{v > w},   w_t = w_x 1{v > w},   v >= w,

admits a closed-form solution through the annihilation dynamics of level
sets: the sublevel set {v(.,0) <= b} translates right at speed 1, the
superlevel set {w(.,0) >= b} translates left at speed 1, and wherever the
two meet they erode at equal rates.  A point x of the sublevel set survives
until time (alpha_v(b,x) - x) / 2, where alpha_v is the first position at
which the running integral of

    K(z) = 1{v(z,0) <= b} - 1{w(z,0) >= b}

(plus boundary indicators on a segment domain) dips strictly below zero.
The solution values are recovered by monotone inversion in b:

    v(x,t) = inf{b : x in A(v,b,t)},     w(x,t) = sup{b : x in A(w,b,t)}.

For piecewise-linear data everything here is computed exactly: K is
piecewise constant, its antiderivative G is piecewise linear with slopes in
{-1, 0, 1}, and survival thresholds are solved segment by segment in closed
form.  Only the final inversion in b is approximate: it returns the
midpoint of plain bisection's final cell, whose width is set by a user
tolerance.  Membership probes certify every step of that bisection, while a
secant on the signed distance to the surviving labels chooses which steps
need a probe, so a value takes a few probes instead of one per step.

Empty-set convention: if the running integral never goes negative the point
is never annihilated, so alpha_v returns +inf (alpha_w returns -inf) and the
survival condition holds for all times t.  This is the operational reading
of the annihilation dynamics; it keeps never-matched points moving forever.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .intervals import IntervalUnion, merge_sorted
from .problem import ProblemSpec, validate

INF = math.inf

_MAX_BISECT = 60
_CACHE_CAP = 400_000


# ---------------------------------------------------------------------------
# Extended level sets and the piecewise-constant integrand
# ---------------------------------------------------------------------------


def extended_level_sets(spec: ProblemSpec, b: float) -> Tuple[list, list]:
    """Time-0 sublevel set of v0 and superlevel set of w0, with boundary tails.

    On a segment domain the sets are extended by (-inf, a1] (sublevel side)
    and [a2, +inf) (superlevel side); this encodes the boundary conditions as
    permanent feeder tails and makes the whole-line formulas apply verbatim.
    """
    if spec.domain.is_segment:
        a1, a2 = spec.domain.a1, spec.domain.a2
        blue = [(-INF, a1)] + spec.v0.sublevel_intervals(b, domain=(a1, a2))
        red = spec.w0.superlevel_intervals(b, domain=(a1, a2)) + [(a2, INF)]
        return merge_sorted(blue), merge_sorted(red)
    # level-interval lists come back sorted and merged already
    return spec.v0.sublevel_intervals(b), spec.w0.superlevel_intervals(b)


def _k_regions(blue: Sequence[Tuple[float, float]], red: Sequence[Tuple[float, float]]):
    """Nodes and region values of K = 1_blue - 1_red.

    Returns (nodes, kvals): nodes is the sorted list of finite endpoints and
    kvals[i] is K on the open region between nodes[i-1] and nodes[i]
    (kvals[0] is the region left of all nodes, kvals[-1] right of all).
    Zero-length intervals carry no measure and do not affect K.
    """
    ends = set()
    for lo, hi in blue:
        if math.isfinite(lo):
            ends.add(lo)
        if math.isfinite(hi):
            ends.add(hi)
    for lo, hi in red:
        if math.isfinite(lo):
            ends.add(lo)
        if math.isfinite(hi):
            ends.add(hi)
    nodes = sorted(ends)
    index_of = {x: i for i, x in enumerate(nodes)}
    kvals = [0] * (len(nodes) + 1)
    for intervals, delta in ((blue, 1), (red, -1)):
        for lo, hi in intervals:
            if hi - lo <= 0.0:
                continue
            il = -1 if lo == -INF else index_of[lo]
            ih = len(nodes) if hi == INF else index_of[hi]
            for r in range(il + 1, ih + 1):
                kvals[r] += delta
    return nodes, kvals


def _alpha_scan(nodes, kvals, x: float) -> float:
    """First y >= x where the running integral of K from x dips below zero."""
    g = 0.0
    pos = x
    idx = bisect_right(nodes, x)
    while True:
        seg_end = nodes[idx] if idx < len(nodes) else INF
        k = kvals[idx]
        length = seg_end - pos
        if k < 0:
            if g < length:
                return pos + g
            g -= length
        elif k > 0:
            if length == INF:
                return INF
            g += length
        if seg_end == INF:
            return INF
        pos = seg_end
        idx += 1


def alpha_v(spec: ProblemSpec, b: float, x: float) -> float:
    """Annihilation partner bound for a sublevel point: inf over y >= x of
    the first strict sign change of the running indicator integral.
    Returns +inf when the point is never matched."""
    blue, red = extended_level_sets(spec, b)
    nodes, kvals = _k_regions(blue, red)
    return _alpha_scan(nodes, kvals, x)


def alpha_w(spec: ProblemSpec, b: float, x: float) -> float:
    """Mirror image of alpha_v: sup over y <= x of the first strictly
    positive running integral, -inf when never positive.

    Computed by reflecting space: with K~(u) = -K(-u) the mirrored scan for
    a strict dip below zero finds exactly the reflected matching point.
    """
    blue, red = extended_level_sets(spec, b)
    nodes, kvals = _k_regions(blue, red)
    nodes_r = [-n for n in reversed(nodes)]
    kvals_r = [-k for k in reversed(kvals)]
    return -_alpha_scan(nodes_r, kvals_r, -x)


# ---------------------------------------------------------------------------
# Level slices: survival structure of one level set at one value b
# ---------------------------------------------------------------------------


class _LevelSlice:
    """Survival structure of the (right-moving) sublevel side at a fixed b.

    For each maximal interval [p, q] of the moving set, survival time as a
    function of the starting point x is t_max(x) = (alpha(x) - x) / 2, a
    decreasing piecewise-linear function of x.  The pieces are computed once
    by walking the integrand profile to the right of q; queries are then
    O(log n).  The left-moving superlevel side reuses this via reflection.
    """

    __slots__ = ("components", "comp_los")

    def __init__(self, blue, nodes, kvals):
        self.components = []
        for (p, q) in blue:
            self.components.append(_component_structure(nodes, kvals, p, q))
        self.comp_los = [c[0] for c in self.components]

    def membership(self, x0: float, t: float) -> bool:
        """Is the point starting at x0 still alive (untransported label) at t?

        Ties t == t_max use the closed convention of the set formulas; they
        are a measure-zero family in b except for queries at an exact segment
        endpoint, which the field evaluator nudges into the interior.
        """
        i = bisect_right(self.comp_los, x0) - 1
        if i < 0:
            return False
        p, q, pieces, c_end = self.components[i]
        if x0 > q:
            return False
        if q == INF or t <= 0.0:
            return True
        c = x0 - q
        if c <= c_end:
            return True
        # pieces are (c_hi, c_lo, y_base) with c_hi descending from 0
        for c_hi, c_lo, y_base in pieces:
            if c > c_lo:
                t_max = (y_base + c_hi - c - x0) * 0.5
                return t <= t_max
        return False

    def survivors(self, t: float) -> List[Tuple[float, float]]:
        """Pre-transport surviving sub-intervals [p, x*] per component."""
        if t <= 0.0:
            return [(p, q) for (p, q, _, _) in self.components]
        out = []
        for p, q, pieces, c_end in self.components:
            if q == INF:
                out.append((p, q))
                continue
            cutoff = _component_cutoff(p, q, pieces, c_end, t)
            if cutoff is not None:
                out.append((p, cutoff))
        return out

    def residual(self, x0: float, t: float) -> float:
        """Signed distance from x0 to the labels surviving at t.

        Non-negative on the survivors and negative off them.  The surviving
        set grows with b, so the residual is non-decreasing in b, and on
        piecewise-linear data it is piecewise affine in b.  Only the
        component holding x0 and the nearest components with survivors on
        either side are read.
        """
        comps = self.components
        i = bisect_right(self.comp_los, x0) - 1
        left = -INF  # last surviving label at or left of x0
        for j in range(i, -1, -1):
            end = _survivor_end(comps[j], t)
            if end is not None:
                if j == i and x0 <= end:
                    return min(x0 - comps[i][0], end - x0)
                left = end
                break
        right = INF  # first surviving label right of x0
        for j in range(i + 1, len(comps)):
            if _survivor_end(comps[j], t) is not None:
                right = comps[j][0]
                break
        return -min(x0 - left, right - x0)


def _survivor_end(comp, t):
    """Largest label of one component that survives at t, or None.

    ``survivors`` inlines this rule, as its loop is the hot path of level-set
    queries."""
    p, q, pieces, c_end = comp
    if q == INF or t <= 0.0:
        return q
    return _component_cutoff(p, q, pieces, c_end, t)


def _component_structure(nodes, kvals, p, q):
    """Alpha pieces for one component [p, q] of the moving set.

    Levels are parameterized by c = x - q in [c_floor, 0]; piece
    (c_hi, c_lo, y_base) encodes alpha(c) = y_base + (c_hi - c) for
    c in (c_lo, c_hi].  Levels c <= c_end are never annihilated.
    """
    if q == INF:
        return (p, q, (), -INF)
    c_floor = p - q  # -inf for a lower-tail component
    pieces = []
    mcur = 0.0
    gs = 0.0
    pos = q
    idx = bisect_right(nodes, q)
    while True:
        seg_end = nodes[idx] if idx < len(nodes) else INF
        k = kvals[idx]
        length = seg_end - pos
        if k < 0:
            lo_level = gs - length  # -inf on an infinite descent
            hi_level = mcur if mcur < gs else gs
            if hi_level > lo_level:
                y_base = pos + (gs - hi_level)
                pieces.append((hi_level, lo_level, y_base))
            if lo_level < mcur:
                mcur = lo_level
            if mcur < c_floor or length == INF:
                break
            gs -= length
        elif k > 0:
            if length == INF:
                break
            gs += length
        else:
            if length == INF:
                break
        pos = seg_end
        idx += 1
    return (p, q, tuple(pieces), mcur)


def _component_cutoff(p, q, pieces, c_end, t):
    """Largest surviving label x* in [p, q] at time t, or None if none."""
    prev_c_lo = 0.0
    first = True
    for c_hi, c_lo, y_base in pieces:
        t_top = (y_base - q - c_hi) * 0.5          # t_max at c = c_hi (x = q + c_hi)
        t_bot = (y_base + c_hi - q - 2.0 * c_lo) * 0.5  # t_max limit at c = c_lo
        if first and t <= t_top:
            return q
        if not first and t <= t_top:
            # t falls in the upward jump between the previous piece and this one
            x_star = q + prev_c_lo
            return x_star if (p == -INF or x_star >= p) else None
        if t <= t_bot:
            c_star = (y_base + c_hi - q) * 0.5 - t
            x_star = q + c_star
            return x_star if (p == -INF or x_star >= p) else None
        prev_c_lo = c_lo
        first = False
    # below all pieces only the immortal levels c <= c_end remain
    if c_end == -INF:
        return None
    x_star = q + c_end
    if p == -INF or x_star >= p:
        return x_star
    return None


class _LevelPair:
    """Both survival slices at one level b, sharing the integrand regions.

    The superlevel side is the mirror image of the sublevel side: with
    K~(u) = -K(-u) the left-moving set becomes a right-moving one, so a
    single slice implementation serves both after reflection.
    """

    __slots__ = ("blue", "red", "nodes", "kvals", "_v", "_w")

    def __init__(self, spec: ProblemSpec, b: float):
        self.blue, self.red = extended_level_sets(spec, b)
        self.nodes, self.kvals = _k_regions(self.blue, self.red)
        self._v: Optional[_LevelSlice] = None
        self._w: Optional[_LevelSlice] = None

    def vslice(self) -> _LevelSlice:
        if self._v is None:
            self._v = _LevelSlice(self.blue, self.nodes, self.kvals)
        return self._v

    def wslice(self) -> _LevelSlice:
        if self._w is None:
            blue_r = [(-hi, -lo) for lo, hi in reversed(self.red)]
            nodes_r = [-n for n in reversed(self.nodes)]
            kvals_r = [-k for k in reversed(self.kvals)]
            self._w = _LevelSlice(blue_r, nodes_r, kvals_r)
        return self._w


def sublevel_set(spec: ProblemSpec, b: float, t: float) -> IntervalUnion:
    """A(v,b,t): surviving sublevel points transported to the right by t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    sl = _LevelPair(spec, b).vslice()
    moved = [(lo + t, hi + t) for lo, hi in sl.survivors(t)]
    out = IntervalUnion(moved)
    if spec.domain.is_segment:
        out = out.clip(spec.domain.a1, spec.domain.a2)
    return out


def superlevel_set(spec: ProblemSpec, b: float, t: float) -> IntervalUnion:
    """A(w,b,t): surviving superlevel points transported to the left by t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    sl = _LevelPair(spec, b).wslice()
    moved = IntervalUnion([(lo + t, hi + t) for lo, hi in sl.survivors(t)]).reflect()
    if spec.domain.is_segment:
        moved = moved.clip(spec.domain.a1, spec.domain.a2)
    return moved


# ---------------------------------------------------------------------------
# Solution field
# ---------------------------------------------------------------------------


class SolutionField:
    """Query object for v(x,t), w(x,t) and level sets of one problem.

    Values are bisection's answer in b over the monotone membership
    predicate, found with few probes (see ``_invert``); the absolute
    tolerance is ``tolerance`` scaled by the value range over the query's
    triangle of determinacy.  The object is immutable and all queries are
    pure, so concurrent reads are safe; the level-slice cache is a pure
    memoization keyed by b.  ``warnings`` holds the messages of the
    non-fatal validation issues (flat segments).

    The integrand sweep integrates the linear extension tails exactly, so
    far-out whole-line queries are as exact as near ones.
    """

    def __init__(self, spec: ProblemSpec, tolerance: float = 1e-10, strict: bool = True):
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
        self.warnings: Tuple[str, ...] = ()
        if strict:
            report = validate(spec)
            hard = report.errors()
            if hard:
                raise ValueError(f"inadmissible problem: {[i.message for i in hard]}")
            self.warnings = tuple(i.message for i in report.issues if i not in hard)
        self.spec = spec
        self.tolerance = float(tolerance)
        self._cache: dict = {}

    # -- brackets ----------------------------------------------------------

    def _value_range(self, lo_x: float, hi_x: float) -> Tuple[float, float]:
        """Smallest and largest value of v0 and w0 over [lo_x, hi_x]."""
        v_lo, v_hi = self.spec.v0.min_max_on(lo_x, hi_x)
        w_lo, w_hi = self.spec.w0.min_max_on(lo_x, hi_x)
        return min(v_lo, w_lo), max(v_hi, w_hi)

    def _bracket(self, x: float, t: float) -> Tuple[float, float]:
        dom = self.spec.domain
        lo_x, hi_x = x - t, x + t
        if dom.is_segment:
            lo_x, hi_x = max(lo_x, dom.a1), min(hi_x, dom.a2)
        return self._value_range(lo_x, hi_x)

    def _check_point(self, x: float, t: float):
        if t < 0:
            raise ValueError("t must be nonnegative")
        if not self.spec.domain.contains(x):
            raise ValueError(f"query x={x:g} outside the domain")

    def _nudge(self, x: float) -> float:
        """Move exact segment-endpoint queries a hair into the interior.

        At an exact endpoint the boundary feeder makes survival ties persist
        over a whole range of levels, which would drag the inverted value to
        a bisection bracket edge; the solution is continuous, so the nudge
        changes the value by less than the tolerance.
        """
        dom = self.spec.domain
        if not dom.is_segment:
            return x
        delta = 1e-11 * (dom.a2 - dom.a1)
        return min(max(x, dom.a1 + delta), dom.a2 - delta)

    # -- point evaluation ---------------------------------------------------

    def eval_v(self, x: float, t: float, bracket: Optional[Tuple[float, float]] = None) -> float:
        return self._invert(x, t, bracket, False)

    def eval_w(self, x: float, t: float, bracket: Optional[Tuple[float, float]] = None) -> float:
        return self._invert(x, t, bracket, True)

    def _invert(self, x: float, t: float, bracket: Optional[Tuple[float, float]], reflected: bool) -> float:
        """Bisection's answer in b over the membership predicate of one side.

        The v side probes the sublevel slice at x - t, where membership
        rises with b.  w is v of the mirrored problem, so the w side probes
        the reflected slice at -(x + t), where membership falls with b.

        The answer is the midpoint of the final cell of plain bisection from
        the padded bracket, under the same step cap; only the way each
        midpoint's side is learnt differs.  Membership is monotone in b, so
        the probes so far certify a band (a, z): every level <= a lies below
        the answer and every level >= z above it (the bracket ends count as
        certified, as in plain bisection).  A midpoint outside the band is
        decided without a probe.  Inside it, an estimate of the answer picks
        the final cell [l, h] it falls in, and probing l and h certifies
        the whole path down to that cell.  The first estimate is the
        transport value, exact at liquid points.  Later ones are secants on
        the probed slices' residuals: through the two latest probes when both
        moved the same end of the band (a missed cell's ends give the local
        slope), else false position between a and z.  A step that does not
        halve the band is followed by one plain bisection probe, and after
        _MAX_BISECT probes only plain ones are made, so an evaluation never
        takes more than 2 * _MAX_BISECT + 1 probes.  The residual only
        steers: a wrong one costs probes, never the answer.
        """
        self._check_point(x, t)
        lo, hi = bracket if bracket is not None else self._bracket(x, t)
        tol = self.tolerance * max(1.0, hi - lo)
        pad = 1e-9 * (1.0 + abs(lo) + abs(hi)) + 4.0 * tol
        lo -= pad
        hi += pad
        cache = self._cache
        spec = self.spec
        xn = self._nudge(x)
        if reflected:
            x0, side, sign, guess = -(xn + t), _LevelPair.wslice, -1.0, spec.w0(xn + t)
        else:
            x0, side, sign, guess = xn - t, _LevelPair.vslice, 1.0, spec.v0(xn - t)
        a, z = lo, hi
        probed = []  # [level, slice, residual or None] per probe, latest last
        ia = iz = -1  # which probes set a and z (-1: still the bracket end)
        depth = 0
        plain = False

        def residual(i):
            if probed[i][2] is None:
                probed[i][2] = float(sign * probed[i][1].residual(x0, t))
            return probed[i][2]

        while True:
            # walk bisection's path as far as the band decides it
            while depth < _MAX_BISECT and hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if mid <= a:
                    lo = mid
                elif mid >= z:
                    hi = mid
                else:
                    break
                depth += 1
            else:
                return 0.5 * (lo + hi)
            est = None if probed else guess
            n = len(probed)
            if 1 < n < _MAX_BISECT and not plain:
                # a secant through the two latest probes when both moved the
                # same end, else through the probes at a and z
                i, j = (n - 2, n - 1) if ia < n - 2 or iz < n - 2 else (ia, iz)
                b1, g1, b2, g2 = probed[i][0], residual(i), probed[j][0], residual(j)
                if math.isfinite(g2 - g1) and (g2 - g1) * (b2 - b1) > 0:
                    est = b1 - g1 * (b2 - b1) / (g2 - g1)
            if est is not None and math.isfinite(est):
                # the rest of the path as the estimate would decide it
                l, h = lo, hi
                for _ in range(depth, _MAX_BISECT):
                    if h - l <= tol:
                        break
                    m = 0.5 * (l + h)
                    if m <= a or (m < z and est > m):
                        l = m
                    else:
                        h = m
                levels = (l, h)
            else:
                est = None
                levels = (mid,)
            width = z - a
            for b in levels:
                if not a < b < z:
                    continue
                pair = cache.get(b)
                if pair is None:
                    if len(cache) > _CACHE_CAP:
                        cache.clear()
                    pair = _LevelPair(spec, b)
                    cache[b] = pair
                sl = side(pair)
                probed.append([b, sl, None])
                if sl.membership(x0, t) != reflected:
                    z, iz = b, len(probed) - 1
                else:
                    a, ia = b, len(probed) - 1
            plain = est is not None and z - a > 0.5 * width

    def eval_pair(self, x: float, t: float) -> Tuple[float, float]:
        br = self._bracket(x, t)
        return self.eval_v(x, t, br), self.eval_w(x, t, br)

    # -- sets --------------------------------------------------------------

    def sublevel_set(self, b: float, t: float) -> IntervalUnion:
        return sublevel_set(self.spec, b, t)

    def superlevel_set(self, b: float, t: float) -> IntervalUnion:
        return superlevel_set(self.spec, b, t)

    # -- grid evaluation -----------------------------------------------------

    def eval_grid(
        self, xs: Sequence[float], ts: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense evaluation; V[i][j] = v(xs[j], ts[i]), likewise W.

        Uses one shared bisection bracket across the grid, so every probe
        lands on one lattice of midpoints and the slice cache is reused by
        neighbouring points; output is identical to pointwise calls up to
        tolerance and independent of evaluation order.
        """
        xs = [float(x) for x in xs]
        ts = [float(t) for t in ts]
        if any(t < 0 for t in ts):
            raise ValueError("times must be nonnegative")
        if not all(self.spec.domain.contains(x) for x in xs):
            raise ValueError("grid x outside the domain")
        t_hi = max(ts) if ts else 0.0
        lo_x = min(xs) - t_hi if xs else 0.0
        hi_x = max(xs) + t_hi if xs else 0.0
        dom = self.spec.domain
        if dom.is_segment:
            lo_x, hi_x = max(lo_x, dom.a1), min(hi_x, dom.a2)
        bracket = self._value_range(lo_x, hi_x)
        V = np.empty((len(ts), len(xs)))
        W = np.empty((len(ts), len(xs)))
        ev, ew = self.eval_v, self.eval_w
        for i, t in enumerate(ts):
            for j, x in enumerate(xs):
                V[i, j] = ev(x, t, bracket)
                W[i, j] = ew(x, t, bracket)
        return V, W

    # -- misc ---------------------------------------------------------------

    def zone_epsilon(self) -> float:
        lo, hi = self.spec.breakpoint_span()
        pad = max(1.0, hi - lo)
        b_lo, b_hi = self._value_range(lo - pad, hi + pad)
        return 10.0 * self.tolerance * max(1.0, b_hi - b_lo)
