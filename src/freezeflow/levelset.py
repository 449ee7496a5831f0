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
form.  Each component keeps its labels up to one front, which waits while
the component is liquid and retreats while it is frozen; membership is
containment in the labels behind the fronts.  Only the final inversion
in b is approximate: it returns the midpoint of plain bisection's final
cell, whose width is set by a user tolerance.  Membership probes certify
every step of that bisection, while a secant on the signed distance to the
surviving labels chooses which steps need a probe, so a value takes a few
probes instead of one per step.

Everything known at one level b is one object, cached per field for every
query.  A grid needs fewer levels still.  Two levels with no critical value
of the data between them and equal signatures (the order of the nodes and
the branch outcomes inside the component structure) certify that every end
is affine in b between them, so the value of each grid point whose
membership changes there follows in closed form.  The shared
bracket is split on bisection's lattice only until each value lies in such
a cell or in a final cell, and each exact value is snapped to bisection's
answer, with a real probe where a midpoint comes close to it.  The same
signatures let one sweep with a level at every critical value follow the
frozen segments, where a v front and a w front stand at one x, for the
freezing and thawing curves.

Empty-set convention: if the running integral never goes negative the point
is never annihilated, so alpha_v returns +inf (alpha_w returns -inf) and the
survival condition holds for all times t.  This is the operational reading
of the annihilation dynamics; it keeps never-matched points moving forever.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .intervals import IntervalUnion, merge_sorted
from .problem import ProblemSpec, validate

INF = math.inf

_MAX_BISECT = 60
_CACHE_CAP = 400_000
_SNAP = 1e-3  # grid values this many final cells from a midpoint probe it
_ROUND = 1e-13  # relative rounding allowed for labels and thresholds in closed form
_FEW = 16  # grid points whose membership at a level is probed one by one
_CHUNK = 4096  # grid points solved in closed form together
_MATCH = 1e-9  # relative distance within which a v piece and a w piece stand at one x


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
    by walking the integrand profile to the right of q, and every query
    reads them through ``_front``.  The left-moving superlevel side reuses
    this via reflection.  ``codes`` holds the branch codes of every
    component in turn, each followed by -1.
    """

    __slots__ = ("components", "comp_los", "codes")

    def __init__(self, blue, nodes, kvals):
        self.components = []
        self.codes: list = []
        for (p, q) in blue:
            self.components.append(_component_structure(nodes, kvals, p, q, self.codes))
            self.codes.append(-1)
        self.comp_los = [c[0] for c in self.components]

    def membership(self, x0: float, t: float) -> bool:
        """Is the point starting at x0 still alive (untransported label) at t?

        Exactly containment in ``survivors(t)``, ties t == t_max included.
        """
        i = bisect_right(self.comp_los, x0) - 1
        if i < 0:
            return False
        front = _front(self.components[i], t)
        return front is not None and x0 <= front

    def survivors(self, t: float) -> List[Tuple[float, float]]:
        """Pre-transport surviving sub-intervals [p, front] per component."""
        return [(c[0], front) for c in self.components if (front := _front(c, t)) is not None]

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
            front = _front(comps[j], t)
            if front is not None:
                if j == i and x0 <= front:
                    return min(x0 - comps[i][0], front - x0)
                left = front
                break
        right = INF  # first surviving label right of x0
        for j in range(i + 1, len(comps)):
            if _front(comps[j], t) is not None:
                right = comps[j][0]
                break
        return -min(x0 - left, right - x0)


def _component_structure(nodes, kvals, p, q, codes):
    """Alpha pieces for one component [p, q] of the moving set.

    Levels are parameterized by c = x - q in [c_floor, 0]; piece
    (c_hi, c_lo, y_base) encodes alpha(c) = y_base + (c_hi - c) for
    c in (c_lo, c_hi].  Levels c <= c_end are never annihilated.  The list
    ``codes`` receives the outcome of the three comparisons made in each
    descending region, which fix how the results are formed from the nodes.
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
            codes.append((mcur < gs) + 2 * (hi_level > lo_level) + 4 * (lo_level < mcur))
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


def _front(comp, t):
    """Largest label of one component that survives at t, or None.

    t_max falls by one per unit of label inside a piece and jumps up between
    pieces, so the front holds at q while the component is liquid, retreats
    with t inside a piece, waits at the jumps, and stops at q + c_end.
    """
    p, q, pieces, c_end = comp
    if q == INF or t <= 0.0:
        return q
    for c_hi, c_lo, y_base in pieces:
        if t <= (y_base - q - c_hi) * 0.5:  # t_max at c = c_hi
            front = q + c_hi
            break
        s = y_base + c_hi - q  # t_max(c) = s / 2 - c inside the piece
        if t <= (s - 2.0 * c_lo) * 0.5:  # t_max as c -> c_lo
            front = q + s * 0.5 - t
            break
    else:
        if c_end == -INF:
            return None
        front = q + c_end
    return front if front >= p else None


def _stands(comp):
    """Where and when the front of one component stands still, per piece.

    Inside a piece the front label q + s/2 - t retreats as fast as the
    labels move, so the transported front stands at x = (q + y_base + c_hi)/2
    from the piece's first time (y_base - q - c_hi)/2, where ``_front``
    enters it, to its last, (s - 2 c_lo)/2, or until the front reaches p at
    q + s/2 - p, whichever comes first.  Returns (x, first, last, death) per
    piece, infinite where the descent or the component is.
    """
    p, q, pieces, _ = comp
    if q == INF:
        return []
    out = []
    for c_hi, c_lo, y_base in pieces:
        s = y_base + c_hi - q
        out.append(((q + y_base + c_hi) * 0.5, (y_base - q - c_hi) * 0.5, s * 0.5 - c_lo, q + s * 0.5 - p))
    return out


def band_path(outer: "_LevelSlice", inner: "_LevelSlice", x0: float, t: float):
    """The path of label x0 through the band between two nested slices.

    ``outer`` is the slice that holds x0 at t and ``inner`` the one inside
    it that does not, so at t every label between the surviving ends of
    the two around x0 carries a value between their levels.  The path is
    the label itself held inside that band: r(s) = clamp(x0, lo(s), hi(s))
    + s, where lo is the larger of the outer component's left end and the
    nearest inner front at or left of x0, and hi the smaller of the outer
    front and the nearest inner left end right of x0, both among the
    components that survive at s.  r is None once the outer component has
    died.

    Where the band is one tolerance wide the path rides its ends: a left
    end moves at unit speed, and a front waits while its component is
    liquid and retreats one label per unit time while it is frozen, so
    there r stands still.  Inside a flat stretch of the data, where the
    band is wide, the label moves at unit speed until an end passes it.
    """
    i = bisect_right(outer.comp_los, x0) - 1
    comp = outer.components[i] if outer.membership(x0, t) else None  # None: only inner bounds x0
    p = comp[0] if comp is not None else -INF
    comps = inner.components
    j = bisect_right(inner.comp_los, x0) - 1

    def r(s):
        lo, hi = p, INF
        if comp is not None:
            hi = _front(comp, s)
            if hi is None:
                return None
        for k in range(j, -1, -1):
            if comps[k][1] <= lo:
                break
            front = _front(comps[k], s)
            if front is not None:
                lo = max(lo, front)
                break
        for k in range(j + 1, len(comps)):
            if comps[k][0] >= hi:
                break
            if _front(comps[k], s) is not None:
                hi = comps[k][0]
                break
        return min(max(x0, lo), hi) + s

    return r


class _LevelPair:
    """Everything known at one level b, each part built on first use.

    ``slice(0)`` is the v slice and ``slice(1)`` the w slice.  The
    superlevel side is the mirror image of the sublevel side: with
    K~(u) = -K(-u) the left-moving set becomes a right-moving one, so a
    single slice implementation serves both after reflection.

    The signature is the level's combinatorial structure apart from t and
    from which piece of v0 or w0 each end sits on: which ends share each
    node, ``kvals``, and the branch codes that each slice records as it is
    built.  If two levels have equal signatures (``same``) and no critical
    value lies between them (so every level-interval end stays on one
    piece), every comparison made in building them has the same outcome at
    both and compares affine functions of b, so along the levels between
    them every end, node and piece is the affine interpolation of its
    values at the two.
    """

    __slots__ = ("b", "blue", "red", "nodes", "kvals", "_v", "_w", "_tables", "_pattern", "_frozen")

    def __init__(self, spec: ProblemSpec, b: float):
        self.b = b
        self.blue, self.red = extended_level_sets(spec, b)
        self.nodes, self.kvals = _k_regions(self.blue, self.red)
        self._v = self._w = self._tables = self._pattern = self._frozen = None

    def slice(self, side: int) -> _LevelSlice:
        """The v (0) or the reflected w (1) slice."""
        if side:
            if self._w is None:
                blue_r = [(-hi, -lo) for lo, hi in reversed(self.red)]
                nodes_r = [-n for n in reversed(self.nodes)]
                kvals_r = [-k for k in reversed(self.kvals)]
                self._w = _LevelSlice(blue_r, nodes_r, kvals_r)
            return self._w
        if self._v is None:
            self._v = _LevelSlice(self.blue, self.nodes, self.kvals)
        return self._v

    def pattern(self) -> tuple:
        """Which ends share each node (1 blue, 2 red, 3 both), and ``kvals``."""
        if self._pattern is None:
            blue_ends = {x for iv in self.blue for x in iv}
            red_ends = {x for iv in self.red for x in iv}
            self._pattern = (tuple((n in blue_ends) + 2 * (n in red_ends) for n in self.nodes), tuple(self.kvals))
        return self._pattern

    def same(self, other: "_LevelPair") -> bool:
        """Equal signatures: the structure is affine in b between the two
        unless a critical value lies in between."""
        return self.pattern() == other.pattern() and all(self.slice(s).codes == other.slice(s).codes for s in (0, 1))

    def table(self, side: int):
        """``_front_table`` of one slice."""
        if self._tables is None:
            self._tables = [None, None]
        if self._tables[side] is None:
            self._tables[side] = _front_table(self.slice(side))
        return self._tables[side]

    def frozen(self) -> list:
        """The frozen segments of this level, in the v slice's order.

        Where a v piece and a w piece stand at the same x (``_stands``),
        v = w = b from the later of their first times to the earliest of
        their last times and deaths.  Returns (x, firsts, ends, key) per
        such pair, with firsts = (v first, w first), ends = (v last, v death,
        w last, w death) and key the (component, piece) indices of the v
        piece and then the w piece; a pair whose times do not overlap is
        kept, with a negative length.
        """
        if self._frozen is None:
            w = sorted(
                (-x, first, ends, (k, i))
                for k, comp in enumerate(self.slice(1).components)
                for i, (x, first, *ends) in enumerate(_stands(comp))
            )
            w_xs = [s[0] for s in w]
            self._frozen = []
            for k, comp in enumerate(self.slice(0).components):
                for i, (x, first, *ends) in enumerate(_stands(comp)):
                    tiny = _MATCH * (1.0 + abs(x))
                    for j in range(bisect_left(w_xs, x - tiny), bisect_right(w_xs, x + tiny)):
                        self._frozen.append((x, (first, w[j][1]), (*ends, *w[j][2]), (k, i) + w[j][3]))
        return self._frozen


def sublevel_set(spec: ProblemSpec, b: float, t: float) -> IntervalUnion:
    """A(v,b,t): surviving sublevel points transported to the right by t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    sl = _LevelPair(spec, b).slice(0)
    moved = [(lo + t, hi + t) for lo, hi in sl.survivors(t)]
    out = IntervalUnion(moved)
    if spec.domain.is_segment:
        out = out.clip(spec.domain.a1, spec.domain.a2)
    return out


def superlevel_set(spec: ProblemSpec, b: float, t: float) -> IntervalUnion:
    """A(w,b,t): surviving superlevel points transported to the left by t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    sl = _LevelPair(spec, b).slice(1)
    moved = IntervalUnion([(lo + t, hi + t) for lo, hi in sl.survivors(t)]).reflect()
    if spec.domain.is_segment:
        moved = moved.clip(spec.domain.a1, spec.domain.a2)
    return moved


# ---------------------------------------------------------------------------
# Grid evaluation: exact row profiles
# ---------------------------------------------------------------------------


def _padded(lo: float, hi: float, tolerance: float) -> Tuple[float, float, float]:
    """Bisection's padded bracket for a value range, and its final cell width."""
    tol = tolerance * max(1.0, hi - lo)
    pad = 1e-9 * (1.0 + abs(lo) + abs(hi)) + 4.0 * tol
    return lo - pad, hi + pad, tol


def _front_table(sl: _LevelSlice):
    """``_front`` of every component of a slice as arrays over its branches.

    Returns (p, T, F, R): the left ends p, and per component the thresholds
    T of the branches in ``_front``'s order (t <= 0 first, then two per
    piece) and the front F - R t of each branch, the last column being the
    branch taken when t exceeds every threshold.  Unused thresholds are
    -inf, so a component with fewer pieces never takes them.
    """
    comps = sl.components
    m = max((1 + 2 * len(c[2]) for c in comps), default=1)
    T = np.full((len(comps), m), -INF)
    F = np.empty((len(comps), m + 1))
    R = np.zeros((len(comps), m + 1))
    for k, (p, q, pieces, c_end) in enumerate(comps):
        if q == INF:
            F[k] = INF
            continue
        T[k, 0], F[k, 0] = 0.0, q
        i = 1
        for c_hi, c_lo, y_base in pieces:
            s = y_base + c_hi - q
            T[k, i], F[k, i] = (y_base - q - c_hi) * 0.5, q + c_hi
            T[k, i + 1], F[k, i + 1], R[k, i + 1] = (s - 2.0 * c_lo) * 0.5, q + s * 0.5, 1.0
            i += 2
        F[k, i:] = -INF if c_end == -INF else q + c_end
    return np.array(sl.comp_los), T, F, R


def _half_line(ga, gb, l, w):
    """Ends of {b : g(b) >= 0} for the affine g with g(l) = ga, g(l + w) = gb."""
    root = l - ga * w / (gb - ga)
    flat = ga == gb
    lower = np.where(flat, np.where(ga >= 0, -INF, INF), np.where(gb > ga, root, -INF))
    upper = np.where(flat, np.where(ga >= 0, INF, -INF), np.where(gb > ga, INF, root))
    return lower, upper


def _exact_values(l, h, side, t, x0, p1, p2, ta, tb, f1, f2, r):
    """Where membership begins (side 0) or ends (side 1) in cells [l, h]
    with equal signatures at both ends, one point per row, and a bound on
    how far rounding can have moved that level.

    Membership at b is p(b) <= x0 <= front(b, t) in the component that
    holds x0 where it is a member.  p is affine in b from p1 to p2.  The
    front follows the branch of ``_front`` whose threshold, ta to tb, is the
    first that t does not exceed; each branch's front is affine in b from
    f1 - r t to f2 - r t, so it changes branch only at the roots of the
    thresholds at t, and between them the set of b is an interval.

    Labels and thresholds are known to ``_ROUND`` of their size; a
    constraint that is that close to binding at the value moves it by that
    much over its rate of change in b.
    """
    n, m = ta.shape
    ar = np.arange(n)
    w = (h - l)[:, None]
    lc, hc, tc = l[:, None], h[:, None], t[:, None]
    rising = side == 0
    crossed = (np.minimum(ta, tb) < tc) & (tc < np.maximum(ta, tb))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # infinite ends and thresholds
        roots = np.where(crossed, lc + (tc - ta) * w / (tb - ta), hc)
        slope = np.where(ta == tb, 0.0, tb - ta)
        order = np.argsort(roots, axis=1)
        edges = np.concatenate([lc, np.take_along_axis(roots, order, 1), hc], axis=1)
        rates = np.take_along_axis(np.abs(slope) / w, order, 1)
        rates = np.concatenate([np.full((n, 1), INF), rates, np.full((n, 1), INF)], axis=1)
        ra, rb = edges[:, :-1], edges[:, 1:]
        lam = (0.5 * (ra + rb) - lc) / w
        branch = np.full(ra.shape, m)
        for i in range(m - 1, -1, -1):  # the first threshold that t does not exceed wins
            branch = np.where(tc <= ta[:, i:i + 1] + slope[:, i:i + 1] * lam, i, branch)
        shift = r * tc + x0[:, None]
        fa = np.take_along_axis(f1 - shift, branch, 1)
        fb = np.take_along_axis(f2 - shift, branch, 1)
        f_lo, f_hi = _half_line(fa, fb, lc, w)
        pa, pb = x0 - p1, x0 - p2
        p_lo, p_hi = _half_line(pa, pb, l, w[:, 0])
        start = np.maximum(np.maximum(ra, f_lo), p_lo[:, None])
        end = np.minimum(np.minimum(rb, f_hi), p_hi[:, None])
        ok = (start <= end) & (rb > ra)
        j = np.where(rising, np.where(ok, start, INF).argmin(axis=1), np.where(ok, end, -INF).argmax(axis=1))
        found = ok[ar, j]
        c = np.where(rising, start[ar, j], end[ar, j])
        # the error bound: each constraint within rounding of binding at c
        ends = [_finite_abs(p1), _finite_abs(p2), _finite_abs(f1).max(axis=1), _finite_abs(f2).max(axis=1)]
        size = np.abs(x0) + t + np.maximum.reduce(ends)
        tiny = _ROUND * size
        lam_c = (c - l) / w[:, 0]
        err = _ROUND * np.abs(c)
        for ga, gb in ((fa[ar, j], fb[ar, j]), (pa, pb)):
            near = np.abs(ga + (gb - ga) * lam_c) <= tiny
            err = np.maximum(err, np.where(near, tiny * w[:, 0] / np.abs(gb - ga), 0.0))
        at_root = c == np.where(rising, ra[ar, j], rb[ar, j])
        err = np.maximum(err, np.where(at_root, tiny / np.where(rising, rates[ar, j], rates[ar, j + 1]), 0.0))
    # rounding can leave the set empty: then every midpoint in the cell is probed
    c = np.where(found, c, np.where(rising, h, l))
    return np.clip(c, l, h), np.where(found, err, w[:, 0])


def _finite_abs(a):
    return np.where(np.isfinite(a), np.abs(a), 0.0)


class _RowProfiles:
    """Bisection's answers at every point of one grid, from a few levels.

    The v side of point (x, t) reads the sublevel slices at label x - t and
    the w side the reflected slices at -(x + t), both at the nudged x.  The
    shared padded bracket is split on bisection's own lattice of midpoints,
    but only where a cell's two end levels have different signatures and
    some point's membership changes between them; neighbouring cells with
    equal signatures are merged.  A point whose membership changes inside a
    merged cell gets its exact value c in closed form: every component end
    is affine in b there, and the branch ``_front`` takes at the point's t
    changes only where one of its thresholds, affine in b, crosses t.  A
    point whose membership changes inside an unmergeable final cell gets
    that cell's midpoint.  Each c then becomes bisection's answer by walking
    bisection's path with ``mid < c`` deciding each step; a midpoint within
    ``_SNAP`` final cells of c, or within the bound on its rounding, is
    decided by a real membership probe, so ties and frozen points keep
    bisection's outcome.
    """

    def __init__(self, field: "SolutionField", xn, ts):
        self.level = field._pair
        self.critical = field._critical
        self.ts = np.array(ts)
        tt = self.ts[:, None]
        self.shape = (len(ts), len(xn))
        self.t = np.broadcast_to(tt, self.shape).ravel()
        self.rows = np.repeat(np.arange(len(ts)), len(xn))
        self.x0 = ((xn[None, :] - tt).ravel(), (-(xn[None, :] + tt)).ravel())

    def members(self, lv: _LevelPair, side: int, idx):
        """``membership`` of the given points on one slice of a level.

        Few points are probed one by one; many read every component's front
        at every grid time off the level's front table.
        """
        if not len(idx):
            return np.zeros(0, dtype=bool)
        x0 = self.x0[side][idx]
        if len(idx) <= _FEW:
            sl = lv.slice(side)
            return np.array([sl.membership(a, t) for a, t in zip(x0.tolist(), self.t[idx].tolist())], dtype=bool)
        P, T, F, R = lv.table(side)
        if not len(P):
            return np.zeros(len(idx), dtype=bool)
        branch = np.full((len(P), len(self.ts)), T.shape[1])
        for i in range(T.shape[1] - 1, -1, -1):  # the first threshold that t does not exceed wins
            branch = np.where(self.ts <= T[:, i:i + 1], i, branch)
        fronts = np.take_along_axis(F, branch, 1) - np.take_along_axis(R, branch, 1) * self.ts
        # a dead component's front lies left of its p, so left of x0 too
        k = np.searchsorted(P, x0, side="right") - 1
        return (k >= 0) & (x0 <= fronts[np.maximum(k, 0), self.rows[idx]])

    def affine(self, low: _LevelPair, high: _LevelPair) -> bool:
        """Equal signatures and no critical value in (low.b, high.b]: every
        end is affine in b from one level to the other."""
        i = bisect_right(self.critical, low.b)
        return (i == len(self.critical) or self.critical[i] > high.b) and low.same(high)

    def values(self, lo: float, hi: float, tol: float):
        every = np.arange(self.t.size)
        first, last = self.level(lo), self.level(hi)
        at_lo = [self.members(first, side, every) for side in (0, 1)]
        at_hi = [self.members(last, side, every) for side in (0, 1)]
        # a point whose membership never changes gets one end of the bracket
        C = [np.where(at_lo[0], -INF, INF), np.where(at_hi[1], INF, -INF)]
        inside = (np.flatnonzero(at_hi[0] & ~at_lo[0]), np.flatnonzero(at_lo[1] & ~at_hi[1]))
        exact = []
        for low, high, points in self._cells(first, last, tol, inside):
            affine = self.affine(low, high)
            for side, idx in enumerate(points):
                if not len(idx):
                    continue
                if affine:
                    exact.append((low, high, side, idx))
                else:
                    C[side][idx] = 0.5 * (low.b + high.b)
        E = [np.zeros(self.t.size), np.zeros(self.t.size)]
        self._closed_form(exact, C, E)
        return tuple(self._snap(C[side], E[side], side, lo, hi, tol).reshape(self.shape) for side in (0, 1))

    def _cells(self, first, last, tol, inside):
        """Cells (level at l, level at h, (v points, w points)) between two
        levels holding the values of the given points, in order."""
        cells: list = []
        stack = [(first, last, 0, inside)]
        while stack:
            low, high, depth, points = stack.pop()
            if not (len(points[0]) or len(points[1])):
                continue
            if self.affine(low, high):
                if cells and self.affine(cells[-1][0], high):
                    plow, _, pp = cells[-1]
                    cells[-1] = (plow, high, tuple(np.concatenate(pair) for pair in zip(pp, points)))
                else:
                    cells.append((low, high, points))
                continue
            if high.b - low.b <= tol or depth >= _MAX_BISECT:
                cells.append((low, high, points))
                continue
            middle = self.level(0.5 * (low.b + high.b))
            v_in = self.members(middle, 0, points[0])  # value at most mid
            w_in = self.members(middle, 1, points[1])  # value at least mid
            stack.append((middle, high, depth + 1, (points[0][~v_in], points[1][w_in])))
            stack.append((low, middle, depth + 1, (points[0][v_in], points[1][~w_in])))
        return cells

    def _closed_form(self, cells, C, E):
        """Exact values C of the points in cells whose end levels have equal
        signatures, given as (level at l, level at h, side, points), and the
        bounds E on their rounding.  Points are solved in batches of about ``_CHUNK`` whose tables have
        the same number of thresholds."""
        batches: dict = {}

        def solve(rows):
            l, h, side, idx, *rest = (np.concatenate(col) for col in zip(*rows))
            c, err = _exact_values(l, h, side, self.t[idx], *rest)
            for s, mask in enumerate((side == 0, side == 1)):
                C[s][idx[mask]] = c[mask]
                E[s][idx[mask]] = err[mask]

        for low, high, side, points in cells:
            P1, T1, F1, R = low.table(side)
            P2, T2, F2, _ = high.table(side)
            batch = batches.setdefault(T1.shape[1], [[], 0])
            for start in range(0, len(points), _CHUNK):
                idx = points[start:start + _CHUNK]
                x0 = self.x0[side][idx]
                k = np.searchsorted(P1 if side else P2, x0, side="right") - 1
                n = len(idx)
                cell = (np.full(n, low.b), np.full(n, high.b), np.full(n, side), idx, x0)
                batch[0].append(cell + (P1[k], P2[k], T1[k], T2[k], F1[k], F2[k], R[k]))
                batch[1] += n
                if batch[1] >= _CHUNK:
                    solve(batch[0])
                    batch[:] = [[], 0]
        for rows, n in batches.values():
            if n:
                solve(rows)

    def _snap(self, C, E, side, lo, hi, tol):
        """Bisection's answers for exact values C known to within E, probing
        only midpoints within that or ``_SNAP`` final cells of them."""
        l = np.full(C.shape, lo)
        h = np.full(C.shape, hi)
        delta = np.maximum(_SNAP * tol, E)
        for _ in range(_MAX_BISECT):
            active = h - l > tol
            if not active.any():
                break
            mid = 0.5 * (l + h)
            below = mid < C
            for i in np.flatnonzero(active & (np.abs(mid - C) <= delta)):
                member = self.level(float(mid[i])).slice(side).membership(float(self.x0[side][i]), float(self.t[i]))
                below[i] = member == bool(side)
            l = np.where(active & below, mid, l)
            h = np.where(active & ~below, mid, h)
        return 0.5 * (l + h)


# ---------------------------------------------------------------------------
# Solution field
# ---------------------------------------------------------------------------


class SolutionField:
    """Query object for v(x,t), w(x,t) and level sets of one problem.

    Values are bisection's answer in b over the monotone membership
    predicate, found with few probes (see ``_cell``); the absolute
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
        # every breakpoint value of v0 and w0, and on a segment their values
        # at its ends: the levels where a level-interval end changes piece
        critical = set(spec.v0.ys) | set(spec.w0.ys)
        if spec.domain.is_segment:
            critical |= {f(a) for f in (spec.v0, spec.w0) for a in (spec.domain.a1, spec.domain.a2)}
        self._critical = sorted(critical)

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
        if not 0.0 <= t < INF:  # false for nan too
            raise ValueError(f"t must be finite and nonnegative, got {t!r}")
        if not -INF < x < INF:
            raise ValueError(f"query x={x!r} is not finite")
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

    def _invert(
        self,
        x: float,
        t: float,
        bracket: Optional[Tuple[float, float]],
        reflected: bool,
        guess: Optional[float] = None,
    ) -> float:
        """Bisection's answer in b over the membership predicate of one side:
        the midpoint of its final cell (see ``_cell``)."""
        l, h = self._cell(x, t, bracket, reflected, guess)
        return 0.5 * (l + h)

    def _pair(self, b: float) -> _LevelPair:
        """The level pair at b, from the cache or built into it."""
        cache = self._cache
        pair = cache.get(b)
        if pair is None:
            if len(cache) > _CACHE_CAP:
                cache.clear()
            pair = _LevelPair(self.spec, b)
            cache[b] = pair
        return pair

    def _cell(
        self,
        x: float,
        t: float,
        bracket: Optional[Tuple[float, float]],
        reflected: bool,
        guess: Optional[float] = None,
    ) -> Tuple[float, float]:
        """The final cell [l, h] of plain bisection in b over the membership
        predicate of one side.

        The v side probes the sublevel slice at x - t, where membership
        rises with b.  w is v of the mirrored problem, so the w side probes
        the reflected slice at -(x + t), where membership falls with b.

        The cell is plain bisection's from the padded bracket, under the
        same step cap; only the way each midpoint's side is learnt differs.
        Membership is monotone in b, so the probes so far certify a band
        (a, z): every level <= a lies below the answer and every level >= z
        above it (the bracket ends count as certified, as in plain
        bisection).  A midpoint outside the band is decided without a probe.
        Inside it, an estimate of the answer picks the final cell [l, h] it
        falls in, and probing l and h certifies the whole path down to that
        cell.  The first estimate is ``guess``, by default the transport
        value, exact at liquid points.  Later ones are secants on the probed
        slices' residuals: through the two latest probes when both moved the
        same end of the band (a missed cell's ends give the local slope),
        else false position between a and z.  A step that does not
        halve the band is followed by one plain bisection probe.  Steering
        stops once the probes so far plus the plain steps still needed to
        close the band exceed plain bisection's depth by 14, so an
        evaluation takes at most about 16 probes more than plain bisection.
        The guess and the residual only steer: a wrong one costs probes,
        never the answer.
        """
        self._check_point(x, t)
        lo, hi = bracket if bracket is not None else self._bracket(x, t)
        lo, hi, tol = _padded(lo, hi, self.tolerance)
        budget = min(math.log2((hi - lo) / tol), _MAX_BISECT) + 14  # plain depth + 14
        xn = self._nudge(x)
        if reflected:
            x0, side, sign = -(xn + t), 1, -1.0
        else:
            x0, side, sign = xn - t, 0, 1.0
        if guess is None:
            guess = self.spec.w0(xn + t) if reflected else self.spec.v0(xn - t)
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
                return lo, hi
            est = None if probed else guess
            n = len(probed)
            # the plain steps left never exceed plain depth, so the first 14
            # probes are always within the budget
            steer = n <= 14 or n + min(math.log2((z - a) / tol), _MAX_BISECT - depth) <= budget
            if 1 < n and steer and not plain:
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
                sl = self._pair(b).slice(side)
                probed.append([b, sl, None])
                if sl.membership(x0, t) != reflected:
                    z, iz = b, len(probed) - 1
                else:
                    a, ia = b, len(probed) - 1
            if est is not None and a >= l and z <= h:
                return l, h  # the band decides every midpoint down to [l, h]
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

        Every value is plain bisection's answer on one bracket shared by the
        grid, as ``eval_v`` and ``eval_w`` return it with that bracket, but
        it is read off a few certified levels instead of one bisection per
        point (see ``_RowProfiles``).  For piecewise-linear data every
        level-set end is affine in b between two levels with equal
        signatures (see ``_LevelPair``), so each point's exact value follows in
        closed form; a walk down bisection's path turns it into bisection's
        answer, with a real membership probe wherever a midpoint comes within
        ``_SNAP`` final cells of it or within its rounding bound.  Only that
        final inversion is approximate.
        """
        xs = [float(x) for x in xs]
        ts = [float(t) for t in ts]
        if any(t < 0 for t in ts):
            raise ValueError("times must be nonnegative")
        if not all(self.spec.domain.contains(x) for x in xs):
            raise ValueError("grid x outside the domain")
        if not (xs and ts):
            return np.empty((len(ts), len(xs))), np.empty((len(ts), len(xs)))
        for t in ts:
            self._check_point(xs[0], t)
        for x in xs:
            self._check_point(x, ts[0])
        t_hi = max(ts)
        lo, hi, tol = self._span_bracket(min(xs) - t_hi, max(xs) + t_hi)
        xn = np.array([self._nudge(x) for x in xs])
        return _RowProfiles(self, xn, ts).values(lo, hi, tol)

    def _span_bracket(self, lo_x: float, hi_x: float) -> Tuple[float, float, float]:
        """The padded value bracket of [lo_x, hi_x] within the domain and its
        final cell width; ValueError where the padding overflows."""
        dom = self.spec.domain
        if dom.is_segment:
            lo_x, hi_x = max(lo_x, dom.a1), min(hi_x, dom.a2)
        lo, hi, tol = _padded(*self._value_range(lo_x, hi_x), self.tolerance)
        if not math.isfinite(hi - lo):
            raise ValueError(f"the values over [{lo_x:g}, {hi_x:g}] pad to [{lo:g}, {hi:g}], which is not finite")
        return lo, hi, tol

    def _sweep(self, lo_x: float, hi_x: float):
        """The levels of one sweep in b over the padded value bracket of
        [lo_x, hi_x] (within the domain), in order, and per cell between
        neighbours whether their signatures agree.

        Every critical value inside the bracket is a level, so no critical
        value lies inside a cell and equal signatures (``same``) make it
        affine; a cell whose end signatures differ is bisected down to its
        last representable midpoint, or ``_MAX_BISECT`` halvings.
        """
        lo, hi, _ = self._span_bracket(lo_x, hi_x)
        critical = self._critical
        levels, depths, affine = [self._pair(lo)], [0], []
        for b in critical[bisect_right(critical, lo):bisect_left(critical, hi)] + [hi]:
            stack = [(self._pair(b), 0)]  # upper ends still to reach, nearest last
            while stack:
                high, own = stack[-1]
                depth = max(own, depths[-1])
                same = levels[-1].same(high)
                mid = 0.5 * (levels[-1].b + high.b)
                if same or depth >= _MAX_BISECT or not levels[-1].b < mid < high.b:
                    stack.pop()
                    levels.append(high)
                    depths.append(own)
                    affine.append(same)
                else:
                    stack.append((self._pair(mid), depth + 1))
        return levels, affine

    # -- misc ---------------------------------------------------------------

    def zone_epsilon(self) -> float:
        lo, hi = self.spec.breakpoint_span()
        pad = max(1.0, hi - lo)
        b_lo, b_hi = self._value_range(lo - pad, hi + pad)
        return 10.0 * self.tolerance * max(1.0, b_hi - b_lo)
