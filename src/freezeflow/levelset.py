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

Everything known at one level b is one object.  Each query builds its
levels into a dict of its own, and a field keeps only the levels its latest
query built, which the next query reads before it builds: a trace in w
follows one in v from the same point, and A(v,b,t) and A(w,b,t) come from
the same K.  A level a query only reused is not kept.  A grid needs fewer
levels still.  Two levels with no critical value of the data between them and
equal signatures (the order of the nodes and the branch outcomes inside
the component structure) certify that every end is affine in b between
them, so the value of each grid point whose membership changes there
follows in closed form and is snapped to bisection's answer, with a real
probe where a midpoint comes close to it.  One routine splits a bracket
into such cells (``SolutionField._split``): for a grid, until each value
lies in one or in a final cell, and for one sweep in b that follows the
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
from itertools import accumulate, chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .intervals import IntervalUnion, merge_sorted
from .problem import ProblemSpec, validate

INF = math.inf

_MAX_BISECT = 60
_SNAP = 1e-3  # grid values this many final cells from a midpoint probe it
_ROUND = 1e-13  # relative rounding allowed for labels and thresholds in closed form
_FEW = 16  # grid points whose membership at a level is probed one by one
_CHUNK = 4096  # grid points solved in closed form together: bounds peak memory on grids of up to 10^6 points
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
    if b != b:
        raise ValueError("b must not be nan")
    if not spec.domain.is_segment:
        return spec.v0.sublevel_intervals(b), spec.w0.superlevel_intervals(b)
    # the level-interval lists come back sorted, merged and within [a1, a2],
    # so a tail can only join the first blue or the last red interval
    a1, a2 = spec.domain.a1, spec.domain.a2
    blue = spec.v0.sublevel_intervals(b, domain=(a1, a2))
    red = spec.w0.superlevel_intervals(b, domain=(a1, a2))
    head = blue.pop(0) if blue and blue[0][0] <= a1 else (a1, a1)
    blue.insert(0, (-INF, max(a1, head[1])))
    tail = red.pop() if red and red[-1][1] >= a2 else (a2, a2)
    red.append((tail[0], INF))
    return blue, red


def _k_regions(blue: Sequence[Tuple[float, float]], red: Sequence[Tuple[float, float]]):
    """Nodes and region values of K = 1_blue - 1_red.

    Returns (nodes, kvals): nodes is the sorted list of finite endpoints and
    kvals[i] is K on the open region between nodes[i-1] and nodes[i]
    (kvals[0] is the region left of all nodes, kvals[-1] right of all).
    Zero-length intervals carry no measure and do not affect K.
    """
    ends = set(chain(*blue, *red))
    ends.discard(INF)
    ends.discard(-INF)
    nodes = sorted(ends)
    # K steps up where a blue interval starts and down where it ends (red
    # the other way); region i starts at nodes[i - 1]
    steps = [0] * (len(nodes) + 1)
    for intervals, up in ((blue, 1), (red, -1)):
        for lo, hi in intervals:
            if hi - lo > 0.0:
                steps[bisect_right(nodes, lo)] += up
                if hi < INF:
                    steps[bisect_right(nodes, hi)] -= up
    return nodes, list(accumulate(steps))


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
    decreasing piecewise-linear function of x.  Its pieces are stored once
    per component (``_component_structure``) and read by ``_front``, by the
    grid's ``table`` and by the frozen segments.  The left-moving superlevel
    side reuses this via reflection.  ``codes`` holds the branch codes of
    every component in turn, each followed by -1.
    """

    __slots__ = ("components", "comp_los", "codes", "_table")

    def __init__(self, blue, nodes, kvals):
        self.components = []
        self.codes: list = []
        for (p, q) in blue:
            self.components.append(_component_structure(nodes, kvals, p, q, self.codes))
            self.codes.append(-1)
        self.comp_los = [c[0] for c in self.components]
        self._table = None

    def table(self):
        """``_front_table`` of this slice, built on first use."""
        if self._table is None:
            self._table = _front_table(self)
        return self._table

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
        either side are read (``neighbours``).
        """
        i = bisect_right(self.comp_los, x0) - 1
        left, right = self.neighbours(t, i)
        if x0 <= left:  # only the front of x0's own component reaches x0
            return min(x0 - self.comp_los[i], left - x0)
        return -min(x0 - left, right - x0)

    def neighbours(self, t: float, i: int, lo: float = -INF, hi: float = INF) -> Tuple[float, float]:
        """The front of the last component up to index i that survives at t
        and the left end of the first surviving component after i, both
        clamped to [lo, hi].  A component wholly outside [lo, hi] cannot
        move either, so the scans stop there."""
        comps = self.components
        for k in range(i, -1, -1):
            if comps[k][1] <= lo:
                break
            front = _front(comps[k], t)
            if front is not None:
                lo = max(lo, front)
                break
        for k in range(i + 1, len(comps)):
            if comps[k][0] >= hi:
                break
            if _front(comps[k], t) is not None:
                hi = comps[k][0]
                break
        return lo, hi


def _component_structure(nodes, kvals, p, q, codes):
    """(p, q, pieces, end) for one component [p, q] of the moving set.

    With labels c = x - q, walking the integrand right of q gives
    alpha(c) = y_base + (c_hi - c) on each piece c in (c_lo, c_hi], stored
    as its readers use it, (first, wait, last, stand): the front waits at
    label ``wait`` until t = ``first``, then retreats to ``stand`` - t until
    t = ``last``, so moved by t it stands at x = ``stand``.  ``end`` is the
    label q + c_end, at or below which none is annihilated, or None where the
    component dies.  The list ``codes`` receives the outcome of the three
    comparisons made in each descending region, which fix how the results
    are formed from the nodes.
    """
    if q == INF:
        return (p, q, (), q)
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
            c_lo = gs - length  # -inf on an infinite descent
            c_hi = mcur if mcur < gs else gs
            codes.append((mcur < gs) + 2 * (c_hi > c_lo) + 4 * (c_lo < mcur))
            if c_hi > c_lo:
                y_base = pos + (gs - c_hi)
                s = y_base + c_hi - q
                pieces.append(((y_base - q - c_hi) * 0.5, q + c_hi, (s - 2.0 * c_lo) * 0.5, q + s * 0.5))
            if c_lo < mcur:
                mcur = c_lo
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
    return (p, q, tuple(pieces), None if mcur == -INF else q + mcur)


def _front(comp, t):
    """Largest label of one component that survives at t, or None: q at
    t <= 0, then per piece ``wait`` while t <= ``first`` and ``stand`` - t
    while t <= ``last``, and past every piece the component's end."""
    p, q, pieces, end = comp
    if t <= 0.0:
        return q
    for first, wait, last, stand in pieces:
        if t <= first:
            front = wait
            break
        if t <= last:
            front = stand - t
            break
    else:
        front = end
    return front if front is not None and front >= p else None


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
    j = bisect_right(inner.comp_los, x0) - 1

    def r(s):
        hi = _front(comp, s) if comp is not None else INF
        if hi is None:
            return None
        lo, hi = inner.neighbours(s, j, p, hi)
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

    __slots__ = ("b", "blue", "red", "nodes", "kvals", "_v", "_w", "_pattern", "_frozen")

    def __init__(self, spec: ProblemSpec, b: float):
        self.b = b
        self.blue, self.red = extended_level_sets(spec, b)
        self.nodes, self.kvals = _k_regions(self.blue, self.red)
        self._v = self._w = self._pattern = self._frozen = None

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

    def frozen(self) -> list:
        """The frozen segments of this level, in the v slice's order.

        A piece's front stands at x = ``stand`` from its ``first`` time to its
        ``last``, or to its death ``stand`` - p.  Where a v piece and a w
        piece stand at the same x, v = w = b from the later of their first
        times to the earliest of their last times and deaths.  Returns
        (x, firsts, ends, key) per such pair, with firsts = (v first, w first),
        ends = (v last, v death, w last, w death) and key the (component,
        piece) indices of the v piece and then the w piece; a pair whose
        times do not overlap is kept, with a negative length.
        """
        if self._frozen is None:
            w = sorted(
                (-x, first, (last, x - p), (k, i))
                for k, (p, _, pieces, _) in enumerate(self.slice(1).components)
                for i, (first, _, last, x) in enumerate(pieces)
            )
            w_xs = [s[0] for s in w]
            self._frozen = []
            for k, (p, _, pieces, _) in enumerate(self.slice(0).components):
                for i, (first, _, last, x) in enumerate(pieces):
                    tiny = _MATCH * (1.0 + abs(x))
                    for j in range(bisect_left(w_xs, x - tiny), bisect_right(w_xs, x + tiny)):
                        self._frozen.append((x, (first, w[j][1]), (last, x - p, *w[j][2]), (k, i) + w[j][3]))
        return self._frozen


def _level_set(spec: ProblemSpec, level: _LevelPair, t: float, side: int) -> IntervalUnion:
    """A(v,b,t) (side 0) or A(w,b,t) (side 1) at the level b of ``level``.
    The survivors come sorted: moved by t they need only a merge where
    rounding makes neighbours touch, and the w side is reflected back."""
    if not 0.0 <= t < INF:  # false for nan too
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    moved = merge_sorted([(lo + t, hi + t) for lo, hi in level.slice(side).survivors(t)])
    out = IntervalUnion._of(tuple((-hi, -lo) for lo, hi in reversed(moved)) if side else tuple(moved))
    return out.clip(spec.domain.a1, spec.domain.a2) if spec.domain.is_segment else out


def _same_float(a: float, b: float) -> bool:
    """a and b are one number of one type, with the same sign of zero."""
    return a == b and type(a) is type(b) and math.copysign(1.0, a) == math.copysign(1.0, b)


def sublevel_set(spec: ProblemSpec, b: float, t: float) -> IntervalUnion:
    """A(v,b,t): surviving sublevel points transported to the right by t."""
    return _level_set(spec, _LevelPair(spec, b), t, 0)


def superlevel_set(spec: ProblemSpec, b: float, t: float) -> IntervalUnion:
    """A(w,b,t): surviving superlevel points transported to the left by t."""
    return _level_set(spec, _LevelPair(spec, b), t, 1)


# ---------------------------------------------------------------------------
# Grid evaluation: exact row profiles
# ---------------------------------------------------------------------------


def _padded(lo: float, hi: float, tolerance: float) -> Tuple[float, float, float]:
    """Bisection's padded bracket for a value range, and its final cell
    width; ValueError unless lo <= hi and the sum of any two levels in the
    padded bracket, as in a midpoint, is finite."""
    if not lo <= hi:  # false for nan too
        raise ValueError(f"value bracket ({lo!r}, {hi!r}) is not an interval")
    tol = tolerance * max(1.0, hi - lo)
    pad = 1e-9 * (1.0 + abs(lo) + abs(hi)) + 4.0 * tol
    lo, hi = lo - pad, hi + pad
    if not (math.isfinite(2.0 * lo) and math.isfinite(2.0 * hi)):
        raise ValueError(f"value bracket pads to ({lo:g}, {hi:g}), too wide for a finite midpoint")
    return lo, hi, tol


def _front_table(sl: _LevelSlice):
    """``_front`` of every component of a slice as arrays over its branches.

    Returns (p, T, F, R): the left ends p, and per component the thresholds
    T (0, then ``first`` and ``last`` per piece) and the fronts F - R t
    (q, then ``wait`` and ``stand`` - t per piece, then the end, -inf for
    none) of the branches in ``_front``'s order.  Unused thresholds are
    -inf, so a component with fewer pieces never takes them.
    """
    comps = sl.components
    m = max((1 + 2 * len(c[2]) for c in comps), default=1)
    T = np.full((len(comps), m), -INF)
    F = np.empty((len(comps), m + 1))
    R = np.zeros((len(comps), m + 1))
    for k, (p, q, pieces, end) in enumerate(comps):
        T[k, 0], F[k, 0] = 0.0, q
        for i, piece in enumerate(pieces, 1):
            T[k, 2 * i - 1], F[k, 2 * i - 1], T[k, 2 * i], F[k, 2 * i] = piece
            R[k, 2 * i] = 1.0
        F[k, 1 + 2 * len(pieces):] = -INF if end is None else end
    return np.array(sl.comp_los), T, F, R


def _half_line(ga, gb, l, w):
    """Ends of {b : g(b) >= 0} for the affine g with g(l) = ga, g(l + w) = gb."""
    root = l - ga * w / (gb - ga)
    flat = ga == gb
    lower = np.where(flat, np.where(ga >= 0, -INF, INF), np.where(gb > ga, root, -INF))
    upper = np.where(flat, np.where(ga >= 0, INF, -INF), np.where(gb > ga, INF, root))
    return lower, upper


def _exact_values(l, h, side, t, p1, p2, ta, tb, f1, f2, r, g, x0):
    """Where membership begins (side 0) or ends (side 1) in cells [l, h]
    with equal signatures at both ends, and a bound on how far rounding can
    have moved that level.

    The arguments before g have one row per group: a cell, a component and
    a grid time t.  Point i has group g[i] and label x0[i].  Membership at b
    is p(b) <= x0 <= front(b, t) in the component that holds x0 where it is
    a member.  p is affine in b from p1 to p2.  The front follows the branch
    of ``_front`` whose threshold, ta to tb, is the first that t does not
    exceed; each branch's front is affine in b from f1 - r t to f2 - r t, so
    it changes branch only at the roots of the thresholds at t, and between
    them the set of b is an interval.  Those roots and the branches between
    them are found once per group; only the label's part runs once per point.

    Labels and thresholds are known to ``_ROUND`` of their size; a
    constraint that is that close to binding at the value moves it by that
    much over its rate of change in b.
    """
    n, m = ta.shape
    w = (h - l)[:, None]
    lc, hc, tc = l[:, None], h[:, None], t[:, None]
    crossed = (np.minimum(ta, tb) < tc) & (tc < np.maximum(ta, tb))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # infinite ends and thresholds
        # once per group
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
        ends = [_finite_abs(p1), _finite_abs(p2), _finite_abs(f1).max(axis=1), _finite_abs(f2).max(axis=1)]
        bound = np.maximum.reduce(ends)
        f1, f2, r = (np.take_along_axis(a, branch, 1) for a in (f1, f2, r))
        # once per point
        ar = np.arange(len(g))
        l, h, w, t, rising, ra, rb = l[g], h[g], w[g], t[g], side[g] == 0, ra[g], rb[g]
        shift = r[g] * t[:, None] + x0[:, None]
        fa, fb = f1[g] - shift, f2[g] - shift
        f_lo, f_hi = _half_line(fa, fb, l[:, None], w)
        pa, pb = x0 - p1[g], x0 - p2[g]
        p_lo, p_hi = _half_line(pa, pb, l, w[:, 0])
        start = np.maximum(np.maximum(ra, f_lo), p_lo[:, None])
        end = np.minimum(np.minimum(rb, f_hi), p_hi[:, None])
        ok = (start <= end) & (rb > ra)
        j = np.where(rising, np.where(ok, start, INF).argmin(axis=1), np.where(ok, end, -INF).argmax(axis=1))
        found = ok[ar, j]
        c = np.where(rising, start[ar, j], end[ar, j])
        # the error bound: each constraint within rounding of binding at c
        tiny = _ROUND * (np.abs(x0) + t + bound[g])
        lam_c = (c - l) / w[:, 0]
        err = _ROUND * np.abs(c)
        for ga, gb in ((fa[ar, j], fb[ar, j]), (pa, pb)):
            near = np.abs(ga + (gb - ga) * lam_c) <= tiny
            err = np.maximum(err, np.where(near, tiny * w[:, 0] / np.abs(gb - ga), 0.0))
        at_root = c == np.where(rising, ra[ar, j], rb[ar, j])
        err = np.maximum(err, np.where(at_root, tiny / rates[g, np.where(rising, j, j + 1)], 0.0))
    # rounding can leave the set empty: then every midpoint in the cell is probed
    c = np.where(found, c, np.where(rising, h, l))
    return np.clip(c, l, h), np.where(found, err, w[:, 0])


def _finite_abs(a):
    return np.where(np.isfinite(a), np.abs(a), 0.0)


class _RowProfiles:
    """Bisection's answers at every point of one grid, from a few levels.

    The v side of point (x, t) reads the sublevel slices at label x - t and
    the w side the reflected slices at -(x + t), both at the nudged x.  The
    shared bracket is padded past the data's values over every point's
    triangle of determinacy, so its ends need no probe (the rule of
    ``SolutionField._cell``): a v point is never a member at the low end and
    always one at the high end, a w point the other way round.  The bracket
    is split by ``SolutionField._split`` with every point and the final cell
    width as the floor, and neighbouring affine cells are merged.  A point
    whose membership changes inside an affine cell gets its exact value c in
    closed form: every component end is affine in b there, and the branch
    ``_front`` takes at the point's t changes only where one of its
    thresholds, affine in b, crosses t.  Those crossings depend on the cell,
    the component and the row alone, so they are solved once per such group
    and only the label's part per point.  A point whose membership changes
    inside any other cell gets the cell's midpoint, known to within half the
    cell.  Each c then becomes
    bisection's answer by walking bisection's path with ``mid < c``
    deciding each step; a midpoint within ``_SNAP`` final cells of c, or
    within the bound on its error, is decided by a real membership probe,
    so ties, frozen points and the midpoints inside a final cell keep
    bisection's outcome.
    """

    def __init__(self, field: "SolutionField", xn, ts, built: dict):
        self.field, self.built = field, built
        self.level = lambda b: field._level(b, built)
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
        P, T, F, R = lv.slice(side).table()
        if not len(P):
            return np.zeros(len(idx), dtype=bool)
        branch = np.full((len(P), len(self.ts)), T.shape[1])
        for i in range(T.shape[1] - 1, -1, -1):  # the first threshold that t does not exceed wins
            branch = np.where(self.ts <= T[:, i:i + 1], i, branch)
        fronts = np.take_along_axis(F, branch, 1) - np.take_along_axis(R, branch, 1) * self.ts
        # a dead component's front lies left of its p, so left of x0 too
        k = np.searchsorted(P, x0, side="right") - 1
        return (k >= 0) & (x0 <= fronts[np.maximum(k, 0), self.rows[idx]])

    def split(self, level: _LevelPair, points):
        """The given (v, w) points whose values lie below and above a level."""
        v_in = self.members(level, 0, points[0])  # value at most b
        w_in = self.members(level, 1, points[1])  # value at least b
        return (points[0][v_in], points[1][~w_in]), (points[0][~v_in], points[1][w_in])

    def values(self, lo: float, hi: float, tol: float):
        every = np.arange(self.t.size)
        first, last = self.level(lo), self.level(hi)
        C, E = np.empty((2, 2, self.t.size))  # per side; every value lies in the bracket, so in one cell
        cells: list = []
        for low, high, affine, points in self.field._split(first, last, self.built, tol, (every, every), self.split):
            if affine and cells and cells[-1][2] and self.field._affine(cells[-1][0], high):
                prev = cells.pop()
                low, points = prev[0], tuple(np.concatenate(pair) for pair in zip(prev[3], points))
            cells.append((low, high, affine, points))
        exact = []
        for low, high, affine, points in cells:
            for side, idx in enumerate(points):
                if not affine:  # every midpoint inside the cell is probed
                    C[side][idx], E[side][idx] = 0.5 * (low.b + high.b), 0.5 * (high.b - low.b)
                elif len(idx):
                    exact.append((low, high, side, idx))
        self._closed_form(exact, C, E)
        return tuple(self._snap(C[side], E[side], side, lo, hi, tol).reshape(self.shape) for side in (0, 1))

    def _closed_form(self, cells, C, E):
        """Exact values C of the points in cells whose end levels have equal
        signatures, given as (level at l, level at h, side, points), and the
        bounds E on their rounding.  The points of a cell on one component
        and one grid row form a group, which shares every input of
        ``_exact_values`` but the label.  Points are solved in batches of
        about ``_CHUNK`` whose tables have the same number of thresholds.
        """
        nt = len(self.ts)
        batches: dict = {}

        def solve(groups, rows):
            groups = [np.concatenate(col) for col in zip(*groups)]
            g, idx, x0 = (np.concatenate(col) for col in zip(*rows))
            c, err = _exact_values(*groups, g, x0)
            side = groups[2][g]
            for s, mask in enumerate((side == 0, side == 1)):
                C[s][idx[mask]] = c[mask]
                E[s][idx[mask]] = err[mask]

        for low, high, side, points in cells:
            P1, T1, F1, R = low.slice(side).table()
            P2, T2, F2, _ = high.slice(side).table()
            groups, rows = batches.setdefault(T1.shape[1], ([], []))
            for start in range(0, len(points), _CHUNK):
                idx = points[start:start + _CHUNK]
                x0 = self.x0[side][idx]
                k = np.searchsorted(P1 if side else P2, x0, side="right") - 1
                # group ids follow those of the batch; k = -1, where P1[k] wraps, keys groups of its own
                keys, g = np.unique((k + 1) * nt + self.rows[idx], return_inverse=True)
                k, n = keys // nt - 1, len(keys)
                rows.append((g + sum(len(group[0]) for group in groups), idx, x0))
                cell = (np.full(n, low.b), np.full(n, high.b), np.full(n, side), self.ts[keys % nt])
                groups.append(cell + (P1[k], P2[k], T1[k], T2[k], F1[k], F2[k], R[k]))
                if sum(len(row[1]) for row in rows) >= _CHUNK:
                    solve(groups, rows)
                    del groups[:], rows[:]
        for groups, rows in batches.values():
            if rows:
                solve(groups, rows)

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
    triangle of determinacy.  Each query builds its levels into a dict of
    its own, and the field keeps only the levels its latest successful
    query built (``_last``), which the next query reads before it builds
    (``_level``).  All queries are pure, so concurrent reads are safe: a
    race over ``_last`` costs a rebuild, never a wrong answer, since a level
    is a function of the problem and b alone.  ``warnings`` holds the
    messages of the non-fatal validation issues (flat segments).

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
        self._last: dict = {}  # the levels the latest query built, by b
        # every breakpoint value of v0 and w0, and on a segment their values
        # at its ends: the levels where a level-interval end changes piece
        critical = set(spec.v0.ys) | set(spec.w0.ys)
        if spec.domain.is_segment:
            critical |= {f(a) for f in (spec.v0, spec.w0) for a in (spec.domain.a1, spec.domain.a2)}
        self._critical = sorted(critical)

    # -- brackets ----------------------------------------------------------

    def _value_range(self, lo_x: float, hi_x: float) -> Tuple[float, float]:
        """Smallest and largest value of v0 and w0 over [lo_x, hi_x] within
        the domain: every query's bracket, as the value at (x, t) depends
        only on the data over [x - t, x + t]."""
        dom = self.spec.domain
        lo_x, hi_x = max(lo_x, dom.a1), min(hi_x, dom.a2)  # the whole line's ends are infinite
        v_lo, v_hi = self.spec.v0.min_max_on(lo_x, hi_x)
        w_lo, w_hi = self.spec.w0.min_max_on(lo_x, hi_x)
        return min(v_lo, w_lo), max(v_hi, w_hi)

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
        built: dict = {}
        return self._keep(built, self._invert(x, t, bracket, False, built))

    def eval_w(self, x: float, t: float, bracket: Optional[Tuple[float, float]] = None) -> float:
        built: dict = {}
        return self._keep(built, self._invert(x, t, bracket, True, built))

    def _invert(self, x: float, t: float, bracket, reflected: bool, built: dict, guess: Optional[float] = None) -> float:
        """Bisection's answer in b over the membership predicate of one side:
        the midpoint of its final cell (see ``_cell``)."""
        l, h = self._cell(x, t, bracket, reflected, built, guess)
        return 0.5 * (l + h)

    def _level(self, b: float, built: dict) -> _LevelPair:
        """The level at b (the same float, sign of zero included) from the
        query's own levels ``built``, else from those the latest query
        built, else built into ``built``."""
        level = built.get(b) or self._last.get(b)
        # a key equal to b is the same float unless it is a zero or of another type
        if level is None or not (b and type(level.b) is type(b)) and not _same_float(level.b, b):
            level = built[b] = _LevelPair(self.spec, b)
        return level

    def _keep(self, built: dict, out):
        """Keep the levels a query built for the next query, and return the
        query's result; a query that raises never gets here."""
        self._last = built
        return out

    def _cell(self, x: float, t: float, bracket, reflected: bool, built: dict, guess: Optional[float] = None):
        """The final cell [l, h] of plain bisection in b over the membership
        predicate of one side.

        The v side probes the sublevel slice at x - t, where membership
        rises with b.  w is v of the mirrored problem, so the w side probes
        the reflected slice at -(x + t), where membership falls with b.

        The cell is plain bisection's from the padded bracket, under the
        same step cap; only the way each midpoint's side is learnt differs.
        Membership is monotone in b, so the probes so far certify a band
        (a, z): every level <= a lies below the answer and every level >= z
        above it.  The bracket's ends need no probe: padded past the data's
        values over the point's triangle of determinacy, it has a v point
        never a member at its low end and always one at its high end, and a
        w point the other way round (``_RowProfiles`` uses the same rule).
        A midpoint outside the band is decided without a probe.
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
        A final cell within rounding of the bracket's values is never
        steered to: every midpoint on the path is probed.
        The guess and the residual only steer: a wrong one costs probes,
        never the answer.  Each probe reads its level through ``_level``
        with the query's ``built``.
        """
        self._check_point(x, t)
        lo, hi = bracket if bracket is not None else self._value_range(x - t, x + t)
        lo, hi, tol = _padded(lo, hi, self.tolerance)
        budget = min(math.log2((hi - lo) / tol), _MAX_BISECT) + 14  # plain depth + 14
        rounding = tol <= _ROUND * (1.0 + abs(lo) + abs(hi))
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
            n = len(probed)
            # the plain steps left never exceed plain depth, so the first 14
            # probes are always within the budget
            steer = not rounding and (n <= 14 or n + min(math.log2((z - a) / tol), _MAX_BISECT - depth) <= budget)
            est = guess if steer and not probed else None
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
                sl = self._level(b, built).slice(side)
                probed.append([b, sl, None])
                if sl.membership(x0, t) != reflected:
                    z, iz = b, len(probed) - 1
                else:
                    a, ia = b, len(probed) - 1
            if est is not None and a >= l and z <= h:
                return l, h  # the band decides every midpoint down to [l, h]
            plain = est is not None and z - a > 0.5 * width

    def eval_pair(self, x: float, t: float) -> Tuple[float, float]:
        br, built = self._value_range(x - t, x + t), {}
        return self._keep(built, (self._invert(x, t, br, False, built), self._invert(x, t, br, True, built)))

    # -- sets --------------------------------------------------------------

    def sublevel_set(self, b: float, t: float) -> IntervalUnion:
        return self._level_set(b, t, 0)

    def superlevel_set(self, b: float, t: float) -> IntervalUnion:
        return self._level_set(b, t, 1)

    def _level_set(self, b: float, t: float, side: int) -> IntervalUnion:
        """One side's set at b.  A(v,b,t) and A(w,b,t) are mostly asked
        together, so the second reads the level the first built."""
        built: dict = {}
        return self._keep(built, _level_set(self.spec, self._level(b, built), t, side))

    # -- grid evaluation -----------------------------------------------------

    def eval_grid(
        self, xs: Sequence[float], ts: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense evaluation; V[i][j] = v(xs[j], ts[i]), likewise W.

        Every value is plain bisection's answer on one bracket shared by the
        grid, as ``eval_v`` and ``eval_w`` return it with that bracket, but
        it is read off a few certified levels instead of one bisection per
        point (see ``_RowProfiles``).  For piecewise-linear data every
        level-set end is affine in b across an affine cell of ``_split``,
        so each point's exact value follows in closed form; a walk down
        bisection's path turns it into bisection's answer, with a real
        membership probe wherever a midpoint comes within ``_SNAP`` final
        cells of it or within its error bound.  Only that final inversion
        is approximate.
        """
        xs = [float(x) for x in xs]
        ts = [float(t) for t in ts]
        if not (xs and ts):
            return np.empty((len(ts), len(xs))), np.empty((len(ts), len(xs)))
        for t in ts:
            self._check_point(xs[0], t)
        for x in xs:
            self._check_point(x, ts[0])
        t_hi = max(ts)
        lo, hi, tol = _padded(*self._value_range(min(xs) - t_hi, max(xs) + t_hi), self.tolerance)
        xn = np.array([self._nudge(x) for x in xs])
        built: dict = {}
        return self._keep(built, _RowProfiles(self, xn, ts, built).values(lo, hi, tol))

    def _sweep(self, lo_x: float, hi_x: float):
        """The levels of one sweep in b over the padded value bracket of
        [lo_x, hi_x] (within the domain), in order, and whether each cell
        between neighbours is affine: the cells of ``_split`` with no points,
        so every critical value inside the bracket is a level, unmerged."""
        lo, hi, _ = _padded(*self._value_range(lo_x, hi_x), self.tolerance)
        built: dict = {}
        cells = self._split(self._level(lo, built), self._level(hi, built), built)
        return self._keep(built, ([cells[0][0]] + [cell[1] for cell in cells], [cell[2] for cell in cells]))

    def _affine(self, low: _LevelPair, high: _LevelPair) -> bool:
        """No critical value strictly between two levels and equal
        signatures: every end is affine in b from one to the other."""
        i = bisect_right(self._critical, low.b)
        return (i == len(self._critical) or self._critical[i] >= high.b) and low.same(high)

    def _split(self, first: _LevelPair, last: _LevelPair, built: dict, floor: float = 0.0, points=None, split=None):
        """The cells between two levels, in order, as (level at l, level at
        h, affine, points): the one way grids and the sweep split b.

        A cell is affine (``_affine``) when no critical value lies strictly
        inside it and its end signatures agree.  Every end is continuous in
        b, so a level at a critical value closes the cells on both sides of
        it.  Any other cell that holds points is split at its middle
        critical value, else at its midpoint, until it is no wider than
        ``floor``, is ``_MAX_BISECT`` halvings past its last critical value,
        or has no representable midpoint.  ``split(level, points)`` parts
        the values in ``points`` into those below and above a level, and a
        cell left with none is dropped.  Without points every cell is split,
        so every critical value between the two levels becomes a level.
        """
        critical, cells = self._critical, []
        stack = [(first, last, 0, bisect_right(critical, first.b), bisect_left(critical, last.b), points)]
        while stack:
            low, high, depth, i, j, held = stack.pop()  # critical[i:j] lie strictly inside
            if held is not None and not any(len(p) for p in held):
                continue
            k, wall = (i + j) // 2, i < j  # wall: split at a critical value
            affine = not wall and low.same(high)  # ``_affine``, with critical[i:j] known
            b = critical[k] if wall else 0.5 * (low.b + high.b)
            if affine or high.b - low.b <= floor or not wall and (depth >= _MAX_BISECT or not low.b < b < high.b):
                cells.append((low, high, affine, held))
                continue
            middle, depth = self._level(b, built), 0 if wall else depth + 1
            below, above = (None, None) if held is None else split(middle, held)
            stack += [(middle, high, depth, k + wall, j, above), (low, middle, depth, i, k, below)]
        return cells

    # -- misc ---------------------------------------------------------------

    def zone_epsilon(self) -> float:
        lo, hi = self.spec.breakpoint_span()
        pad = max(1.0, hi - lo)
        b_lo, b_hi = self._value_range(lo - pad, hi + pad)
        return 10.0 * self.tolerance * max(1.0, b_hi - b_lo)
