"""Freezing/thawing boundary extraction and corner slope measurement.

The liquid/frozen interface is traced by marching squares on the sign of
v - w - zone_epsilon with sub-cell linear interpolation, then split into
freezing pieces (|dt/dx| <= 1) and thawing pieces (|dt/dx| > 1) by local
slope regime.  Corners are slope-regime changes sustained over several
segments.  Each detected corner is then refined against the exact gap field:
both incident branches are re-sampled by bisection in their own graph
direction (t over x for freezing, x over t for thawing), extrapolated to the
zero contour level, and fitted with quadratics whose intersection gives the
corner and whose derivatives give the one-sided slopes.

For strictly increasing data the freezing curve also has an exact parametric
form (characteristics of equal value meeting halfway), provided here as a
high-precision reference for validating the grid extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from .characteristics import Curve, CurveKind
from .levelset import SolutionField
from .problem import PiecewiseLinear, ProblemSpec


class CornerKind(Enum):
    FREEZE_THAW = "freeze_thaw"
    THAW_FREEZE = "thaw_freeze"
    TIP = "tip"


@dataclass
class Corner:
    x: float
    t: float
    kind: CornerKind
    # incident curve indices into BoundarySet lists, with the end ("lo"/"hi" in x)
    # that touches the corner; a tip has two thawing branches
    freezing: Optional[Tuple[int, str]] = None
    thawing: Optional[Tuple[int, str]] = None
    thawing2: Optional[Tuple[int, str]] = None
    # refined boundary samples (exact gap-field bisections) near the corner,
    # ordered nearest-first; used for one-sided slope measurement
    freezing_pts: Optional[List[Tuple[float, float]]] = None
    thawing_pts: Optional[List[Tuple[float, float]]] = None
    # one-sided derivatives of the refined quadratic fits at the corner:
    # dt/dx for the freezing slot, dx/dt for thawing branches
    fit_f_slope: Optional[float] = None
    fit_f_dxdt: Optional[float] = None
    fit_t_dxdt: Optional[float] = None
    # spread of dx/dt along the thawing ladder; a corner derivative small
    # against this spread cannot be certified nonzero (unbounded slope)
    fit_t_spread: float = 0.0


@dataclass
class CornerSlopes:
    freezing_slope: Optional[float]
    thawing_slope: Optional[float]
    freezing_unbounded: bool = False
    thawing_unbounded: bool = False

    def __iter__(self):
        return iter((self.freezing_slope, self.thawing_slope))


@dataclass
class BoundarySet:
    freezing: List[Curve] = field(default_factory=list)
    thawing: List[Curve] = field(default_factory=list)
    corners: List[Corner] = field(default_factory=list)
    cell_size: float = 0.0
    warnings: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------


def _march_segments(xs, ts, g):
    """Zero-contour segments of g per cell; endpoints keyed by grid edge."""
    nt, nx = g.shape
    segs = []  # (edge_key_a, edge_key_b, point_a, point_b)

    def h_cross(i, j):
        g0, g1 = g[i, j], g[i, j + 1]
        s = g0 / (g0 - g1)
        return (xs[j] + s * (xs[j + 1] - xs[j]), ts[i])

    def v_cross(i, j):
        g0, g1 = g[i, j], g[i + 1, j]
        s = g0 / (g0 - g1)
        return (xs[j], ts[i] + s * (ts[i + 1] - ts[i]))

    for i in range(nt - 1):
        for j in range(nx - 1):
            c = [g[i, j] > 0, g[i, j + 1] > 0, g[i + 1, j + 1] > 0, g[i + 1, j] > 0]
            if all(c) or not any(c):
                continue
            edges = []  # (key, point)
            if c[0] != c[1]:
                edges.append((("h", i, j), h_cross(i, j)))
            if c[1] != c[2]:
                edges.append((("v", i, j + 1), v_cross(i, j + 1)))
            if c[3] != c[2]:
                edges.append((("h", i + 1, j), h_cross(i + 1, j)))
            if c[0] != c[3]:
                edges.append((("v", i, j), v_cross(i, j)))
            if len(edges) == 2:
                (ka, pa), (kb, pb) = edges
                segs.append((ka, kb, pa, pb))
            elif len(edges) == 4:
                # saddle: resolve by the cell-center sign
                center = 0.25 * (g[i, j] + g[i, j + 1] + g[i + 1, j] + g[i + 1, j + 1])
                if (center > 0) == c[0]:
                    pairs = ((0, 3), (1, 2))
                else:
                    pairs = ((0, 1), (2, 3))
                for a, b in pairs:
                    segs.append((edges[a][0], edges[b][0], edges[a][1], edges[b][1]))
    return segs


def _chain(segs):
    """Chain marching-squares segments into polylines via shared edge keys."""
    adj: Dict[tuple, list] = {}
    for idx, (ka, kb, _, _) in enumerate(segs):
        adj.setdefault(ka, []).append((idx, kb))
        adj.setdefault(kb, []).append((idx, ka))
    used = [False] * len(segs)
    points = {}
    for ka, kb, pa, pb in segs:
        points[ka] = pa
        points[kb] = pb
    polylines = []
    start_keys = [k for k, nbrs in adj.items() if len(nbrs) == 1] + list(adj.keys())
    for start in start_keys:
        if all(used[i] for i, _ in adj[start]):
            continue
        line = [start]
        cur = start
        while True:
            nxt = None
            for idx, other in adj[cur]:
                if not used[idx]:
                    used[idx] = True
                    nxt = other
                    break
            if nxt is None:
                break
            line.append(nxt)
            cur = nxt
        if len(line) >= 2:
            polylines.append([points[k] for k in line])
    return polylines


# ---------------------------------------------------------------------------
# Regime splitting and corners
# ---------------------------------------------------------------------------


def _regimes_raw(pts, closed):
    """Regime per polyline segment: 'F', 'T+' or 'T-'.

    Slopes are smoothed over a five-segment window before classification;
    grid noise near |dt/dx| = 1 would otherwise split curves spuriously, and
    a smoothed |dt/dx| up to 1.12 still counts as freezing.
    """
    n = len(pts) if closed else len(pts) - 1
    nxt = (lambda i: (i + 1) % len(pts)) if closed else (lambda i: i + 1)
    dxs = [pts[nxt(i)][0] - pts[i][0] for i in range(n)]
    dts = [pts[nxt(i)][1] - pts[i][1] for i in range(n)]
    reg = []
    for i in range(n):
        if closed:
            idx = [(i + k) % n for k in range(-2, 3)]
        else:
            idx = range(max(0, i - 2), min(n, i + 3))
        sdx = sum(dxs[j] for j in idx)
        sdt = sum(dts[j] for j in idx)
        if abs(sdt) <= 1.12 * abs(sdx):
            reg.append("F")
        else:
            reg.append("T+" if sdt * sdx > 0 else "T-")
    return reg


def _suppress_runs(reg, min_run=6):
    """Merge regime runs shorter than min_run into their longer neighbour.

    min_run exceeds the slope-smoothing window so that the mixed-slope
    segments straddling a genuine corner cannot masquerade as a regime.
    """
    runs = []
    for r in reg:
        if runs and runs[-1][0] == r:
            runs[-1][1] += 1
        else:
            runs.append([r, 1])
    while len(runs) > 1:
        k = min(range(len(runs)), key=lambda j: runs[j][1])
        if runs[k][1] >= min_run:
            break
        if k == 0:
            runs[1][1] += runs[0][1]
            runs.pop(0)
        elif k == len(runs) - 1:
            runs[-2][1] += runs[-1][1]
            runs.pop()
        else:
            left, right = runs[k - 1], runs[k + 1]
            (left if left[1] >= right[1] else right)[1] += runs[k][1]
            runs.pop(k)
        # re-join equal neighbours created by the merge
        j = 0
        while j < len(runs) - 1:
            if runs[j][0] == runs[j + 1][0]:
                runs[j][1] += runs[j + 1][1]
                runs.pop(j + 1)
            else:
                j += 1
    out = []
    for r, m in runs:
        out.extend([r] * m)
    return out


def _fit_line(pts):
    """Total least squares line through points: (centroid, unit direction)."""
    arr = np.asarray(pts)
    c = arr.mean(axis=0)
    u, s, vt = np.linalg.svd(arr - c)
    return c, vt[0]


def _intersect(c1, d1, c2, d2):
    # c1 + a d1 = c2 + b d2
    A = np.array([[d1[0], -d2[0]], [d1[1], -d2[1]]])
    rhs = np.array([c2[0] - c1[0], c2[1] - c1[1]])
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < 1e-14:
        return None
    a = (rhs[0] * A[1, 1] - rhs[1] * A[0, 1]) / det
    return (c1[0] + a * d1[0], c1[1] + a * d1[1])


def _make_curve(kind, pts):
    pts = sorted(pts, key=lambda p: (p[0], p[1]))
    return Curve(kind, pts)


def extract_boundaries(
    field_: SolutionField,
    window: Tuple[float, float, float, float],
    resolution: Tuple[int, int],
    zone_epsilon: Optional[float] = None,
) -> BoundarySet:
    """Trace the liquid/frozen interface inside window = (x0, x1, t0, t1).

    Classifies a (nx x nt) grid by the sign of v - w - zone_epsilon, chains
    the marching-squares contour, splits it into freezing and thawing pieces
    by slope regime, and refines corners by intersecting incident line fits.
    A too-coarse resolution is reported in ``warnings``, not raised.
    """
    x0, x1, t0, t1 = window
    nx, nt = resolution
    eps = zone_epsilon if zone_epsilon is not None else field_.zone_epsilon()
    xs = np.linspace(x0, x1, nx)
    ts = np.linspace(max(t0, 0.0), t1, nt)
    V, W = field_.eval_grid(xs, ts)
    g = V - W - eps
    cell = max(xs[1] - xs[0], ts[1] - ts[0]) if nx > 1 and nt > 1 else 0.0
    out = BoundarySet(cell_size=cell)
    dom = field_.spec.domain
    frozen_cells = int((g <= 0).sum())
    if frozen_cells == 0:
        return out
    if frozen_cells < 4:
        out.warnings.append("interface thinner than 2 cells; increase resolution")
    segs = _march_segments(xs, ts, g)
    polylines = _chain(segs)
    for pts in polylines:
        if len(pts) < 4:
            continue
        closed = math.hypot(pts[0][0] - pts[-1][0], pts[0][1] - pts[-1][1]) < 1e-12
        if closed:
            pts = pts[:-1]
        reg = _regimes_raw(pts, closed)
        if closed:
            # rotate so index 0 sits on a regime boundary; then treat linearly
            pivots = [k for k in range(len(reg)) if reg[k] != reg[k - 1]]
            if pivots:
                k0 = pivots[0]
                pts = pts[k0:] + pts[:k0]
                reg = reg[k0:] + reg[:k0]
            pts = pts + [pts[0]]
            reg = reg  # one regime entry per segment; len(pts) == len(reg) + 1 now
        reg = _suppress_runs(reg)
        # split into maximal one-regime pieces
        pieces = []
        start = 0
        for k in range(1, len(reg)):
            if reg[k] != reg[k - 1]:
                pieces.append((reg[start], pts[start : k + 1]))
                start = k
        pieces.append((reg[start], pts[start : len(reg) + 1]))
        if closed and len(pieces) > 1 and pieces[0][0] == pieces[-1][0]:
            # the loop seam fell inside one regime run; rejoin it across the seam
            label, tail = pieces.pop()
            head = pieces[0][1]
            pieces[0] = (label, tail[:-1] + head)
        if closed and len(pieces) == 1:
            kind = CurveKind.FREEZING if pieces[0][0] == "F" else CurveKind.THAWING
            (out.freezing if pieces[0][0] == "F" else out.thawing).append(
                _make_curve(kind, pieces[0][1])
            )
            continue
        piece_refs = []
        for regime, sub in pieces:
            kind = CurveKind.FREEZING if regime == "F" else CurveKind.THAWING
            lst = out.freezing if regime == "F" else out.thawing
            lst.append(_make_curve(kind, sub))
            piece_refs.append((regime, len(lst) - 1, sub))
        # corners at regime changes (plus the wrap-around joint on loops)
        joints = list(zip(piece_refs, piece_refs[1:]))
        if closed and len(piece_refs) > 1:
            joints.append((piece_refs[-1], piece_refs[0]))
        for (rg_a, ia, sub_a), (rg_b, ib, sub_b) in joints:
            joint = sub_a[-1]
            fit_a = _fit_line(sub_a[-min(5, len(sub_a)) :])
            fit_b = _fit_line(sub_b[: min(5, len(sub_b))])
            hit = _intersect(*fit_a, *fit_b)
            cx, ct = hit if hit is not None else joint
            if math.hypot(cx - joint[0], ct - joint[1]) > 6 * cell:
                cx, ct = joint  # ill-conditioned fit; keep the raw joint
            end_a = "lo" if sub_a[-1][0] <= sub_a[0][0] else "hi"
            end_b = "lo" if sub_b[0][0] <= sub_b[-1][0] else "hi"
            if rg_a == "F" or rg_b == "F":
                if rg_a == "F":
                    freezing_ref, thawing_ref = (ia, end_a), (ib, end_b)
                    f_sub, t_sub = sub_a, sub_b
                else:
                    freezing_ref, thawing_ref = (ib, end_b), (ia, end_a)
                    f_sub, t_sub = sub_b, sub_a
                # freeze/thaw corner: the freezing branch lies below the thawing one
                f_t = np.mean([p[1] for p in f_sub])
                t_t = np.mean([p[1] for p in t_sub])
                kind = CornerKind.FREEZE_THAW if f_t <= t_t else CornerKind.THAW_FREEZE
                corner = Corner(cx, ct, kind, freezing=freezing_ref, thawing=thawing_ref)
                _refine_corner(field_, eps, corner, f_sub, t_sub, cell)
            else:
                corner = Corner(cx, ct, CornerKind.TIP, thawing=(ia, end_a), thawing2=(ib, end_b))
                _refine_tip(field_, eps, corner, sub_a, sub_b, cell)
            # a fit extrapolated to a segment end can overshoot it by ~1e-9
            corner.x = min(max(corner.x, dom.a1), dom.a2)
            out.corners.append(corner)
    return out


# ---------------------------------------------------------------------------
# Corner refinement against the exact gap field
# ---------------------------------------------------------------------------


def _gap(field_: SolutionField, x, t):
    return field_.eval_v(x, t) - field_.eval_w(x, t)


def _contour(gap, eps, frozen, liquid, lo, hi):
    """Where the 1-D gap function crosses eps, bisected between a frozen
    probe (gap <= eps) and a liquid one.  Both probes are first clamped to
    [lo, hi]; None when the clamped bracket does not straddle the contour."""
    frozen = min(max(frozen, lo), hi)
    liquid = min(max(liquid, lo), hi)
    if gap(frozen) > eps or gap(liquid) <= eps:
        return None
    for _ in range(42):
        mid = 0.5 * (frozen + liquid)
        if gap(mid) <= eps:
            frozen = mid
        else:
            liquid = mid
    return 0.5 * (frozen + liquid)


def _boundary(gap, eps, frozen, liquid, lo, hi):
    """eps-extrapolated boundary: the gap contour at level eps sits
    eps/|grad gap| inside the liquid zone, so extrapolate eps -> 0 from two
    contour levels."""
    h1 = _contour(gap, eps * 0.5, frozen, liquid, lo, hi)
    h2 = _contour(gap, eps, frozen, liquid, lo, hi)
    if h1 is None or h2 is None:
        return h1 if h1 is not None else h2
    return 2.0 * h1 - h2


def _curve_interp(sub, by_x: bool):
    pts = sorted(sub, key=(lambda p: p[0]) if by_x else (lambda p: p[1]))
    if by_x:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
    else:
        xs = [p[1] for p in pts]
        ys = [p[0] for p in pts]
    def f(q):
        return float(np.interp(q, xs, ys))
    return f, (min(xs), max(xs))


def _refine_freezing_branch(field_, eps, sub, corner_xy, cell, n=10, margin=3.0):
    """Exact boundary samples (x, T_f(x)) marching away from the corner.

    The freezing curve is a graph over x with liquid below and frozen above,
    so each sample is a t-bisection of the gap field at fixed x.  The ladder
    starts ``margin`` cells away from the estimated corner so that corner
    position error cannot push samples onto the other incident branch.
    """
    cx, ct = corner_xy
    t_of_x, (x_lo, x_hi) = _curve_interp(sub, by_x=True)
    away = -1.0 if abs(x_lo - cx) > abs(x_hi - cx) else 1.0
    dom = field_.spec.domain
    pts = []
    for k in range(n):
        x = cx + away * (margin + 0.8 * k) * cell
        if not dom.contains(x):
            continue
        t_est = t_of_x(min(max(x, x_lo), x_hi))
        gap = partial(_gap, field_, x)
        hit = _boundary(gap, eps, t_est + 3 * cell, t_est - 3 * cell, 0.0, math.inf)
        if hit is not None:
            pts.append((x, hit))
    return pts


def _refine_thawing_branch(field_, eps, sub, corner_xy, cell, n=10, margin=3.0):
    """Exact boundary samples (X(t), t) marching away from the corner.

    The thawing curve is a graph over t; the frozen side is found by probing
    left and right of the estimated curve position.  Same margin logic as the
    freezing ladder.
    """
    cx, ct = corner_xy
    x_of_t, (t_lo, t_hi) = _curve_interp(sub, by_x=False)
    away = -1.0 if abs(t_lo - ct) > abs(t_hi - ct) else 1.0
    dom = field_.spec.domain
    pts = []
    for k in range(n):
        t = ct + away * (margin + 0.8 * k) * cell
        if t < 0:
            continue
        x_est = x_of_t(min(max(t, t_lo), t_hi))
        left, right = max(x_est - 3 * cell, dom.a1), min(x_est + 3 * cell, dom.a2)
        gap = partial(_gap, field_, t=t)
        if gap(left) <= eps:
            hit = _boundary(gap, eps, left, right, dom.a1, dom.a2)
        else:
            hit = _boundary(gap, eps, right, left, dom.a1, dom.a2)
        if hit is not None:
            pts.append((hit, t))
    return pts


def _fit_quad(pts, by_x: bool):
    """Least-squares quadratic in the branch's own graph direction.

    Returns coefficients (c2, c1, c0) of v = c2 u^2 + c1 u + c0 with
    u = x, v = t (by_x) or u = t, v = x.  The quadratic removes the
    linear slope variation that biases straight-line corner fits.
    """
    if by_x:
        u = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
    else:
        u = np.array([p[1] for p in pts])
        v = np.array([p[0] for p in pts])
    deg = 2 if len(pts) >= 4 else 1
    c = np.polyfit(u, v, deg)
    if deg == 1:
        c = np.concatenate([[0.0], c])
    return c


def _refine_corner(field_, eps, corner, f_sub, t_sub, cell):
    """Recompute a freeze/thaw corner from exact boundary samples.

    Two passes: each samples both branches by bisecting the gap field in the
    branch's graph direction (starting a safety margin away from the current
    corner estimate), fits quadratics, and moves the corner to the fixed
    point of x -> X_thaw(T_freeze(x)).  The second pass, anchored at the
    pass-one corner, tightens the ladders; one-sided slopes are the fitted
    derivatives at the final corner.
    """
    fpts = tpts = None
    for margin in (3.0, 1.2):
        est = (corner.x, corner.t)
        fpts = _refine_freezing_branch(field_, eps, f_sub, est, cell, margin=margin)
        tpts = _refine_thawing_branch(field_, eps, t_sub, est, cell, margin=margin)
        if len(fpts) < 3 or len(tpts) < 3:
            break
        qf = _fit_quad(fpts, by_x=True)   # t = qf(x)
        qt = _fit_quad(tpts, by_x=False)  # x = qt(t)
        x_star = corner.x
        for _ in range(60):
            x_new = float(np.polyval(qt, np.polyval(qf, x_star)))
            if abs(x_new - x_star) < 1e-14:
                x_star = x_new
                break
            x_star = x_new
        t_star = float(np.polyval(qf, x_star))
        if math.hypot(x_star - corner.x, t_star - corner.t) >= 6 * cell:
            break
        corner.x, corner.t = float(x_star), t_star
        corner.fit_f_slope = float(2 * qf[0] * x_star + qf[1])
        corner.fit_t_dxdt = float(2 * qt[0] * t_star + qt[1])
        ms = [2 * qt[0] * p[1] + qt[1] for p in tpts]
        corner.fit_t_spread = float(max(ms) - min(ms))
    corner.freezing_pts = fpts or None
    corner.thawing_pts = tpts or None


def _refine_tip(field_, eps, corner, sub_a, sub_b, cell):
    """Recompute a tip by extrapolating the frozen width to zero.

    Just below the tip the frozen set is a shrinking interval [l(t), r(t)];
    both edges are exact x-bisections, and the tip is where the fitted
    quadratics meet.
    """
    cx, ct = corner.x, corner.t
    dom = field_.spec.domain
    lpts, rpts = [], []
    for k in range(2, 10):
        t = ct - k * cell * 0.75
        if t < 0:
            continue
        gap = partial(_gap, field_, t=t)
        # locate a frozen probe near the middle
        probe = None
        for x in np.linspace(cx - 2 * cell, cx + 2 * cell, 9):
            if dom.contains(x) and gap(x) <= eps:
                probe = x
                break
        if probe is None:
            continue
        left = _boundary(gap, eps, probe, probe - 8 * cell, dom.a1, dom.a2)
        right = _boundary(gap, eps, probe, probe + 8 * cell, dom.a1, dom.a2)
        if left is not None:
            lpts.append((left, t))
        if right is not None:
            rpts.append((right, t))
    corner.freezing_pts = lpts or None
    corner.thawing_pts = rpts or None
    if len(lpts) < 3 or len(rpts) < 3:
        return
    ql = _fit_quad(lpts, by_x=False)   # x = ql(t)
    qr = _fit_quad(rpts, by_x=False)
    diff = np.polysub(ql, qr)
    roots = [r.real for r in np.roots(diff) if abs(r.imag) < 1e-9]
    if not roots:
        return
    t_star = min(roots, key=lambda r: abs(r - ct))
    x_star = float(np.polyval(ql, t_star))
    if math.hypot(x_star - cx, t_star - ct) < 8 * cell:
        corner.x, corner.t = x_star, float(t_star)
        corner.fit_f_dxdt = float(2 * ql[0] * t_star + ql[1])
        corner.fit_t_dxdt = float(2 * qr[0] * t_star + qr[1])


# ---------------------------------------------------------------------------
# Exact freezing curve for monotone data
# ---------------------------------------------------------------------------


def _solve_increasing(f: PiecewiseLinear, c: float, lo: float, hi: float) -> float:
    """x in [lo, hi] with f(x) = c, for f strictly increasing there (exact)."""
    knots = [lo] + [x for x in f.xs if lo < x < hi] + [hi]
    vals = [f(x) for x in knots]
    for k in range(len(knots) - 1):
        if vals[k] <= c <= vals[k + 1]:
            if vals[k + 1] == vals[k]:
                return knots[k]
            return knots[k] + (c - vals[k]) * (knots[k + 1] - knots[k]) / (vals[k + 1] - vals[k])
    raise ValueError(f"value {c:g} not attained on [{lo:g}, {hi:g}]")


def freezing_curve_monotone_case(
    spec: ProblemSpec, y1: float, y2: float, samples: int = 200
) -> Curve:
    """Exact freezing curve for data strictly increasing on [y1, y2].

    Characteristics of equal value c meet halfway: with v0(xi) = w0(eta) = c
    the meeting point is ((xi + eta)/2, (eta - xi)/2).  Sampled over the
    shared value range; empty when the ranges are disjoint.
    """
    for f, name in ((spec.v0, "v0"), (spec.w0, "w0")):
        knots = [y1] + [x for x in f.xs if y1 < x < y2] + [y2]
        vals = [f(x) for x in knots]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"{name} is not strictly increasing on [{y1:g}, {y2:g}]")
    c_lo = max(spec.v0(y1), spec.w0(y1))
    c_hi = min(spec.v0(y2), spec.w0(y2))
    if c_lo > c_hi:
        return Curve(CurveKind.FREEZING, [])
    pts = []
    for c in np.linspace(c_lo, c_hi, samples):
        xi = _solve_increasing(spec.v0, c, y1, y2)
        eta = _solve_increasing(spec.w0, c, y1, y2)
        t = (eta - xi) / 2.0
        if t >= 0:
            pts.append(((xi + eta) / 2.0, t))
    return _make_curve(CurveKind.FREEZING, pts)


# ---------------------------------------------------------------------------
# Corner slopes
# ---------------------------------------------------------------------------


def _chord_pair(pts, corner):
    """Chord vectors toward the corner from the nearest sample and one at
    roughly twice its distance (for Richardson extrapolation)."""
    cx, ct = corner
    ordered = sorted(pts, key=lambda p: math.hypot(p[0] - cx, p[1] - ct))
    (x1, t1) = ordered[0]
    d1 = math.hypot(x1 - cx, t1 - ct)
    far = next((p for p in ordered if math.hypot(p[0] - cx, p[1] - ct) >= 1.9 * d1), ordered[-1])
    return (x1 - cx, t1 - ct), (far[0] - cx, far[1] - ct)


def _one_sided_slope(pts, corner, slope_tol):
    """Richardson-extrapolated one-sided dt/dx toward the corner.

    Near-vertical branches are extrapolated in dx/dt and inverted; slopes
    steeper than 1/slope_tol are capped and flagged unbounded.
    """
    if len(pts) < 5:
        raise ValueError("insufficient samples on the incident curve")
    (dx1, dt1), (dx2, dt2) = _chord_pair(pts, corner)
    if abs(dx1) >= abs(dt1):
        s = 2.0 * (dt1 / dx1) - (dt2 / dx2)
        return s, False
    m1 = dx1 / dt1
    m2 = dx2 / dt2 if dt2 != 0 else m1
    m = 2.0 * m1 - m2
    if abs(m) < slope_tol:
        sign = math.copysign(1.0, m) if m != 0 else math.copysign(1.0, dt1 * dx1 if dx1 else 1.0)
        return sign / slope_tol, True
    return 1.0 / m, False


def corner_slopes(
    bset: BoundarySet, corner_index: int, slope_tol: float = 0.01
) -> CornerSlopes:
    """One-sided slopes dt/dx of the curves meeting at a corner.

    Returns (freezing_slope, thawing_slope); for a tip the two thawing
    branches fill both slots.  Uses the refined exact boundary samples when
    the extraction produced them, falling back to the raw polylines.  Slopes
    steeper than 1/slope_tol are capped and flagged as unbounded.
    """
    corner = bset.corners[corner_index]
    xy = (corner.x, corner.t)
    fs = ts_ = None
    fu = tu = False

    def invert(m):
        if abs(m) < slope_tol:
            sign = math.copysign(1.0, m) if m != 0 else 1.0
            return sign / slope_tol, True
        return 1.0 / m, False

    if corner.fit_f_slope is not None:
        fs, fu = corner.fit_f_slope, False
    elif corner.fit_f_dxdt is not None:
        fs, fu = invert(corner.fit_f_dxdt)
    else:
        fpts = corner.freezing_pts
        if fpts is None and corner.freezing is not None:
            fpts = bset.freezing[corner.freezing[0]].samples
        if fpts is None and corner.kind is CornerKind.TIP and corner.thawing is not None:
            fpts = bset.thawing[corner.thawing[0]].samples
        if fpts is not None:
            fs, fu = _one_sided_slope(fpts, xy, slope_tol)
    if corner.fit_t_dxdt is not None:
        m = corner.fit_t_dxdt
        if abs(m) < max(slope_tol, 0.25 * corner.fit_t_spread):
            sign = math.copysign(1.0, m) if m != 0 else 1.0
            ts_, tu = sign / slope_tol, True
        else:
            ts_, tu = invert(m)
    else:
        tpts = corner.thawing_pts
        if tpts is None:
            ref = corner.thawing if corner.kind is not CornerKind.TIP else corner.thawing2
            if ref is not None:
                tpts = bset.thawing[ref[0]].samples
        if tpts is not None:
            ts_, tu = _one_sided_slope(tpts, xy, slope_tol)
    return CornerSlopes(fs, ts_, fu, tu)
