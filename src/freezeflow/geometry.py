"""Freezing and thawing curves of the frozen zone, their corners and slopes.

At level b each piece of a level-set component is a vertical frozen segment
(``levelset._LevelPair.frozen``): where the v and w fronts of the level
stand at one x, v = w = b from the later of their first times to the first
thaw.  One sweep
in b (``SolutionField._sweep``) leaves cells in which each segment's x and
times are affine in b, so the freezing curves (the lower ends) and thawing
curves (the upper ends) are exact polylines; a stack of segments at one x,
as at a segment wall, is a vertical thawing branch.  Corners are read off
the same sweep: a segment that closes (freeze/thaw), the gap between two
segments at one x that closes (thaw/freeze), and a peak of a thawing curve,
where the binding thaw changes (tip).  One-sided slopes are those of the
exact pieces next to the corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from .characteristics import Curve, CurveKind
from .levelset import SolutionField
from .problem import ProblemSpec

SLOPE_TOL = 0.01  # |dx/dt| below which a branch's dt/dx is capped at the inverse and flagged unbounded
_TINY = 1e-9  # relative distance under which two points of the sweep are one
_ON_CORNER = 1e-6  # relative distance under which a branch sample sits on its corner
_FLAT = 1e-12  # relative distance from its neighbours' chord under which a polyline vertex is dropped


class CornerKind(Enum):
    FREEZE_THAW = "freeze_thaw"
    THAW_FREEZE = "thaw_freeze"
    TIP = "tip"


@dataclass
class CornerSlopes:
    freezing_slope: Optional[float]
    thawing_slope: Optional[float]
    freezing_unbounded: bool = False
    thawing_unbounded: bool = False

    def __iter__(self):
        return iter((self.freezing_slope, self.thawing_slope))


@dataclass
class Corner:
    """A corner of the frozen zone.  ``slopes`` holds the one-sided slopes of
    the exact pieces next to it, on its two branches (for a tip, the left and
    the right thawing branch)."""

    x: float
    t: float
    kind: CornerKind
    slopes: CornerSlopes


@dataclass
class BoundarySet:
    freezing: List[Curve] = field(default_factory=list)
    thawing: List[Curve] = field(default_factory=list)
    corners: List[Corner] = field(default_factory=list)
    cell_size: float = 0.0
    warnings: List[str] = field(default_factory=list)  # the field's validation warnings (flat segments)


def _ends(seg):
    """The lower and the upper end of a frozen segment from ``_LevelPair.frozen``."""
    return (seg[0], max(seg[1])), (seg[0], min(seg[2]))


def _frozen_for(lower, upper) -> float:
    """How long a segment is frozen, less the length that is only rounding:
    where two families of segments meet at one x, their pieces pair across."""
    return upper[1] - lower[1] - 0.5 * _TINY * (1.0 + abs(lower[0]) + abs(lower[1]))


def _cell_points(a, c):
    """One segment across a cell whose end signatures agree, from a at the
    lower level to c at the upper one.  Everything is affine in lam in [0, 1],
    so the later first time and the least thaw time are affine between their
    crossings, and the segment is exact between the returned (x, first, last,
    frozen for) points: lam = 0, those crossings, the roots of
    ``_frozen_for`` and lam = 1."""
    (xa, fa, ea, _), (xc, fc, ec, _) = a, c
    thaws = [(u, v) for u, v in zip(ea, ec) if math.isfinite(u) and math.isfinite(v)]
    lams = [0.0, 1.0] + [
        (u0 - v0) / ((u0 - v0) - (u1 - v1))
        for fns in (thaws, list(zip(fa, fc)))
        for (u0, u1), (v0, v1) in combinations(fns, 2)
        if min(u0 - v0, u1 - v1) < 0.0 < max(u0 - v0, u1 - v1)
    ]

    def at(lam):
        x = (1.0 - lam) * xa + lam * xc
        first = max((1.0 - lam) * u + lam * v for u, v in zip(fa, fc))
        last = min(((1.0 - lam) * u + lam * v for u, v in thaws), default=math.inf)
        return x, first, last, _frozen_for((x, first), (x, last))

    lams.sort()
    gs = [at(lam)[3] for lam in lams]
    roots = {l0 + (l1 - l0) * g0 / (g0 - g1) for l0, l1, g0, g1 in zip(lams, lams[1:], gs, gs[1:]) if min(g0, g1) < 0.0 < max(g0, g1)}
    return [at(lam)[:3] + (0.0 if lam in roots else at(lam)[3],) for lam in sorted(set(lams) | roots)]


def _near(p, q, rel=_TINY) -> bool:
    tiny = rel * (1.0 + abs(p[0]) + abs(p[1]))
    return abs(p[0] - q[0]) <= tiny and abs(p[1] - q[1]) <= tiny


def _tracks(levels, affine):
    """Follow the lower (freezing) and upper (thawing) end of every frozen
    segment through the sweep.

    Returns the freezing and the thawing tracks (lists of points) and their
    ends as (point, thawing?, track, at its start?, segment id); the two ends
    of one segment share its id.  Across a cell whose end signatures agree
    each segment keeps its key; across one whose signatures differ each end
    continues the nearest one of its kind within ``_TINY``, if any.
    """
    tracks, ends = ([], []), []

    def start(seg_id, pts):
        cur = []
        for thawing, pt in enumerate(pts):
            cur.append(None if pt is None or not math.isfinite(pt[1]) else [pt])
            if cur[-1]:
                tracks[thawing].append(cur[-1])
                ends.append((pt, thawing, cur[-1], True, seg_id))
        return cur

    def stop(seg_id, cur):
        ends.extend((track[-1], thawing, track, False, seg_id) for thawing, track in enumerate(cur) if track)

    live = {i: start((0, i), _ends(seg)) for i, seg in enumerate(levels[0].frozen()) if _frozen_for(*_ends(seg)) > 0.0}
    for k, same in enumerate(affine):
        lower, upper = levels[k].frozen(), levels[k + 1].frozen()
        ahead: dict = {}
        if same:
            index = {seg[3]: j for j, seg in enumerate(upper)}
            for i, a in enumerate(lower):
                cur, j = live.get(i), index.get(a[3])
                pts = _cell_points(a, upper[j]) if j is not None else []
                for n, (p, q) in enumerate(zip(pts, pts[1:])):
                    if min(p[3], q[3]) < 0.0:  # not frozen on this piece
                        if cur:
                            stop((k, i, n), cur)
                        cur = None
                        continue
                    cur = cur or start((k, i, n), ((p[0], p[1]), (p[0], p[2])))
                    for thawing, track in enumerate(cur):
                        if track:
                            track.append((q[0], q[1 + thawing]))
                if cur and j is not None:
                    ahead[j] = cur
                elif cur:
                    stop((k, i, 0), cur)
            paired = {seg[3] for seg in lower}
            ahead.update((j, start((k + 1, j), _ends(seg))) for j, seg in enumerate(upper) if seg[3] not in paired and _frozen_for(*_ends(seg)) > 0.0)
        else:
            for thawing in (0, 1):
                behind = {i: cur[thawing] for i, cur in live.items() if cur[thawing]}
                front = {j: _ends(seg)[thawing] for j, seg in enumerate(upper) if _frozen_for(*_ends(seg)) > 0.0}
                pairs = sorted(
                    (math.dist(tr[-1], pt), i, j) for i, tr in behind.items() for j, pt in front.items() if _near(tr[-1], pt)
                )
                moved: dict = {}
                for _, i, j in pairs:
                    if i not in moved and j not in moved.values():
                        moved[i] = j
                        behind[i].append(front[j])
                        ahead.setdefault(j, [None, None])[thawing] = behind[i]
                for i, track in behind.items():
                    if i not in moved:
                        ends.append((track[-1], thawing, track, False, (k, i)))
                for j, pt in front.items():
                    if j not in moved.values():
                        ahead.setdefault(j, [None, None])[thawing] = start((k + 1, j), (None, pt) if thawing else (pt, None))[thawing]
        live = ahead
    for i, cur in live.items():
        stop((len(levels) - 1, i), cur)
    return tracks, ends


def _simplify(pts):
    """Drop repeated vertices, keeping a polyline's ends, and vertices where
    it does not turn."""
    out = pts[:1]
    for pt in pts[1:]:
        if len(out) > 1:
            (ax, at), (bx, bt) = out[-2:]
            ux, ut, vx, vt = bx - ax, bt - at, pt[0] - bx, pt[1] - bt
            turn = abs(ux * vt - ut * vx) > _FLAT * (1.0 + abs(bx) + abs(bt)) * math.hypot(ux + vx, ut + vt)
            if _near(out[-1], pt) or (ux * vx + ut * vt > 0 and not turn):
                out[-1] = pt
                continue
        if not _near(out[-1], pt):
            out.append(pt)
    pts[:] = out


def _one_sided_slope(pts, corner):
    """dt/dx of the piece of a branch next to a corner, and whether it is
    unbounded.  ``pts`` run away from the corner; the piece ends at the first
    sample off the corner and starts at the sample before it, or at the
    corner.  A branch that never leaves the corner (the lower ends of a stack
    of segments at one x) counts as flat."""
    base = corner
    for x, t in pts:
        if not _near(corner, (x, t), _ON_CORNER):
            dx, dt = x - base[0], t - base[1]
            return (dt / dx, False) if abs(dx) >= abs(dt) else _steep(dx / dt)
        base = (x, t)
    return 0.0, False


def _peaks(pts) -> List[int]:
    """Vertices of a thawing polyline above both neighbours: tips."""
    return [j for j in range(1, len(pts) - 1) if pts[j][1] - max(pts[j - 1][1], pts[j + 1][1]) > _TINY * (1.0 + abs(pts[j][1]))]


def _corners(ends, thawing) -> List[Corner]:
    """Freeze/thaw corners where the two ends of one segment meet, thaw/freeze
    corners where the thawing end of one segment meets the freezing end of
    another, and tips at the peaks of the thawing tracks."""
    corners: List[Corner] = []

    def add(kind, pt, freezing_pts, thawing_pts):
        fs, fu = _one_sided_slope(freezing_pts, pt)
        ts, tu = _one_sided_slope(thawing_pts, pt)
        corners.append(Corner(pt[0], pt[1], kind, CornerSlopes(fs, ts, fu, tu)))

    def branch(end):
        return end[2][:8] if end[3] else end[2][::-1][:8]

    lower, upper = [e for e in ends if not e[1]], [e for e in ends if e[1]]
    # in the sweep's end order: at a true corner the distance is rounding, so
    # it only chooses among one lower end's candidates
    pairs = sorted((f[4] != t[4], n, math.dist(f[0], t[0]), m) for n, f in enumerate(lower) for m, t in enumerate(upper))
    used: set = set()
    for other, n, _, m in pairs:
        if ("f", n) not in used and ("t", m) not in used and _near(lower[n][0], upper[m][0]):
            used |= {("f", n), ("t", m)}
            add(CornerKind.THAW_FREEZE if other else CornerKind.FREEZE_THAW, lower[n][0], branch(lower[n]), branch(upper[m]))
    for pts in thawing:
        for j in _peaks(pts):
            add(CornerKind.TIP, pts[j], *sorted((pts[j::-1][:8], pts[j:][:8]), key=lambda side: side[1][0]))
    return corners


def _clip(pts, box, inner):
    """The parts of a polyline inside the closed box (x0, x1, t0, t1),
    clamped to the box ``inner``."""
    x0, x1, t0, t1 = box
    parts: list = [[]]
    for (ax, at), (bx, bt) in zip(pts, pts[1:]):
        dx, dt = bx - ax, bt - at
        lo, hi = 0.0, 1.0
        for p, q in ((-dx, ax - x0), (dx, x1 - ax), (-dt, at - t0), (dt, t1 - at)):
            if p == 0.0:
                lo, hi = (lo, hi) if q >= 0.0 else (1.0, 0.0)
            elif p < 0.0:
                lo = max(lo, q / p)
            else:
                hi = min(hi, q / p)
        if lo <= hi:
            a = (ax + lo * dx, at + lo * dt) if lo > 0.0 else (ax, at)
            if not parts[-1] or parts[-1][-1] != a:
                parts.append([a])
            parts[-1].append((ax + hi * dx, at + hi * dt) if hi < 1.0 else (bx, bt))
    return [[(min(max(x, inner[0]), inner[1]), min(max(t, inner[2]), inner[3])) for x, t in part] for part in parts if len(set(part)) > 1]


def extract_boundaries(
    field_: SolutionField,
    window: Tuple[float, float, float, float],
    resolution: Tuple[int, int],
    zone_epsilon: Optional[float] = None,
) -> BoundarySet:
    """Freezing and thawing curves and corners inside window = (x0, x1, t0, t1).

    One sweep over the values of the window's triangle of determinacy reads
    the frozen segments (see the module docstring); curves are clipped to
    the window and corners kept inside it.  Both are exact for the
    piecewise-linear data: ``resolution`` = (nx, nt) only sets
    ``cell_size``, the spacing of an nx x nt grid over the window, and
    ``zone_epsilon`` is kept for compatibility; neither changes a curve or a
    corner.
    """
    x0, x1, t0, t1 = window
    nx, nt = resolution
    t0 = max(t0, 0.0)
    for x, t in ((x0, t0), (x0, t1), (x1, t0), (x1, t1)):
        field_._check_point(x, t)
    dom = field_.spec.domain
    xa, xb, ta, tb = min(x0, x1), max(x0, x1), min(t0, t1), max(t0, t1)
    cell = max((xb - xa) / (nx - 1), (tb - ta) / (nt - 1)) if nx > 1 and nt > 1 else 0.0
    tracks, ends = _tracks(*field_._sweep(xa - tb, xb + tb))
    for pts in tracks[0] + tracks[1]:
        _simplify(pts)
    slack = _TINY * (1.0 + max(abs(xa), abs(xb), tb))
    box = (xa - slack, xb + slack, ta - slack, tb + slack)
    inner = (max(xa, dom.a1), min(xb, dom.a2), ta, tb)

    def curves(kind, polylines):
        parts = [part for pts in polylines for part in _clip(pts, box, inner)]
        return [Curve(kind, part[::-1] if part[-1] < part[0] else part) for part in parts]

    thawing = []
    for pts in tracks[1]:
        cuts = [0] + _peaks(pts) + [len(pts) - 1]
        thawing += [pts[a:b + 1] for a, b in zip(cuts, cuts[1:])]
    out = BoundarySet(
        curves(CurveKind.FREEZING, tracks[0]),
        curves(CurveKind.THAWING, thawing),
        cell_size=cell,
        warnings=list(field_.warnings),
    )
    for c in _corners(ends, tracks[1]):
        if box[0] <= c.x <= box[1] and box[2] <= c.t <= box[3]:
            c.x, c.t = min(max(c.x, inner[0]), inner[1]), min(max(c.t, inner[2]), inner[3])
            if not any(c.kind is d.kind and _near((d.x, d.t), (c.x, c.t)) for d in out.corners):
                out.corners.append(c)
    return out


# ---------------------------------------------------------------------------
# Exact freezing curve for monotone data
# ---------------------------------------------------------------------------


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
        # on [y1, y2] each sublevel set is [y1, crossing]
        xi = spec.v0.sublevel_intervals(c, (y1, y2))[0][1]
        eta = spec.w0.sublevel_intervals(c, (y1, y2))[0][1]
        t = (eta - xi) / 2.0
        if t >= 0:
            pts.append(((xi + eta) / 2.0, t))
    return Curve(CurveKind.FREEZING, sorted(pts))


def _steep(dxdt):
    """dt/dx of a branch from its dx/dt, with an unbounded flag: a dx/dt
    within SLOPE_TOL of zero cannot be told from a vertical branch, so its
    slope is capped at 1/SLOPE_TOL, with the sign of dx/dt, and flagged."""
    if abs(dxdt) < SLOPE_TOL:
        return (-1.0 if dxdt < 0.0 else 1.0) / SLOPE_TOL, True
    return 1.0 / dxdt, False


def corner_slopes(bset: BoundarySet, corner_index: int) -> CornerSlopes:
    """One-sided slopes dt/dx of the curves meeting at a corner.

    Returns (freezing_slope, thawing_slope), the slopes of the exact pieces
    next to the corner (``Corner.slopes``); for a tip the left and right
    thawing branches fill the two slots.  Slopes steeper than 1/SLOPE_TOL
    are capped and flagged as unbounded.  Raises ValueError for a corner
    without slopes.
    """
    slopes = bset.corners[corner_index].slopes
    if slopes is None:
        raise ValueError("the corner has no slopes")
    return slopes
