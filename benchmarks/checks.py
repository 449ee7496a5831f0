"""Correctness checks computed apart from the solver.

Each check returns the number of operations whose output is wrong, so the
benchmark can count them as failed.  The references are the benchmark's own:
a copy of the wedge closed form, the parabolas corner geometry, the
annihilation oracle (``freezeflow.oracle``, an event simulation independent of
the level-set solver), and properties every traced characteristic must have.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

WEDGE_TOL = 1e-8
LEVEL_SET_TOL = 1e-9
SUBSONIC_TOL = 3e-3

# left base corner of the parabolas frozen triangle and its one-sided slopes
PARABOLAS_CORNER = ((4.0 - math.sqrt(3.0)) / 2.0, (4.0 - math.sqrt(3.0)) / 2.0)
PARABOLAS_SLOPES = (-1.0, 3.0)  # dt/dx of the freezing and thawing branches


# -- grid-wedge --------------------------------------------------------------


def wedge_v(x, t):
    """v for v0 = |x|, w0 = x/2: thawing line x = 3t/5, freezing line x = 3t."""
    return np.where(x < 0.6 * t, t - x, np.where(x < 3.0 * t, 2.0 * x / 3.0, x - t))


def wedge_w(x, t):
    return np.where(
        x < -t,
        (x + t) / 2.0,
        np.where(x < 0.6 * t, (x + t) / 4.0, np.where(x < 3.0 * t, 2.0 * x / 3.0, (x + t) / 2.0)),
    )


def check_wedge_csv(text: str) -> int:
    """Grid points of a ``solve`` CSV whose v, w or zone label is wrong.

    Values must match the closed form within WEDGE_TOL.  Zones are checked
    only more than one cell away from both lines: the CLI labels a point by
    its own row and the next one, and the lines move 3 cells in x per row at
    most, so the margin is one x cell plus three times the line speed per row.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["x", "t", "v", "w", "mu", "sigma", "zone"]:
        raise ValueError("unexpected CSV header")
    body = rows[1:]
    x = np.array([float(r[0]) for r in body])
    t = np.array([float(r[1]) for r in body])
    v = np.array([float(r[2]) for r in body])
    w = np.array([float(r[3]) for r in body])
    zone = np.array([r[6] for r in body])
    bad = (np.abs(v - wedge_v(x, t)) > WEDGE_TOL) | (np.abs(w - wedge_w(x, t)) > WEDGE_TOL)
    dx = np.min(np.diff(np.unique(x)))
    dt = np.min(np.diff(np.unique(t))) if len(np.unique(t)) > 1 else 0.0
    margin = dx + 3.0 * dt
    clear = (np.abs(x - 0.6 * t) > margin) & (np.abs(x - 3.0 * t) > margin)
    frozen = (x > 0.6 * t) & (x < 3.0 * t)
    expected = np.where(frozen, "frozen", "liquid")
    bad |= clear & (zone != expected)
    return int(bad.sum())


# -- boundary-parabolas --------------------------------------------------------


def check_parabolas_corner(corners, cell: float) -> int:
    """1 if the extraction did not find the left base corner within bounds.

    ``corners`` holds (kind, x, t, freezing dt/dx, thawing dt/dx) tuples.
    The corner is refined by bisecting the exact gap field, so its position
    error is far below a cell; cell/4 still rejects a corner moved by half a
    cell.  The one-sided slopes come from quadratic fits to samples starting
    one to three cells from the corner, and the freezing slope changes at a
    rate of about 4/sqrt(3) per unit x there (from the parametrization of the
    freezing curve by value), so 3 * cell bounds the fit error of dt/dx on
    the freezing side and of the relative error on the steeper thawing side.
    """
    found = [c for c in corners if c[0] == "freeze_thaw"]
    if len(found) != 1:
        return 1
    _, x, t, fs, ts = found[0]
    xc, tc = PARABOLAS_CORNER
    ok = (
        abs(x - xc) <= cell / 4.0
        and abs(t - tc) <= cell / 4.0
        and fs is not None
        and ts is not None
        and abs(fs - PARABOLAS_SLOPES[0]) <= 3.0 * cell
        and abs(ts - PARABOLAS_SLOPES[1]) / abs(PARABOLAS_SLOPES[1]) <= 3.0 * cell
    )
    return 0 if ok else 1


# -- levelsets-random ----------------------------------------------------------


def _contains(intervals, x: float) -> bool:
    return any(lo <= x <= hi for lo, hi in intervals)


def symmetric_difference(a, b) -> float:
    """Measure of the symmetric difference of two closed-interval unions."""
    a, b = list(a), list(b)
    for side in (0, 1):
        tail = -math.inf if side == 0 else math.inf
        if any(iv[side] == tail for iv in a) != any(iv[side] == tail for iv in b):
            return math.inf
    cuts = sorted({e for iv in a + b for e in iv if math.isfinite(e)})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        if _contains(a, mid) != _contains(b, mid):
            total += hi - lo
    return total


def check_level_sets(results, oracle) -> int:
    """Set queries whose result differs from the oracle by more than
    LEVEL_SET_TOL in measure.  ``results`` and ``oracle`` are parallel lists
    of interval lists."""
    return sum(symmetric_difference(r, o) > LEVEL_SET_TOL for r, o in zip(results, oracle))


# -- trace-mixed -----------------------------------------------------------------


def pl_eval(f, x: float) -> float:
    """Evaluate a PiecewiseLinear's data (breakpoints, values, tail slopes)."""
    xs, ys = np.asarray(f.xs), np.asarray(f.ys)
    if x < xs[0]:
        return float(ys[0] + (f.left_slope or 0.0) * (x - xs[0]))
    if x > xs[-1]:
        return float(ys[-1] + (f.right_slope or 0.0) * (x - xs[-1]))
    return float(np.interp(x, xs, ys))


def check_trace(samples, values, kind: str, spec, dt: float, zone_epsilon: float) -> int:
    """1 if a backward characteristic breaks a property of the method.

    ``samples`` are (x, t) with t increasing and the start point last.  The
    curve must be subsonic (dx/dt in [0, 1] for v, [-1, 0] for w), every
    sample's value must stay within lam*dt + 10*zone_epsilon of the start
    value, and a foot at t = 0 must carry the initial datum v0 (or w0) there.
    A foot above t = 0 must sit on the boundary that emits the family.
    """
    if len(samples) < 2:
        return 1
    lo, hi = (0.0, 1.0) if kind == "v" else (-1.0, 0.0)
    for (x0, t0), (x1, t1) in zip(samples, samples[1:]):
        if not t1 > t0:
            return 1
        slope = (x1 - x0) / (t1 - t0)
        if not lo - SUBSONIC_TOL <= slope <= hi + SUBSONIC_TOL:
            return 1
    start = values[-1]
    tol = spec.lipschitz * dt + 10.0 * zone_epsilon
    if max(abs(v - start) for v in values) > tol:
        return 1
    foot_x, foot_t = samples[0]
    # the tracer stops once the remaining time is below 1e-9 dt
    if foot_t <= 1e-9 * dt + 1e-14:
        datum = pl_eval(spec.v0 if kind == "v" else spec.w0, foot_x)
        return 0 if abs(datum - start) <= tol else 1
    dom = spec.domain
    if not dom.is_segment:
        return 1
    edge = dom.a1 if kind == "v" else dom.a2
    return 0 if abs(foot_x - edge) <= 1e-12 * max(1.0, abs(edge)) else 1
