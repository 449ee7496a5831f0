"""Independent brute-force cross-checks for the level-set solver.

Two deliberately different routes to the same objects:

* an event-driven simulation of the interval annihilation dynamics (blue
  sublevel intervals drift right, red superlevel intervals drift left,
  touching fronts stop and erode at equal rates), with collision and
  extinction times solved in closed form so the simulation is exact; and

* a first-order upwind marching scheme on a grid with CFL number 1, where
  each step shifts v right and w left by one cell and projects any v < w
  violation to the midpoint value.

Neither route shares the level-set formulas for t > 0, which is the point.
The simulation starts from the solver's ``levelset.extended_level_sets``:
the t = 0 level intervals and, on a segment, the feeder tails, which
``tests/test_set_assembly.py`` checks against a reference of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .intervals import IntervalUnion
from .levelset import extended_level_sets
from .problem import ProblemSpec

INF = math.inf
_EPS = 1e-12


@dataclass
class _Seg:
    lo: float
    hi: float
    stopped: bool = False  # the advancing front is pinned by a contact

    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class AnnihilationState:
    """Blue set (moving right), red set (moving left), and current time.

    Blue and red may only overlap on a set of measure zero (touching
    endpoints); this is an invariant of the dynamics.
    """

    blue: IntervalUnion
    red: IntervalUnion
    t: float = 0.0
    eroded_blue: float = 0.0
    eroded_red: float = 0.0


def _to_segs(iu: IntervalUnion) -> List[_Seg]:
    out = []
    for lo, hi in iu:
        if hi - lo <= 0.0:
            continue  # measure-zero components pass through; drop them
        out.append(_Seg(lo, hi))
    return out


def _contacts(blue: List[_Seg], red: List[_Seg]) -> List[Tuple[_Seg, _Seg]]:
    pairs = []
    for b in blue:
        for r in red:
            if abs(b.hi - r.lo) <= _EPS:
                r.lo = b.hi  # weld to one exact contact position
                pairs.append((b, r))
    return pairs


def _next_free_contact(blue: List[_Seg], red: List[_Seg]) -> float:
    """Time until the next blue front meets the next red front, or inf."""
    best = INF
    items = sorted(
        [(s.lo, 0, s) for s in blue] + [(s.lo, 1, s) for s in red], key=lambda e: (e[0], e[1])
    )
    for (pos_a, kind_a, a), (pos_b, kind_b, b) in zip(items, items[1:]):
        if kind_a == 0 and kind_b == 1:  # blue immediately left of red
            if a.stopped or b.stopped:
                continue
            gap = b.lo - a.hi
            if gap <= _EPS:
                continue  # will be welded into a contact outside
            best = min(best, gap / 2.0)
    return best


def annihilate_step(state: AnnihilationState, dt: float) -> AnnihilationState:
    """Advance the annihilation dynamics by dt with exact internal events.

    Between events blue translates right and red translates left at speed 1,
    pinned fronts stay put, and each contact pair erodes at equal rates until
    the shorter member dies; the survivor resumes its translation.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    blue = _to_segs(state.blue)
    red = _to_segs(state.red)
    eroded_b, eroded_r = state.eroded_blue, state.eroded_red
    remaining = dt
    while remaining > _EPS:
        for s in blue:
            s.stopped = False
        for s in red:
            s.stopped = False
        pairs = _contacts(blue, red)
        for b, r in pairs:
            b.stopped = True
            r.stopped = True
        # next event: a pair extinction or a new front contact
        step = remaining
        for b, r in pairs:
            death = min(b.length(), r.length())
            if death < step:
                step = death
        free = _next_free_contact(blue, red)
        if free < step:
            step = free
        # advance
        for s in blue:
            if s.stopped:
                s.lo += step  # far end keeps moving; front is pinned
            else:
                s.lo += step
                s.hi += step
        for s in red:
            if s.stopped:
                s.hi -= step
            else:
                s.lo -= step
                s.hi -= step
        for b, r in pairs:
            # step never crosses an extinction, so each contact erodes
            # exactly `step` from both sides
            eroded_b += step
            eroded_r += step
        blue = [s for s in blue if s.length() > _EPS]
        red = [s for s in red if s.length() > _EPS]
        remaining -= step
    return AnnihilationState(
        IntervalUnion([(s.lo, s.hi) for s in blue]),
        IntervalUnion([(s.lo, s.hi) for s in red]),
        state.t + dt,
        eroded_b,
        eroded_r,
    )


def oracle_level_sets(spec: ProblemSpec, b: float, t: float) -> Tuple[IntervalUnion, IntervalUnion]:
    """Level sets at time t by direct annihilation simulation.

    Initializes from the time-0 sublevel/superlevel sets; on a segment domain
    the boundary feeders (-inf, a1] and [a2, inf) are included so boundary
    emission and absorption fall out of the same dynamics.  The result is
    clipped back to the domain.
    """
    blue0, red0 = extended_level_sets(spec, b)
    state = AnnihilationState(IntervalUnion(blue0), IntervalUnion(red0))
    state = annihilate_step(state, t)
    blue, red = state.blue, state.red
    if spec.domain.is_segment:
        blue = blue.clip(spec.domain.a1, spec.domain.a2)
        red = red.clip(spec.domain.a1, spec.domain.a2)
    return blue, red


# ---------------------------------------------------------------------------
# Upwind marching scheme
# ---------------------------------------------------------------------------


def grid_scheme(
    spec: ProblemSpec,
    dx: float,
    t_end: float,
    window: Optional[Tuple[float, float]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """March v right and w left with CFL dt = dx and midpoint freezing.

    Each step shifts v one cell right and w one cell left (exact transport at
    CFL 1); wherever the shifted values would violate v >= w both are set to
    their midpoint, which freezes the pair while conserving v + w locally.
    Returns (xs, v, w) at t_end.  On the whole line the window defaults to the
    breakpoint span padded by t_end, with inflow filled from the initial
    data's linear extensions.
    """
    if dx <= 0:
        raise ValueError("dx must be positive")
    dom = spec.domain
    if dom.is_segment:
        lo, hi = dom.a1, dom.a2
    elif window is not None:
        lo, hi = window
    else:
        lo, hi = spec.breakpoint_span()
        lo, hi = lo - t_end - 2 * dx, hi + t_end + 2 * dx
    n = int(round((hi - lo) / dx))
    xs = lo + dx * np.arange(n + 1)
    v = spec.v0(xs).astype(float)
    w = spec.w0(xs).astype(float)
    steps = int(round(t_end / dx))
    for k in range(1, steps + 1):
        t = k * dx
        v_new = np.empty_like(v)
        w_new = np.empty_like(w)
        v_new[1:] = v[:-1]
        w_new[:-1] = w[1:]
        if dom.is_segment:
            # boundary cells are pinned to v = w; they reflect the incoming
            # characteristic when the adjacent cell is liquid and stay put
            # when it is frozen
            left = w[1] if v[1] > w[1] else v[0]
            right = v[-2] if v[-2] > w[-2] else w[-1]
            v_new[0] = w_new[0] = left
            v_new[-1] = w_new[-1] = right
        else:
            v_new[0] = spec.v0(xs[0] - t)
            w_new[-1] = spec.w0(xs[-1] + t)
        mask = v_new < w_new
        if mask.any():
            mid = 0.5 * (v_new[mask] + w_new[mask])
            v_new[mask] = mid
            w_new[mask] = mid
        v, w = v_new, w_new
    return xs, v, w
