"""Characteristic tracing and liquid/frozen zone classification.

Characteristics of v move with slope 1 in the liquid zone (v > w) and slope
0 in the frozen zone (v = w); w mirrors with slope -1.  Tracing here is
diagnostic and step-based: the solver's correctness never depends on it.
Each step picks the move indicated by the zone at the step midpoint, then
verifies that the traced field value is preserved within tolerance, falling
back to the other subsonic move before reporting failure.

At boundary-labelled points the backward tracer prefers the frozen move and
the forward tracer the liquid move, matching freeze-then-thaw transitions.
Forward traces terminate early, with a recorded reason, at points admitting
no value-preserving continuation (for example thawing-corner annihilation
points); such points are flagged rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from .levelset import SolutionField


class ZoneLabel(Enum):
    LIQUID = "liquid"
    FROZEN = "frozen"
    BOUNDARY = "boundary"


class CurveKind(Enum):
    V_CHAR = "v_char"
    W_CHAR = "w_char"
    FREEZING = "freezing"
    THAWING = "thawing"


class CharacteristicStepError(RuntimeError):
    """No subsonic move preserved the traced value within tolerance."""

    def __init__(self, x: float, t: float, detail: str):
        super().__init__(f"characteristic step failure at (x={x:g}, t={t:g}): {detail}")
        self.x = x
        self.t = t


@dataclass
class Curve:
    """A polyline in space-time with per-sample field values and zones.

    Characteristic curves are ordered by strictly increasing t; boundary
    curves (freezing/thawing) are ordered by increasing x, since a freezing
    curve need not be a graph over time.
    """

    kind: CurveKind
    samples: List[Tuple[float, float]]  # (x, t)
    values: List[float] = field(default_factory=list)
    zones: List[ZoneLabel] = field(default_factory=list)
    termination: Optional[str] = None
    flags: List[Tuple[float, float, str]] = field(default_factory=list)

    def slopes(self) -> List[float]:
        """Per-step dx/dt for characteristics, dt/dx for boundary curves."""
        out = []
        for (x0, t0), (x1, t1) in zip(self.samples, self.samples[1:]):
            if self.kind in (CurveKind.V_CHAR, CurveKind.W_CHAR):
                out.append((x1 - x0) / (t1 - t0) if t1 != t0 else math.inf)
            else:
                out.append((t1 - t0) / (x1 - x0) if x1 != x0 else math.inf)
        return out

    def is_subsonic(self, slope_tol: float = 1e-9) -> bool:
        if self.kind is CurveKind.V_CHAR:
            return all(-slope_tol <= s <= 1 + slope_tol for s in self.slopes())
        if self.kind is CurveKind.W_CHAR:
            return all(-1 - slope_tol <= s <= slope_tol for s in self.slopes())
        return True

    def constant_slope_runs(self, merge_below: int = 3) -> int:
        """Number of maximal constant-slope runs, ignoring runs shorter than
        ``merge_below`` steps (grid jitter at zone transitions)."""
        rounded = [round(s) for s in self.slopes()]
        runs: List[Tuple[int, int]] = []
        for s in rounded:
            if runs and runs[-1][0] == s:
                runs[-1] = (s, runs[-1][1] + 1)
            else:
                runs.append((s, 1))
        return sum(1 for s, n in runs if n >= merge_below)


def classify(
    field_: SolutionField,
    x: float,
    t: float,
    zone_epsilon: Optional[float] = None,
) -> ZoneLabel:
    """Zone label at (x, t): liquid when v - w exceeds the gap threshold,
    frozen when the gap stays closed just above t, boundary otherwise."""
    eps = zone_epsilon if zone_epsilon is not None else field_.zone_epsilon()
    gap = field_.eval_v(x, t) - field_.eval_w(x, t)
    if gap > eps:
        return ZoneLabel.LIQUID
    probe = max(4.0 * eps / max(field_.spec.lipschitz, 1.0), 1e-6)
    gap_up = field_.eval_v(x, t + probe) - field_.eval_w(x, t + probe)
    lam = field_.spec.lipschitz
    if gap_up <= eps + 0.1 * lam * probe:
        return ZoneLabel.FROZEN
    return ZoneLabel.BOUNDARY


def _trace(
    field_: SolutionField,
    x: float,
    t: float,
    dt: float,
    t_end: float,
    kind: CurveKind,
    forward: bool,
) -> Curve:
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    spec = field_.spec
    lam = spec.lipschitz
    eps = field_.zone_epsilon()  # 10x the scaled solver tolerance
    char_tol = lam * dt + eps
    ev = field_.eval_v if kind is CurveKind.V_CHAR else field_.eval_w
    liquid_dx = 1.0 if kind is CurveKind.V_CHAR else -1.0  # slope dx/dt in the liquid zone
    value = ev(x, t)
    zone0 = classify(field_, x, t, eps)
    samples = [(x, t)]
    values = [value]
    zones = [zone0]
    flags: List[Tuple[float, float, str]] = []
    termination = None
    if zone0 is ZoneLabel.BOUNDARY:
        flags.append((x, t, "boundary start"))
    cur_x, cur_t = x, t
    sgn = 1.0 if forward else -1.0
    while True:
        remaining = (t_end - cur_t) if forward else (cur_t - t_end)
        # sub-epsilon remainders are accumulated float dust; a micro-step
        # would have a meaningless dx/dt ratio
        if remaining <= max(1e-9 * dt, 1e-14 * (abs(cur_t) + 1.0)):
            termination = termination or ("reached horizon" if forward else "reached t=0")
            break
        step = min(dt, remaining)
        mid_t = cur_t + sgn * step / 2.0
        mid_zone = classify(field_, cur_x, mid_t, eps)
        if mid_zone is ZoneLabel.BOUNDARY:
            # freeze-then-thaw: frozen going down, liquid going up
            prefer_liquid = forward
        else:
            prefer_liquid = mid_zone is ZoneLabel.LIQUID
        moves = [liquid_dx * step, 0.0] if prefer_liquid else [0.0, liquid_dx * step]
        nxt = None
        for k, mv in enumerate(moves):
            cand_x = cur_x + sgn * mv
            cand_t = cur_t + sgn * step
            if spec.domain.is_segment and not (spec.domain.a1 <= cand_x <= spec.domain.a2):
                # shorten the move so it lands exactly on the boundary
                bound = spec.domain.a1 if cand_x < spec.domain.a1 else spec.domain.a2
                part = abs(bound - cur_x)
                if part <= 1e-15:
                    continue
                cand_x = bound
                cand_t = cur_t + sgn * part
            cand_value = ev(cand_x, cand_t)
            if abs(cand_value - value) <= char_tol:
                nxt = (cand_x, cand_t, cand_value)
                if k == 0 and mid_zone is ZoneLabel.BOUNDARY:
                    alt_x = cur_x + sgn * moves[1]
                    if spec.domain.contains(alt_x) and abs(ev(alt_x, cand_t) - value) <= char_tol:
                        flags.append((cur_x, cur_t, "ambiguous continuation"))
                break
        if nxt is None:
            if forward:
                termination = "no value-preserving continuation"
                break
            raise CharacteristicStepError(cur_x, cur_t, "no subsonic move preserves the value")
        cur_x, cur_t, cur_value = nxt
        samples.append((cur_x, cur_t))
        values.append(cur_value)
        zones.append(classify(field_, cur_x, cur_t, eps))
        # segment backward traces may terminate on the emitting boundary
        if not forward and spec.domain.is_segment:
            if kind is CurveKind.V_CHAR and cur_x <= spec.domain.a1 + 1e-12:
                termination = "left boundary"
                break
            if kind is CurveKind.W_CHAR and cur_x >= spec.domain.a2 - 1e-12:
                termination = "right boundary"
                break
    if not forward:
        samples.reverse()
        values.reverse()
        zones.reverse()
    return Curve(kind, samples, values, zones, termination, flags)


def trace_backward_v(field_: SolutionField, x: float, t: float, dt: Optional[float] = None) -> Curve:
    """Trace the backward v-characteristic from (x, t) down to t = 0 (or the
    left boundary on a segment).  Raises CharacteristicStepError when stuck."""
    if t <= 0:
        raise ValueError("backward tracing requires t > 0")
    dt = dt if dt is not None else 1e-3 * t
    return _trace(field_, x, t, dt, 0.0, CurveKind.V_CHAR, forward=False)


def trace_forward_v(
    field_: SolutionField, x: float, t: float, dt: Optional[float] = None, t_end: Optional[float] = None
) -> Curve:
    """Trace the forward v-characteristic; terminates early with a recorded
    reason at points with no continuation."""
    t_end = t_end if t_end is not None else t + 1.0
    dt = dt if dt is not None else 1e-3 * max(t_end - t, 1e-9)
    return _trace(field_, x, t, dt, t_end, CurveKind.V_CHAR, forward=True)


def trace_backward_w(field_: SolutionField, x: float, t: float, dt: Optional[float] = None) -> Curve:
    if t <= 0:
        raise ValueError("backward tracing requires t > 0")
    dt = dt if dt is not None else 1e-3 * t
    return _trace(field_, x, t, dt, 0.0, CurveKind.W_CHAR, forward=False)


def trace_forward_w(
    field_: SolutionField, x: float, t: float, dt: Optional[float] = None, t_end: Optional[float] = None
) -> Curve:
    t_end = t_end if t_end is not None else t + 1.0
    dt = dt if dt is not None else 1e-3 * max(t_end - t, 1e-9)
    return _trace(field_, x, t, dt, t_end, CurveKind.W_CHAR, forward=True)
