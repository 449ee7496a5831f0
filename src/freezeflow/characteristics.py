"""Characteristic tracing and liquid/frozen zone classification.

Characteristics of v move with slope 1 in the liquid zone (v > w) and slope
0 in the frozen zone (v = w); w mirrors with slope -1.  v is constant along
them, so the one carrying b = v(x, t) is read off the level sets of b: a
trace inverts once for b and holds its label x - t between the level slices
at the two ends of that inversion's final bisection cell, riding their
component ends (p + s for a left end, front(s) + s for a right end, still
while the front retreats) and, inside a flat stretch of the data, moving at
unit speed until an end passes it.  The path is sampled every dt.  Each
sample is evaluated on the start's bracket while its own bracket lies inside
it, so its value carries the start's tolerance: a label between the two
slices is the start's answer, read from two membership probes of those
slices, and any other label gets an inversion steered by that answer.
Tracing is diagnostic: the solver never depends on it.

A sample whose value leaves lam*dt + zone_epsilon of b makes a backward
trace raise CharacteristicStepError and ends a forward trace, as does the
death of the component (for example at thawing-corner annihilation points).
Backward traces end at t = 0 or where the path meets the emitting boundary
of a segment (a1 for v, a2 for w).  Zones come from the path: frozen where
it stands still just after a sample, liquid where it moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from .levelset import SolutionField, band_path

MAX_SAMPLES = 10**6  # samples one trace may take: 1000x the default step count


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
    """The traced path stopped preserving the value within tolerance."""

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

    def constant_slope_runs(self) -> int:
        """Number of maximal constant-slope runs, ignoring runs shorter than
        3 steps (grid jitter at zone transitions)."""
        rounded = [round(s) for s in self.slopes()]
        runs: List[Tuple[int, int]] = []
        for s in rounded:
            if runs and runs[-1][0] == s:
                runs[-1] = (s, runs[-1][1] + 1)
            else:
                runs.append((s, 1))
        return sum(1 for s, n in runs if n >= 3)


def classify(field_: SolutionField, x: float, t: float) -> ZoneLabel:
    """Zone label at (x, t): liquid when v - w exceeds the gap threshold
    ``field_.zone_epsilon()``, frozen when the gap stays closed just above
    t, boundary otherwise."""
    built: dict = {}
    return field_._keep(built, _zone(field_, x, t, field_.zone_epsilon(), built))


def _zone(
    field_: SolutionField, x: float, t: float, eps: float, built: dict, known: Optional[Tuple[bool, float]] = None
) -> ZoneLabel:
    """``classify`` on the levels of the query that ``built`` belongs to;
    ``known`` is one side's (reflected, value) at (x, t) where the caller
    has already inverted it, so only the other side is inverted there."""

    def gap(s, given=None):
        v, w = (given[1] if given and given[0] is r else field_._invert(x, s, None, r, built) for r in (False, True))
        return v - w

    if gap(t, known) > eps:
        return ZoneLabel.LIQUID
    lam = field_.spec.lipschitz
    probe = max(4.0 * eps / max(lam, 1.0), 1e-6)
    if gap(t + probe) <= eps + 0.1 * lam * probe:
        return ZoneLabel.FROZEN
    return ZoneLabel.BOUNDARY


class StepError(ValueError):
    """The time step is not finite and positive, or takes too many samples."""


def _trace(
    field_: SolutionField,
    x: float,
    t: float,
    kind: CurveKind,
    forward: bool,
    dt: Optional[float] = None,
    t_end: Optional[float] = None,
) -> Curve:
    """Trace the characteristic of ``kind`` from (x, t): backward down to
    t = 0 (or the emitting boundary of a segment), raising
    CharacteristicStepError when stuck, or forward to ``t_end`` (default
    t + 1), ending early with a recorded reason where no continuation
    preserves the value.  The step dt defaults to 1/1000 of the span."""
    if forward:
        t_end = t_end if t_end is not None else t + 1.0
        if t_end < t:
            raise ValueError(f"forward tracing requires t_end >= t, got t_end={t_end!r} < t={t!r}")
        dt = dt if dt is not None else 1e-3 * max(t_end - t, 1e-9)
    else:
        if t <= 0:
            raise ValueError("backward tracing requires t > 0")
        t_end = 0.0
        dt = dt if dt is not None else 1e-3 * t
    if not (math.isfinite(dt) and dt > 0):
        raise StepError(f"dt must be finite and positive, got {dt!r}")
    span = abs(t_end - t)
    if not span / dt <= MAX_SAMPLES:  # true for a nan span too
        raise StepError(f"dt={dt!r} needs more than {MAX_SAMPLES} samples over a span of {span!r}")
    spec = field_.spec
    dom = spec.domain
    eps = field_.zone_epsilon()  # 10x the scaled solver tolerance
    char_tol = spec.lipschitz * dt + eps
    v_char = kind is CurveKind.V_CHAR
    built: dict = {}  # the levels of this trace, its start's and samples' alike
    field_._check_point(x, t)
    start = field_._value_range(x - t, x + t)
    b_lo, b_hi = field_._cell(x, t, start, not v_char, built)
    value = 0.5 * (b_lo + b_hi)
    zone0 = _zone(field_, x, t, eps, built, (not v_char, value))
    # the slices at the ends of the start's final cell, between which
    # certification puts the exact value; w is v of the mirrored problem,
    # whose slice below the value holds the label
    low, high = field_._level(b_lo, built), field_._level(b_hi, built)
    sign, outer, inner = (1.0, high.slice(0), low.slice(0)) if v_char else (-1.0, low.slice(1), high.slice(1))
    path = band_path(outer, inner, sign * field_._nudge(x) - t, t)

    def evaluate(xs, ts):
        """The value at a sample, on the start's bracket when the sample's
        own bracket lies inside it (always where its triangle does, to
        within the rounding of a path that runs on the triangle's edge)."""
        field_._check_point(xs, ts)
        if abs(xs - x) > t - ts + 1e-12 * (abs(x) + t):
            own = field_._value_range(xs - ts, xs + ts)
            if not start[0] <= own[0] <= own[1] <= start[1]:
                return field_._invert(xs, ts, own, not v_char, built)
        # a label in the outer slice and not in the inner one decides every
        # midpoint of bisection's path to [b_lo, b_hi] as the start's did
        x0 = sign * field_._nudge(xs) - ts
        if outer.membership(x0, ts) and not inner.membership(x0, ts):
            return value
        return field_._invert(xs, ts, start, not v_char, built, value)
    # backward traces end where the path meets the emitting feeder (at
    # -inf on the whole line, where a finite path never meets it)
    feeder = sign * (dom.a1 if v_char else dom.a2) if not forward else None
    h = 1e-6 * dt  # "just after" a sample, for its zone
    samples, values, zones = [(x, t)], [value], [zone0]
    cur_t, sgn = t, (1.0 if forward else -1.0)
    while True:
        remaining = (t_end - cur_t) if forward else (cur_t - t_end)
        # sub-epsilon remainders are accumulated float dust; a micro-step
        # would have a meaningless dx/dt ratio
        if remaining <= max(1e-9 * dt, 1e-14 * (abs(cur_t) + 1.0)):
            termination = "reached horizon" if forward else "reached t=0"
            break
        prev_t, cur_t = cur_t, cur_t + sgn * min(dt, remaining)
        r = path(cur_t)
        # a rounding step short of the feeder counts as on it
        at_feeder = feeder is not None and r is not None and r <= feeder + 1e-12
        if at_feeder:
            lo, hi = cur_t, prev_t  # the latest time on the feeder lies in between
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if path(mid) <= feeder + 1e-12 else (lo, mid)
            cur_t, r = lo, feeder
        if r is not None:
            cur_x = sign * r
            cur_value = evaluate(cur_x, cur_t)
        if r is None or abs(cur_value - value) > char_tol:
            if forward:
                termination = "no value-preserving continuation"
                break
            raise CharacteristicStepError(*samples[-1], "the path below does not preserve the value")
        after = path(cur_t + h)
        samples.append((cur_x, cur_t))
        values.append(cur_value)
        zones.append(ZoneLabel.LIQUID if after is not None and after - r > 0.5 * h else ZoneLabel.FROZEN)
        if at_feeder:
            termination = "left boundary" if v_char else "right boundary"
            break
    if not forward:
        for seq in (samples, values, zones):
            seq.reverse()
    return field_._keep(built, Curve(kind, samples, values, zones, termination))


def trace_backward_v(field_: SolutionField, x: float, t: float, dt: Optional[float] = None) -> Curve:
    """The backward v-characteristic from (x, t) (see ``_trace``)."""
    return _trace(field_, x, t, CurveKind.V_CHAR, False, dt)


def trace_forward_v(
    field_: SolutionField, x: float, t: float, dt: Optional[float] = None, t_end: Optional[float] = None
) -> Curve:
    """The forward v-characteristic from (x, t) (see ``_trace``)."""
    return _trace(field_, x, t, CurveKind.V_CHAR, True, dt, t_end)


def trace_backward_w(field_: SolutionField, x: float, t: float, dt: Optional[float] = None) -> Curve:
    """The backward w-characteristic from (x, t) (see ``_trace``)."""
    return _trace(field_, x, t, CurveKind.W_CHAR, False, dt)


def trace_forward_w(
    field_: SolutionField, x: float, t: float, dt: Optional[float] = None, t_end: Optional[float] = None
) -> Curve:
    """The forward w-characteristic from (x, t) (see ``_trace``)."""
    return _trace(field_, x, t, CurveKind.W_CHAR, True, dt, t_end)
