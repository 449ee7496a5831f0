"""The set queries' building blocks against the straightforward versions
they replaced, under ``==`` with the sign of zero.

``_k_regions`` fills K with a difference array, ``extended_level_sets``
joins a segment's feeder tails in place, the set queries merge and clamp
once, and ``IntervalUnion.clip`` clamps in one pass.  Each must give the
same floats as the reference kept here: a dict of node indices filled
region by region, merged tails, and unions normalised at every step.
"""

import math

import numpy as np
import pytest

from freezeflow import (
    Domain,
    IntervalUnion,
    PiecewiseLinear,
    ProblemSpec,
    SolutionField,
    random_pl_spec,
    sublevel_set,
    superlevel_set,
)
from freezeflow.intervals import merge_sorted
from freezeflow.levelset import _k_regions, _LevelSlice, extended_level_sets

INF = math.inf


def reference_extended_level_sets(spec, b):
    if spec.domain.is_segment:
        a1, a2 = spec.domain.a1, spec.domain.a2
        blue = [(-INF, a1)] + spec.v0.sublevel_intervals(b, domain=(a1, a2))
        red = spec.w0.superlevel_intervals(b, domain=(a1, a2)) + [(a2, INF)]
        return merge_sorted(blue), merge_sorted(red)
    return spec.v0.sublevel_intervals(b), spec.w0.superlevel_intervals(b)


def reference_k_regions(blue, red):
    ends = set()
    for lo, hi in list(blue) + list(red):
        for x in (lo, hi):
            if math.isfinite(x):
                ends.add(x)
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


def reference_clip(union, lo, hi):
    return union.intersect(IntervalUnion(((lo, hi),)))


def reference_level_set(spec, b, t, side):
    blue, red = reference_extended_level_sets(spec, b)
    nodes, kvals = reference_k_regions(blue, red)
    if side:
        sl = _LevelSlice(
            [(-hi, -lo) for lo, hi in reversed(red)], [-n for n in reversed(nodes)], [-k for k in reversed(kvals)]
        )
        out = IntervalUnion([(lo + t, hi + t) for lo, hi in sl.survivors(t)]).reflect()
    else:
        sl = _LevelSlice(blue, nodes, kvals)
        out = IntervalUnion([(lo + t, hi + t) for lo, hi in sl.survivors(t)])
    if spec.domain.is_segment:
        out = reference_clip(out, spec.domain.a1, spec.domain.a2)
    return out


def signed(value):
    """Numbers with their type and the sign of each zero, so that 0, 0.0
    and -0.0 all differ."""
    if isinstance(value, float):
        return (value, math.copysign(1.0, value))
    if isinstance(value, int):
        return (value, int)
    if isinstance(value, IntervalUnion):
        return signed(value.intervals)
    return tuple(signed(v) for v in value)


def edge_spec(kind, segment):
    """Problems built so that signed zeros and rounding reach the results.

    ``zeros``: breakpoints and values at 0.0 and -0.0, and a segment that
    ends at 0.0.  ``start``: the segment [-0.0, 1] with v0 rising from
    v0(0.0) = 0, so at b = 0 a zero-length interval at 0.0 joins the
    feeder tail that ends at -0.0.  ``spike``: a peak of v0 1e-15 wide, so
    that at t = 50 the two sides of it move onto one float and must merge.
    """
    slopes = (None, None) if segment else (-1.0, 0.5)
    if kind == "zeros":
        v0 = PiecewiseLinear([-2.0, -0.0, 1.0], [1.0, -0.0, 0.0], *slopes)
        w0 = PiecewiseLinear([-2.0, -0.0, 1.0], [1.0, -1.0, -0.0], *slopes)
        return ProblemSpec(Domain.segment(-2.0, 0.0) if segment else Domain.whole_line(), v0, w0)
    if kind == "start":
        v0 = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
        w0 = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, -1.0, 0.5])
        return ProblemSpec(Domain.segment(-0.0, 1.0), v0, w0)
    xs, ys = [-1.0, 0.0, 1e-15, 2e-15, 1.0], [0.0, 0.0, 1.0, 0.0, 0.0]
    flat = (None, None) if segment else (0.0, 0.0)
    v0 = PiecewiseLinear(xs, ys, *flat)
    w0 = PiecewiseLinear(xs, [y - 10.0 for y in ys], *flat)
    return ProblemSpec(Domain.segment(-1.0, 1.0) if segment else Domain.whole_line(), v0, w0)


def levels(spec, rng):
    """Random levels, every breakpoint value (zero-length intervals) and the
    midpoints between them, the values at a segment's ends (intervals from
    a1 or to a2), and levels past every value (infinite tails, or the whole
    segment)."""
    ys = sorted(set(spec.v0.ys) | set(spec.w0.ys))
    lo, hi = ys[0], ys[-1]
    out = [float(y) for y in ys] + [0.5 * (y + z) for y, z in zip(ys, ys[1:])] + [lo - 1.0, hi + 1.0, 0.0, -0.0]
    if spec.domain.is_segment:
        out += [f(a) for f in (spec.v0, spec.w0) for a in (spec.domain.a1, spec.domain.a2)]
    return out + [float(b) for b in rng.uniform(lo - 1.0, hi + 1.0, size=4)]


SPECS = [("random", seed, segment) for seed in range(12) for segment in (False, True)]
SPECS += [("zeros", 0, False), ("zeros", 0, True), ("start", 0, True), ("spike", 0, False), ("spike", 0, True)]


def test_set_assembly_matches_reference():
    seen = {"point": 0, "inf": 0, "a1": 0, "a2": 0}
    for kind, seed, segment in SPECS:
        rng = np.random.default_rng(8800 + seed)
        spec = random_pl_spec(rng, segment=segment) if kind == "random" else edge_spec(kind, segment)
        dom = (spec.domain.a1, spec.domain.a2) if segment else None
        field = SolutionField(spec, strict=False)
        for b in levels(spec, rng):
            blue, red = extended_level_sets(spec, b)
            assert signed((blue, red)) == signed(reference_extended_level_sets(spec, b)), (kind, seed, b)
            assert signed(_k_regions(blue, red)) == signed(reference_k_regions(blue, red)), (kind, seed, b)
            inner = spec.v0.sublevel_intervals(b, domain=dom) + spec.w0.superlevel_intervals(b, domain=dom)
            seen["point"] += any(lo == hi for lo, hi in inner)
            seen["inf"] += any(INF in (-lo, hi) for lo, hi in inner)
            seen["a1"] += segment and any(lo == dom[0] for lo, _ in inner)
            seen["a2"] += segment and any(hi == dom[1] for _, hi in inner)
            for i, t in enumerate([0.0, -0.0, float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 3.0)), 50.0]):
                for side, query in ((0, sublevel_set), (1, superlevel_set)):
                    got = query(spec, b, t)
                    assert signed(got) == signed(reference_level_set(spec, b, t, side)), (kind, seed, b, t, side)
                # the field's queries come in pairs at one b, either side
                # first, so the second side reads the level the first built
                queries = (field.sublevel_set, field.superlevel_set)
                for side in (0, 1) if i % 2 else (1, 0):
                    got = queries[side](b, t)
                    assert signed(got) == signed(reference_level_set(spec, b, t, side)), (kind, seed, b, t, side)
    # the cases named in the docstring of ``levels`` all occur
    assert all(seen.values()), seen


def test_clip_matches_intersect():
    rng = np.random.default_rng(8850)
    windows = [(-INF, INF), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, -1.0), (math.nan, 1.0), (-1.0, math.nan)]
    for _ in range(300):
        ends = sorted(rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0], size=2 * int(rng.integers(0, 4))).tolist())
        pairs = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
        if rng.random() < 0.3:
            pairs.append((-INF, -3.0))
        if rng.random() < 0.3:
            pairs.append((3.0, INF))
        union = IntervalUnion(pairs)
        window = sorted(rng.choice([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5], size=2).tolist())
        for lo, hi in windows + [tuple(window)]:
            assert signed(union.clip(lo, hi)) == signed(reference_clip(union, lo, hi)), (union, lo, hi)
