"""Finite unions of closed intervals with extended-real endpoints.

IntervalUnion is the workhorse set type for level-set computations: sublevel
sets of v and superlevel sets of w are finite disjoint unions of closed
intervals, possibly unbounded on the whole line.  All operations are exact up
to floating-point rounding; no sampling is involved anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator, Tuple

INF = math.inf

Interval = Tuple[float, float]


def merge_sorted(pairs: Iterable[Interval]) -> list[Interval]:
    """Merge overlapping or touching intervals of a list sorted by ``lo``."""
    merged: list[Interval] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _merge(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort, drop empty intervals, and merge overlapping or touching ones."""
    items = [(lo, hi) for lo, hi in intervals if hi >= lo]
    items.sort()
    return tuple(merge_sorted(items))


class IntervalUnion:
    """An ordered, disjoint, normalized union of closed intervals [lo, hi].

    Endpoints may be -inf or +inf.  Zero-length intervals (singletons) are
    kept unless they touch a neighbour, in which case they are absorbed.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self.intervals: Tuple[Interval, ...] = _merge(intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        body = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.intervals)
        return f"IntervalUnion({body})"

    # -- queries ---------------------------------------------------------

    def measure(self) -> float:
        """Total length; +inf if any component is unbounded."""
        total = 0.0
        for lo, hi in self.intervals:
            total += hi - lo
        return total

    def contains(self, x: float) -> bool:
        idx = bisect_right(self.intervals, (x, INF))
        return idx > 0 and self.intervals[idx - 1][1] >= x

    def has_lower_tail(self) -> bool:
        return bool(self.intervals) and self.intervals[0][0] == -INF

    def has_upper_tail(self) -> bool:
        return bool(self.intervals) and self.intervals[-1][1] == INF

    def finite_endpoints(self) -> list[float]:
        out = []
        for lo, hi in self.intervals:
            if math.isfinite(lo):
                out.append(lo)
            if math.isfinite(hi):
                out.append(hi)
        return out

    # -- algebra ---------------------------------------------------------

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out: list[Interval] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalUnion(out)

    @classmethod
    def _of(cls, intervals: Tuple[Interval, ...]) -> "IntervalUnion":
        """The union of intervals already sorted, disjoint and not touching."""
        out = cls.__new__(cls)
        out.intervals = intervals
        return out

    def clip(self, lo: float, hi: float) -> "IntervalUnion":
        """The part within [lo, hi] in one pass: clamping keeps the intervals disjoint; a nan end keeps none."""
        clamped = ((max(a, lo), min(b, hi)) for a, b in self.intervals)
        return IntervalUnion._of(tuple((a, b) for a, b in clamped if lo <= a <= b <= hi))

    def reflect(self) -> "IntervalUnion":
        """The mirror image {-x : x in self}."""
        return IntervalUnion(tuple((-hi, -lo) for lo, hi in reversed(self.intervals)))

    def symmetric_difference_measure(self, other: "IntervalUnion") -> float:
        """Lebesgue measure of the symmetric difference (inf if tails differ)."""
        if self.has_lower_tail() != other.has_lower_tail():
            return INF
        if self.has_upper_tail() != other.has_upper_tail():
            return INF
        cuts = sorted(set(self.finite_endpoints()) | set(other.finite_endpoints()))
        if not cuts:
            return 0.0
        total = 0.0
        probes = []
        for k in range(len(cuts) - 1):
            probes.append(((cuts[k] + cuts[k + 1]) / 2.0, cuts[k + 1] - cuts[k]))
        for x, width in probes:
            if self.contains(x) != other.contains(x):
                total += width
        return total
