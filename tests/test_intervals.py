import math

from hypothesis import given, strategies as st

from freezeflow import IntervalUnion

INF = math.inf


def test_normalization_merges_touching():
    iu = IntervalUnion([(0, 1), (1, 2), (3, 4)])
    assert iu.intervals == ((0, 1 + 1), (3, 4))


def test_singletons_kept_unless_absorbed():
    iu = IntervalUnion([(0.5, 0.5), (1, 2), (2, 2)])
    assert iu.intervals == ((0.5, 0.5), (1, 2))


def test_measure_and_tails():
    iu = IntervalUnion([(-INF, 0), (2, 5)])
    assert iu.measure() == INF
    assert iu.has_lower_tail() and not iu.has_upper_tail()
    assert iu.clip(-10, 10).measure() == 13


def test_intersect_and_complement():
    a = IntervalUnion([(0, 2), (4, 6)])
    b = IntervalUnion([(1, 5)])
    assert a.intersect(b).intervals == ((1, 2), (4, 5))


def test_symmetric_difference():
    a = IntervalUnion([(0, 2), (4, 6)])
    b = IntervalUnion([(0, 1), (4, 6.5)])
    assert abs(a.symmetric_difference_measure(b) - 1.5) < 1e-12
    assert a.symmetric_difference_measure(a) == 0.0
    c = IntervalUnion([(0, INF)])
    assert a.symmetric_difference_measure(c) == INF
    # only the upper tails differ
    d = IntervalUnion([(-INF, 0), (1, INF)])
    assert d.symmetric_difference_measure(IntervalUnion([(-INF, 0), (1, 5)])) == INF
    # only one side has a lower tail, whatever the upper tails and the order
    e = IntervalUnion([(-INF, -3), (0, 2), (4, 6)])
    assert e.symmetric_difference_measure(a) == INF and a.symmetric_difference_measure(e) == INF
    assert IntervalUnion([(-INF, 0)]).symmetric_difference_measure(IntervalUnion([(-5, 0)])) == INF


def test_value_semantics():
    a = IntervalUnion([(0, 1), (1, 2), (3, INF)])
    b = IntervalUnion([(3, INF), (0, 2)])
    assert a == b and hash(a) == hash(b) and len(a) == 2
    assert a != a.intervals and a != IntervalUnion([(0, 2)])
    assert repr(a) == "IntervalUnion([0, 2], [3, inf])"


def test_reflect_translate_contains():
    a = IntervalUnion([(1, 2), (3, INF)])
    assert a.reflect().intervals == ((-INF, -3), (-2, -1))
    assert a.contains(1.5) and not a.contains(2.5) and a.contains(100.0)


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@given(st.lists(st.tuples(finite, finite), max_size=8), st.lists(st.tuples(finite, finite), max_size=8))
def test_union_measure_bounds(pairs_a, pairs_b):
    a = IntervalUnion([(min(p), max(p)) for p in pairs_a])
    b = IntervalUnion([(min(p), max(p)) for p in pairs_b])
    u = IntervalUnion(a.intervals + b.intervals)
    assert u.measure() <= a.measure() + b.measure() + 1e-9
    assert u.measure() >= max(a.measure(), b.measure()) - 1e-9
    # normalization is idempotent
    assert IntervalUnion(u.intervals).intervals == u.intervals
