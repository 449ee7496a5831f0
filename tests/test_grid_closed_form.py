"""The grid's closed form against the per-point version it replaced, under
``==`` with the sign of zero.

``_RowProfiles._closed_form`` groups the points of a cell by component and
grid row and runs the label-free part of ``_exact_values`` once per group.
The reference kept here gathers every component's table for every point and
runs all of it per point.  Both must give the same exact values C and
rounding bounds E bit for bit, since the snap's probes depend on E.
"""

import numpy as np
import pytest

from freezeflow import FIXTURES, SolutionField, get_fixture, random_pl_spec
from freezeflow.levelset import _CHUNK, _ROUND, INF, _finite_abs, _half_line, _RowProfiles


def reference_exact_values(l, h, side, t, x0, p1, p2, ta, tb, f1, f2, r):
    n, m = ta.shape
    ar = np.arange(n)
    w = (h - l)[:, None]
    lc, hc, tc = l[:, None], h[:, None], t[:, None]
    rising = side == 0
    crossed = (np.minimum(ta, tb) < tc) & (tc < np.maximum(ta, tb))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        roots = np.where(crossed, lc + (tc - ta) * w / (tb - ta), hc)
        slope = np.where(ta == tb, 0.0, tb - ta)
        order = np.argsort(roots, axis=1)
        edges = np.concatenate([lc, np.take_along_axis(roots, order, 1), hc], axis=1)
        rates = np.take_along_axis(np.abs(slope) / w, order, 1)
        rates = np.concatenate([np.full((n, 1), INF), rates, np.full((n, 1), INF)], axis=1)
        ra, rb = edges[:, :-1], edges[:, 1:]
        lam = (0.5 * (ra + rb) - lc) / w
        branch = np.full(ra.shape, m)
        for i in range(m - 1, -1, -1):
            branch = np.where(tc <= ta[:, i:i + 1] + slope[:, i:i + 1] * lam, i, branch)
        shift = r * tc + x0[:, None]
        fa = np.take_along_axis(f1 - shift, branch, 1)
        fb = np.take_along_axis(f2 - shift, branch, 1)
        f_lo, f_hi = _half_line(fa, fb, lc, w)
        pa, pb = x0 - p1, x0 - p2
        p_lo, p_hi = _half_line(pa, pb, l, w[:, 0])
        start = np.maximum(np.maximum(ra, f_lo), p_lo[:, None])
        end = np.minimum(np.minimum(rb, f_hi), p_hi[:, None])
        ok = (start <= end) & (rb > ra)
        j = np.where(rising, np.where(ok, start, INF).argmin(axis=1), np.where(ok, end, -INF).argmax(axis=1))
        found = ok[ar, j]
        c = np.where(rising, start[ar, j], end[ar, j])
        ends = [_finite_abs(p1), _finite_abs(p2), _finite_abs(f1).max(axis=1), _finite_abs(f2).max(axis=1)]
        size = np.abs(x0) + t + np.maximum.reduce(ends)
        tiny = _ROUND * size
        lam_c = (c - l) / w[:, 0]
        err = _ROUND * np.abs(c)
        for ga, gb in ((fa[ar, j], fb[ar, j]), (pa, pb)):
            near = np.abs(ga + (gb - ga) * lam_c) <= tiny
            err = np.maximum(err, np.where(near, tiny * w[:, 0] / np.abs(gb - ga), 0.0))
        at_root = c == np.where(rising, ra[ar, j], rb[ar, j])
        err = np.maximum(err, np.where(at_root, tiny / np.where(rising, rates[ar, j], rates[ar, j + 1]), 0.0))
    c = np.where(found, c, np.where(rising, h, l))
    return np.clip(c, l, h), np.where(found, err, w[:, 0])


def reference_closed_form(profiles, cells, C, E):
    batches: dict = {}

    def solve(rows):
        l, h, side, idx, *rest = (np.concatenate(col) for col in zip(*rows))
        c, err = reference_exact_values(l, h, side, profiles.t[idx], *rest)
        for s, mask in enumerate((side == 0, side == 1)):
            C[s][idx[mask]] = c[mask]
            E[s][idx[mask]] = err[mask]

    for low, high, side, points in cells:
        P1, T1, F1, R = low.slice(side).table()
        P2, T2, F2, _ = high.slice(side).table()
        batch = batches.setdefault(T1.shape[1], [[], 0])
        for start in range(0, len(points), _CHUNK):
            idx = points[start:start + _CHUNK]
            x0 = profiles.x0[side][idx]
            k = np.searchsorted(P1 if side else P2, x0, side="right") - 1
            n = len(idx)
            cell = (np.full(n, low.b), np.full(n, high.b), np.full(n, side), idx, x0)
            batch[0].append(cell + (P1[k], P2[k], T1[k], T2[k], F1[k], F2[k], R[k]))
            batch[1] += n
            if batch[1] >= _CHUNK:
                solve(batch[0])
                batch[:] = [[], 0]
    for rows, n in batches.values():
        if n:
            solve(rows)


def same(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_closed_form_matches(monkeypatch, spec, xs, ts, tolerance=1e-10):
    """Evaluate a grid, running the reference next to every closed-form
    call on copies of its inputs; return the number of points solved."""
    original = _RowProfiles._closed_form
    solved = []

    def both(self, cells, C, E):
        expected = ([a.copy() for a in C], [a.copy() for a in E])
        reference_closed_form(self, cells, *expected)
        original(self, cells, C, E)
        for s in (0, 1):
            assert same(C[s], expected[0][s]), s
            assert same(E[s], expected[1][s]), s
        solved.append(sum(len(points) for *_, points in cells))

    with monkeypatch.context() as m:
        m.setattr(_RowProfiles, "_closed_form", both)
        SolutionField(spec, tolerance=tolerance).eval_grid(xs, ts)
    assert len(solved) == 1
    return solved[0]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_grids_match_reference(monkeypatch, name):
    # the full span at 41x21, as `solve --fixture NAME --grid 41,21`
    fixture = get_fixture(name)
    spec = fixture.build()
    lo, hi = spec.breakpoint_span()
    assert_closed_form_matches(monkeypatch, spec, np.linspace(lo, hi, 41), np.linspace(0.0, fixture.horizon, 21))


def test_criterion_1_grid_matches_reference(monkeypatch):
    spec = get_fixture("wedge").build()
    n = assert_closed_form_matches(monkeypatch, spec, np.linspace(-5.0, 5.0, 201), np.linspace(0.0, 2.0, 101), 1e-9)
    assert n > 2 * _CHUNK  # several batches


def random_specs():
    # default_rng(5)'s first whole-line spec, the first of the list, is the
    # one where groups of two cells with different component counts must
    # not share a key
    rng = np.random.default_rng(5)
    return [random_pl_spec(rng, segment=k % 2 == 1) for k in range(12)]


@pytest.mark.parametrize("k", range(12))
def test_random_grids_match_reference(monkeypatch, k):
    spec = random_specs()[k]
    lo, hi = spec.breakpoint_span()
    assert assert_closed_form_matches(monkeypatch, spec, np.linspace(lo, hi, 201), np.linspace(0.0, 2.0, 101)) > 0


@pytest.mark.parametrize("source", ["fixtures", "random"])
def test_every_point_of_a_cell_matches_reference(source):
    # every grid point in every affine cell between levels on a lattice,
    # with labels left of every component (where the table index is -1)
    # and cells of different component counts in one batch
    if source == "random":
        rng = np.random.default_rng(17)
        specs = [random_pl_spec(rng, segment=k % 3 == 0) for k in range(9)]
    else:
        specs = [get_fixture(name).build() for name in sorted(FIXTURES)]
    left_of_all = 0
    for spec in specs:
        field = SolutionField(spec)
        lo, hi = spec.breakpoint_span()
        xs, ts = np.linspace(lo - 3.0, hi + 3.0, 37), np.linspace(0.0, 2.0, 9)
        profiles = _RowProfiles(field, xs, ts, {})
        b_lo, b_hi = field._value_range(lo - 5.0, hi + 5.0)
        levels = [profiles.level(float(b)) for b in np.linspace(b_lo, b_hi, 41)]
        every = np.arange(xs.size * ts.size)
        pairs = [(low, high) for low, high in zip(levels, levels[1:]) if field._affine(low, high)]
        # a slice with no component has no table to read; no grid point's value lies there
        cells = [(low, high, side, every) for low, high in pairs for side in (0, 1) if len(low.slice(side).table()[0])]
        for low, high, side, points in cells:
            P = (high if side == 0 else low).slice(side).table()[0]
            left_of_all += int((profiles.x0[side][points] < (P[0] if len(P) else INF)).sum())
        expected = ([np.zeros(every.size), np.zeros(every.size)], [np.zeros(every.size), np.zeros(every.size)])
        reference_closed_form(profiles, cells, *expected)
        C, E = [np.zeros(every.size), np.zeros(every.size)], [np.zeros(every.size), np.zeros(every.size)]
        profiles._closed_form(cells, C, E)
        for s in (0, 1):
            assert same(C[s], expected[0][s]), s
            assert same(E[s], expected[1][s]), s
    assert left_of_all > 0
