"""Named builtin problems with closed-form reference values.

Each fixture is a fully worked configuration used across the test suite and
the CLI: initial data, a sensible horizon, and (where available) exact
reference formulas for the solution or its boundary geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .problem import Domain, PiecewiseLinear, ProblemSpec


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    build: Callable[[], ProblemSpec]
    horizon: float


# -- wedge: v0 = |x|, w0 = x/2 ------------------------------------------------
# Freezing boundary x = 3t, thawing boundary x = 3t/5; the solution is fully
# explicit piecewise linear.


def _wedge() -> ProblemSpec:
    v0 = PiecewiseLinear([0.0], [0.0], -1.0, 1.0)
    w0 = PiecewiseLinear([0.0], [0.0], 0.5, 0.5)
    return ProblemSpec(Domain.whole_line(), v0, w0)


def wedge_v_exact(x, t):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.where(x < 3 * t / 5, -(x - t), np.where(x < 3 * t, 2 * x / 3, x - t))


def wedge_w_exact(x, t):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.where(
        x < -t,
        (x + t) / 2,
        np.where(x < 3 * t / 5, (x + t) / 4, np.where(x < 3 * t, 2 * x / 3, (x + t) / 2)),
    )


# -- parabolas: v0 = x^2, w0 = -(x-4)^2 + 3, PL-sampled -----------------------
# Characteristic meeting location for value b in [0, 3]:
#   z(b) = (sqrt(b) - sqrt(3-b) + 4) / 2,
# freezing and thawing times
#   S_f(b) = (4 - sqrt(3-b) - sqrt(b)) / 2,
#   S_t(b) = (3 sqrt(b) - sqrt(3-b) + 4) / 2        for b <= 3/2,
#            (-sqrt(b) + 3 sqrt(3-b) + 4) / 2       for b >= 3/2.
# The frozen region is a curvilinear triangle with base corners at
# x = (4 -+ sqrt(3)) / 2 (one-sided boundary slopes (-1, 3) and (1, -3)) and
# tip (2, 2 + sqrt(3/2)) where the two thawing branches meet with slopes -+2.


def _parabolas(n: int = 2001) -> ProblemSpec:
    v0 = PiecewiseLinear.from_callable(lambda x: x * x, -6.0, 10.0, n)
    w0 = PiecewiseLinear.from_callable(lambda x: -((x - 4.0) ** 2) + 3.0, -6.0, 10.0, n)
    return ProblemSpec(Domain.whole_line(), v0, w0)


def parabolas_freeze_time(b: float) -> float:
    return 0.5 * (4.0 - math.sqrt(3.0 - b) - math.sqrt(b))


PARABOLAS_LEFT_CORNER = ((4.0 - math.sqrt(3.0)) / 2.0, (4.0 - math.sqrt(3.0)) / 2.0)
PARABOLAS_RIGHT_CORNER = ((4.0 + math.sqrt(3.0)) / 2.0, (4.0 - math.sqrt(3.0)) / 2.0)
PARABOLAS_TIP = (2.0, 2.0 + math.sqrt(1.5))


# -- ramp: v0 = x + 2 against a parabolic dip in w0 ---------------------------
# Thawing boundary T_t(z) = -z - sqrt(z + 2) meets the freezing boundary
# T_f(z) = (-2 z + sqrt(4 z + 9) - 1) / 2 at (-2, 2); the one-sided slopes
# there are -inf (thawing) and 0 (freezing).


def _ramp(n: int = 401) -> ProblemSpec:
    xs = np.linspace(-1.0, 1.0, n)
    w0 = PiecewiseLinear(xs, xs * xs, left_slope=1.0, right_slope=1.0)
    v0 = PiecewiseLinear([-1.0, 1.0], [1.0, 3.0], 1.0, 1.0)
    return ProblemSpec(Domain.whole_line(), v0, w0)


RAMP_CORNER = (-2.0, 2.0)


# -- segment fixtures ----------------------------------------------------------


def _tent() -> ProblemSpec:
    """sigma0 is a tent: v0 = 1 - |x - 1|, w0 = -v0 on [0, 2]."""
    v0 = PiecewiseLinear([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    w0 = PiecewiseLinear([0.0, 1.0, 2.0], [0.0, -1.0, 0.0])
    return ProblemSpec(Domain.segment(0.0, 2.0), v0, w0)


def _seg_tent() -> ProblemSpec:
    v0 = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 0.5, 0.0])
    w0 = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, -0.5, 0.0])
    return ProblemSpec(Domain.segment(0.0, 1.0), v0, w0)


def _downhill() -> ProblemSpec:
    """mu0 = -x strictly decreasing with sigma0 = 0 on [-1, 1]: instant thaw,
    eventual freeze onto the mirrored profile mu(x, t>=4) = mu(-x, 0)."""
    f = PiecewiseLinear([-1.0, 1.0], [0.5, -0.5])
    return ProblemSpec(Domain.segment(-1.0, 1.0), f, f)


def _frozen_ramp() -> ProblemSpec:
    f = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
    return ProblemSpec(Domain.segment(0.0, 1.0), f, f)


def _uniform_gap() -> ProblemSpec:
    v0 = PiecewiseLinear([0.0], [1.0], 0.0, 0.0)
    w0 = PiecewiseLinear([0.0], [0.0], 0.0, 0.0)
    return ProblemSpec(Domain.whole_line(), v0, w0)


def _thawline() -> ProblemSpec:
    f = PiecewiseLinear([0.0], [0.0], -1.0, -1.0)
    return ProblemSpec(Domain.whole_line(), f, f)


FIXTURES: Dict[str, Fixture] = {
    f.name: f
    for f in [
        Fixture(
            "wedge",
            "v0=|x|, w0=x/2 on the line; fully explicit solution with freezing "
            "boundary x=3t and thawing boundary x=3t/5",
            _wedge,
            2.0,
        ),
        Fixture(
            "parabolas",
            "v0=x^2, w0=-(x-4)^2+3 sampled as PL (2001 points on [-6,10]); "
            "frozen triangle with known corner positions and slopes",
            _parabolas,
            3.5,
        ),
        Fixture(
            "ramp",
            "v0=x+2 with a parabolic dip in w0; thaw-to-freeze corner at (-2,2) "
            "with one-sided slopes 0 (freezing) and -inf (thawing)",
            _ramp,
            3.0,
        ),
        Fixture("tent", "tent dispersion on [0,2]: v0=1-|x-1|, w0=-v0", _tent, 4.0),
        Fixture("seg-tent", "small tent dispersion on [0,1]", _seg_tent, 3.0),
        Fixture("downhill", "decreasing mu0 with zero dispersion on [-1,1]", _downhill, 5.0),
        Fixture("frozen-ramp", "fully frozen nondecreasing data v0=w0=x on [0,1]", _frozen_ramp, 2.0),
        Fixture("uniform-gap", "constant liquid data v0=1, w0=0", _uniform_gap, 2.0),
        Fixture("thawline", "instant-thaw data v0=w0=-x on the line", _thawline, 2.0),
    ]
}


def get_fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        known = ", ".join(sorted(FIXTURES))
        raise KeyError(f"unknown fixture {name!r}; known fixtures: {known}") from None
