"""freezeflow: exact solver for a pair of transport equations with freezing.

The system v_t = -v_x 1{v > w}, w_t = w_x 1{v > w} under the constraint
v >= w is solved in closed form through sublevel/superlevel-set annihilation
dynamics, exactly for piecewise-linear initial data.  The package also
provides characteristic tracing, liquid/frozen boundary extraction,
conservation diagnostics, independent brute-force oracles, and the discrete
pinned-balls model the equations arise from.
"""

from .intervals import IntervalUnion
from .problem import (
    Domain,
    MuSigmaPair,
    PiecewiseLinear,
    ProblemSpec,
    ValidationIssue,
    ValidationReport,
    from_vw,
    initial_from_terminal,
    load_spec,
    spec_from_json,
    spec_to_json,
    to_vw,
    validate,
)
from .levelset import (
    SolutionField,
    alpha_v,
    alpha_w,
    sublevel_set,
    superlevel_set,
)
from .characteristics import (
    CharacteristicStepError,
    Curve,
    CurveKind,
    ZoneLabel,
    classify,
    trace_backward_v,
    trace_backward_w,
    trace_forward_v,
    trace_forward_w,
)
from .geometry import (
    BoundarySet,
    Corner,
    CornerKind,
    CornerSlopes,
    corner_slopes,
    extract_boundaries,
    freezing_curve_monotone_case,
)
from .diagnostics import (
    CheckReport,
    check_constraint,
    check_eventual_freeze,
    check_lipschitz_map,
    check_momentum_energy,
    check_monotone_dependence,
    check_occupation,
    check_total_variation,
    occupation_difference,
    perturb_spec,
    random_pl_spec,
    run_default_checks,
)
from .oracle import AnnihilationState, annihilate_step, grid_scheme, oracle_level_sets
from .pinned_balls import BallState, collide, run
from .fixtures import FIXTURES, Fixture, get_fixture

__version__ = "0.1.0"

__all__ = [
    "AnnihilationState",
    "BallState",
    "BoundarySet",
    "CharacteristicStepError",
    "CheckReport",
    "Corner",
    "CornerKind",
    "CornerSlopes",
    "Curve",
    "CurveKind",
    "Domain",
    "FIXTURES",
    "Fixture",
    "IntervalUnion",
    "MuSigmaPair",
    "PiecewiseLinear",
    "ProblemSpec",
    "SolutionField",
    "ValidationIssue",
    "ValidationReport",
    "ZoneLabel",
    "alpha_v",
    "alpha_w",
    "annihilate_step",
    "check_constraint",
    "check_eventual_freeze",
    "check_lipschitz_map",
    "check_momentum_energy",
    "check_monotone_dependence",
    "check_occupation",
    "check_total_variation",
    "classify",
    "collide",
    "corner_slopes",
    "extract_boundaries",
    "freezing_curve_monotone_case",
    "from_vw",
    "get_fixture",
    "grid_scheme",
    "initial_from_terminal",
    "load_spec",
    "occupation_difference",
    "oracle_level_sets",
    "perturb_spec",
    "random_pl_spec",
    "run",
    "run_default_checks",
    "spec_from_json",
    "spec_to_json",
    "sublevel_set",
    "superlevel_set",
    "to_vw",
    "trace_backward_v",
    "trace_backward_w",
    "trace_forward_v",
    "trace_forward_w",
    "validate",
]
