"""regflow: relaxed fixed-point flows for nonexpansive operators.

Simulates the continuous flow dx/dt = lambda(t)(T(x) - x) and its discrete
relaxed iteration, estimates regularity constants (error bounds relating the
distance to Fix T to the residual), fits decay models to trajectories, and
checks the resulting rate bounds and closure inequalities on concrete data.
"""

from .errors import (
    ConfigError,
    ConstructionError,
    ConvergenceError,
    DegenerateEstimateError,
    FitError,
    IntegrationError,
    NumericRangeError,
    RegflowError,
    UsageError,
)
from .sets import AffineSubspace, Ball, Box, HalfSpace, Hyperplane, PrimitiveSet
from .operators import (
    Indicator,
    L1Norm,
    Operator,
    OperatorMeta,
    Quadratic,
    SimpleFunction,
    compose,
    convex_combination,
    douglas_rachford,
    forward_backward,
    identity,
    projector,
    prox,
    reflect,
    relax,
)
from .fixset import (
    DistanceResult,
    ExactSet,
    FixSetOracle,
    Intersection,
    SinglePoint,
    affine_intersection_project,
    dykstra_project,
    residual,
)
from .flow import (
    Constant,
    IntegratorConfig,
    LambdaSchedule,
    PiecewiseConstant,
    Sinusoid,
    Trajectory,
    integrate_flow,
    km_iterate,
    sample_metrics,
)
from .regularity import (
    CollectionEstimate,
    InequalityReport,
    Region,
    RegularityEstimate,
    affine_combination_identity_gap,
    check_avg_inequality,
    check_combination_bound,
    check_composition_bound,
    check_core_identities,
    check_descent,
    distance_sq_gradient_gap,
    estimate_collection_regularity,
    estimate_operator_regularity,
    random_primitive_set,
    sample_region,
)
from .rates import (
    BoundCheck,
    RateFit,
    check_hoelder_rate_bound,
    check_linear_rate_bound,
    fit_decay,
    hoelder_bound_constant,
    integrate_scalar_decay,
    powerlaw_comparison_constant,
    select_model,
    verify_comparison_lemmas,
)

__version__ = "0.1.0"
