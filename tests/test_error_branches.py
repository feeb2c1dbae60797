"""Each public input check raises its error class with a message naming the fault.

One row per ``raise`` on a public input that no other test reaches.
"""

import re

import numpy as np
import pytest

import regflow as rf
from regflow.config import build_scenario
from regflow.flow import Trajectory
from regflow.regularity import (check_averagedness, check_sqne,
                                hoelder_exponent_domination_constant)
from regflow.scenarios import scenario_config


def traj(n=3, schedule=rf.Constant(1.0), dist=0.0):
    """n samples at t = 0, 1, ... resting at the fixed point 0 of the zero map."""
    zeros = np.zeros(n)
    return Trajectory(np.arange(n), zeros[:, None], zeros, np.full(n, dist), zeros,
                      "continuous", schedule, limit_estimate=np.zeros(1))


def zero_map():
    return rf.projector(rf.AffineSubspace(np.zeros((1, 0)), [0.0]))


def line():
    return rf.Hyperplane([0.0, 1.0], 0.0)


def composition_bound(ops):
    return rf.check_composition_bound(ops, np.ones((1, 2)), rf.SinglePoint([0.0, 0.0]))


def config_with(**overrides):
    cfg = scenario_config("two_lines_60deg")
    cfg.update(overrides)
    return build_scenario(cfg)


ROWS = [
    # schedules, integrator settings, trajectories
    ("sinusoid_omega", lambda: rf.Sinusoid(0.5, 0.1, 0.0), rf.UsageError,
     "omega must be positive"),
    ("piecewise_shapes", lambda: rf.PiecewiseConstant([0.0, 1.0], [0.5]), rf.UsageError,
     "times and values must be 1-D of equal length"),
    ("piecewise_empty", lambda: rf.PiecewiseConstant([], []), rf.UsageError,
     "need at least one segment"),
    ("integrator_rel_tol", lambda: rf.IntegratorConfig("rk45", 1.0, rel_tol=0.0),
     rf.UsageError, "tolerances must be positive"),
    ("integrator_abs_tol", lambda: rf.IntegratorConfig("rk45", 1.0, abs_tol=-1.0),
     rf.UsageError, "tolerances must be positive"),
    ("integrator_rel_tol_one",
     lambda: config_with(integrator={"method": "rk45", "t_end": 1.0, "rel_tol": 1.0}),
     rf.ConfigError, "integrator: tolerances must be positive, and rel_tol below 1"),
    ("integrator_rel_tol_floor",
     lambda: config_with(integrator={"method": "rk45", "t_end": 1.0, "rel_tol": 1e-20}),
     rf.ConfigError, "integrator: rel_tol must be at least 2.22e-14"),
    ("integrator_stride", lambda: rf.IntegratorConfig("rk45", 1.0, sample_stride=0),
     rf.UsageError, "sample_stride must be a positive integer"),
    ("metric_unknown", lambda: traj().metric("speed"), rf.UsageError,
     "unknown metric 'speed'"),
    ("trajectory_flat_states",
     lambda: Trajectory([0.0, 1.0], [1.0, 2.0], *np.zeros((3, 2)), "continuous", None),
     rf.UsageError, "got shapes (2,), (2,), (2,), (2,), (2,)"),
    ("trajectory_lengths",
     lambda: Trajectory([0, 1, 2], [[1.0], [2.0]], [1, 1, 1], [np.nan] * 3, [1, 1, 1],
                        "discrete", None),
     rf.UsageError, "got shapes (3,), (2, 1), (3,), (3,), (3,)"),
    ("trajectory_without_schedule",
     lambda: rf.check_avg_inequality(traj(schedule=None), zero_map(), [0.0]),
     rf.UsageError, "trajectory carries no schedule"),
    # functions, operators and their metadata
    ("l1_weight", lambda: rf.L1Norm(-1.0), rf.ConstructionError,
     "l1 weight must be nonnegative"),
    ("quadratic_shape", lambda: rf.Quadratic(np.eye(2), [0.0]), rf.ConstructionError,
     "Q must be 1x1"),
    ("forward_backward_lipschitz",
     lambda: rf.forward_backward(rf.L1Norm(), np.eye(2), [0.0, 0.0], 0.0, 0.5),
     rf.ConstructionError, "lipschitz bound must be positive"),
    ("forward_backward_g_dim",
     lambda: rf.forward_backward(rf.Indicator(rf.Box([0.0], [1.0])), np.eye(2),
                                 [0.0, 0.0], 1.0, 1.0),
     rf.UsageError, "g has dimension 1, smooth part has 2"),
    ("combination_count",
     lambda: rf.convex_combination([rf.identity(2), rf.identity(2)], [1.0]),
     rf.UsageError, "2 operators but 1 weights"),
    ("combination_dims",
     lambda: rf.convex_combination([rf.identity(1), rf.identity(2)], [0.5, 0.5]),
     rf.UsageError, "all operators must share one dimension"),
    ("compose_dims", lambda: rf.compose([rf.identity(1), rf.identity(2)]),
     rf.UsageError, "all operators must share one dimension"),
    # Fix-set oracles
    ("dykstra_empty", lambda: rf.dykstra_project([], [0.0]), rf.UsageError,
     "need at least one set"),
    ("dykstra_tol", lambda: rf.dykstra_project([rf.Ball([0.0], 1.0)], [0.0], tol=0.0),
     rf.UsageError, "tol must be positive"),
    ("dykstra_dims",
     lambda: rf.dykstra_project([rf.Ball([0.0], 1.0), rf.Ball([0.0, 0.0], 1.0)], [0.0]),
     rf.UsageError, "all sets must share one ambient dimension"),
    ("affine_solve_non_affine",
     lambda: rf.affine_intersection_project([rf.Ball([0.0, 0.0], 1.0)], [0.0, 0.0]),
     rf.UsageError, "requires affine sets only"),
    ("intersection_empty", lambda: rf.Intersection([]), rf.ConstructionError,
     "intersection needs at least one set"),
    ("intersection_dims",
     lambda: rf.Intersection([rf.Ball([0.0], 1.0), rf.Ball([0.0, 0.0], 1.0)]),
     rf.ConstructionError, "intersection members must share one dimension"),
    # estimators and certificates
    ("region_radius", lambda: rf.Region([0.0], 0.0), rf.UsageError,
     "region radius must be positive"),
    ("hoelder_fit_without_positive_distances",
     lambda: rf.estimate_operator_regularity(
         zero_map(), rf.ExactSet(rf.AffineSubspace(np.array([[1.0]]), [0.0])),
         rf.Region([0.0], 1.0), 100, "hoelder"),
     rf.DegenerateEstimateError, "not enough positive samples for a log-log fit"),
    ("estimate_mode",
     lambda: rf.estimate_operator_regularity(zero_map(), rf.SinglePoint([0.0]),
                                             rf.Region([0.0], 1.0), 100, "cubic"),
     rf.UsageError, "mode must be 'linear' or 'hoelder', got 'cubic'"),
    ("collection_samples",
     lambda: rf.estimate_collection_regularity([rf.Ball([0.0], 1.0)],
                                               rf.Region([0.0], 1.0), 10),
     rf.UsageError, "need at least 100 samples"),
    ("averagedness_without_alpha", lambda: check_averagedness(rf.reflect(line())),
     rf.UsageError, "declares no averagedness constant"),
    ("sqne_without_rho",
     lambda: check_sqne(rf.reflect(line()), rf.ExactSet(line())),
     rf.UsageError, "declares no SQNE modulus"),
    ("moduli_missing", lambda: composition_bound([rf.reflect(line())]),
     rf.UsageError, "carries no SQNE modulus"),
    ("domination_exponents", lambda: hoelder_exponent_domination_constant(1.0, 0.3, 0.5),
     rf.UsageError, "need 0 < gamma <= theta"),
    ("domination_b", lambda: hoelder_exponent_domination_constant(0.0, 0.5, 0.3),
     rf.UsageError, "need b > 0"),
    # trajectory checks, fits and rate bounds
    ("descent_samples",
     lambda: rf.check_descent(traj(2), zero_map(), rf.SinglePoint([0.0]), [0.0]),
     rf.UsageError, "need at least 3 samples for central differences"),
    ("fit_model", lambda: rf.fit_decay(traj(), model="cubic"), rf.UsageError,
     "model must be 'exponential' or 'powerlaw', got 'cubic'"),
    ("bound_without_dist_fix", lambda: rf.check_linear_rate_bound(traj(dist=np.nan), 1.0),
     rf.UsageError, "trajectory lacks dist_fix samples"),
    ("linear_bound_kappa", lambda: rf.check_linear_rate_bound(traj(), 0.0),
     rf.UsageError, "kappa must be positive"),
    ("hoelder_bound_t_min", lambda: rf.check_hoelder_rate_bound(traj(), 1.0, 0.5, t_min=100.0),
     rf.UsageError, "no samples with t >= 100.0"),
    ("hoelder_constant_gamma", lambda: rf.hoelder_bound_constant(1.0, 1.5, 1.0),
     rf.UsageError, "gamma must lie in (0,1)"),
    ("hoelder_constant_kappa", lambda: rf.hoelder_bound_constant(0.0, 0.5, 1.0),
     rf.UsageError, "kappa and lambda* must be positive"),
    ("comparison_constant_alpha", lambda: rf.powerlaw_comparison_constant(0.0, 0.5),
     rf.UsageError, "alpha must be positive"),
    # configs and the bundled corpus
    ("rate_fit_not_an_object", lambda: config_with(rate_fit=[1]), rf.ConfigError,
     "rate_fit: expected an object"),
    ("intersection_tol_floor",
     lambda: config_with(fix_oracle={"kind": "intersection", "tol": 1e-300, "max_iter": 1000,
                                     "sets": [{"kind": "ball", "center": [0.0, 1.0],
                                               "radius": 1.0}]}),
     rf.ConfigError, "fix_oracle: tol must be positive and at least 2.22e-13"),
    ("scenario_unknown", lambda: scenario_config("nope"), KeyError,
     "no bundled scenario named 'nope'"),
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_error_branch(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
