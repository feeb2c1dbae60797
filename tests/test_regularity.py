import json

import numpy as np
import pytest

import regflow as rf
from regflow.flow import Trajectory
from regflow.regularity import (
    _core_identity_gaps,
    check_averagedness,
    check_nonexpansiveness,
    check_sqne,
    hoelder_exponent_domination_constant,
)
from regflow.scenarios import CONTINUOUS, load_scenario
from conftest import SIN60, pairs_in_ball


def ball_region(radius, dim=2):
    return rf.Region(np.zeros(dim), radius)


class TestOperatorEstimator:
    def test_single_line_projector_kappa_one(self):
        line = rf.Hyperplane([0.0, 1.0], 0.0)
        P = rf.projector(line)
        est = rf.estimate_operator_regularity(P, rf.ExactSet(line), ball_region(5.0),
                                              1000, "linear", 0)
        assert est.kappa == pytest.approx(1.0, abs=1e-9)
        assert est.gamma == 1.0
        assert est.max_violation <= 1.0 + 1e-12

    def test_two_lines_kappa_stable_across_seeds(self, two_lines):
        kappas = [
            rf.estimate_operator_regularity(two_lines["op"], two_lines["oracle"],
                                            ball_region(10.0), 2000, "linear", seed).kappa
            for seed in range(5)
        ]
        assert max(kappas) / min(kappas) < 1.05

    def test_two_lines_kappa_matches_grid_oracle(self, two_lines):
        # independent oracle: exhaustive ratio maximization on a grid
        xs = np.linspace(-10, 10, 401)
        X, Y = np.meshgrid(xs, xs)
        pts = np.stack([X.ravel(), Y.ravel()], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= 10.0]
        u = np.array([0.5, SIN60])
        p1 = pts.copy()
        p1[:, 1] = 0.0
        tx = (p1 @ u)[:, None] * u[None, :]
        res = np.linalg.norm(pts - tx, axis=1)
        d = np.linalg.norm(pts, axis=1)
        keep = res > 1e-12
        grid_kappa = float(np.max(d[keep] / res[keep]))

        est = rf.estimate_operator_regularity(two_lines["op"], two_lines["oracle"],
                                              ball_region(10.0), 10000, "linear", 0)
        assert abs(est.kappa - grid_kappa) / grid_kappa < 0.05

    def test_tangent_pair_linear_kappa_blows_up_near_origin(self, tangent_pair):
        kappas = [
            rf.estimate_operator_regularity(tangent_pair["op"], tangent_pair["oracle"],
                                            ball_region(R), 2000, "linear", 0).kappa
            for R in (2.0, 1.0, 0.5, 0.25)
        ]
        assert kappas[0] < kappas[1] < kappas[2] < kappas[3]
        assert kappas[3] > 3.0 * kappas[0]

    def test_tangent_pair_hoelder_gamma_near_half(self, tangent_pair):
        for seed in range(3):
            est = rf.estimate_operator_regularity(
                tangent_pair["op"], tangent_pair["oracle"], ball_region(1.5),
                10000, "hoelder", seed)
            assert 0.4 <= est.gamma <= 0.6
            assert est.max_violation <= 1.0 + 1e-12

    def test_soundness_bound_holds_on_fresh_ratio_check(self, tangent_pair):
        est = rf.estimate_operator_regularity(
            tangent_pair["op"], tangent_pair["oracle"], ball_region(1.5),
            2000, "hoelder", 1)
        pts = rf.sample_region(ball_region(1.5), 2000, 1)  # same seed-grid
        for x in pts:
            r = rf.residual(tangent_pair["op"], x)
            if r < 1e-12:
                continue
            d = tangent_pair["oracle"].distance_to(x).distance
            assert d <= est.kappa * r ** est.gamma * (1.0 + 1e-12)

    def test_bitwise_determinism(self, two_lines):
        a = rf.estimate_operator_regularity(two_lines["op"], two_lines["oracle"],
                                            ball_region(10.0), 500, "linear", 7)
        b = rf.estimate_operator_regularity(two_lines["op"], two_lines["oracle"],
                                            ball_region(10.0), 500, "linear", 7)
        assert a.kappa == b.kappa and a.gamma == b.gamma
        assert a.max_violation == b.max_violation and a.excluded == b.excluded

    def test_region_monotone_for_homogeneous_polyhedral(self, two_lines):
        k_small = rf.estimate_operator_regularity(two_lines["op"], two_lines["oracle"],
                                                  ball_region(5.0), 2000, "linear", 3).kappa
        k_large = rf.estimate_operator_regularity(two_lines["op"], two_lines["oracle"],
                                                  ball_region(10.0), 2000, "linear", 3).kappa
        assert k_small <= k_large + 1e-9

        dr = rf.douglas_rachford(rf.HalfSpace([1.0, 0.0], 0.0),
                                 rf.HalfSpace([0.0, 1.0], 0.0))
        oracle = rf.Intersection([rf.HalfSpace([1.0, 0.0], 0.0),
                                  rf.HalfSpace([0.0, 1.0], 0.0)])
        k1 = rf.estimate_operator_regularity(dr, oracle, ball_region(5.0),
                                             1000, "linear", 3).kappa
        k2 = rf.estimate_operator_regularity(dr, oracle, ball_region(10.0),
                                             1000, "linear", 3).kappa
        assert k1 <= k2 + 1e-9

    def test_identity_degenerate(self):
        I = rf.identity(2)
        with pytest.raises(rf.DegenerateEstimateError):
            rf.estimate_operator_regularity(I, rf.SinglePoint([0.0, 0.0]),
                                            ball_region(1.0), 200, "linear", 0)

    def test_sample_count_floor(self, two_lines):
        with pytest.raises(rf.UsageError):
            rf.estimate_operator_regularity(two_lines["op"], two_lines["oracle"],
                                            ball_region(1.0), 99, "linear", 0)

    def test_excluded_counted(self, tangent_pair):
        # points on the fixed set give residual ~0; force some by a tiny region
        # around the origin where samples rarely vanish; instead use a projector
        # whose set covers part of the region
        box = rf.Box([-1.0, -1.0], [1.0, 1.0])
        P = rf.projector(box)
        est = rf.estimate_operator_regularity(P, rf.ExactSet(box), ball_region(2.0),
                                              2000, "linear", 0)
        assert est.excluded > 0
        assert est.excluded + est.n_samples >= est.n_samples  # counted, not dropped silently

    @pytest.mark.parametrize("radius, bad", [(1e159, 39), (1e200, 48)])
    def test_non_finite_residual_or_set_distance_raises(self, radius, bad):
        # <a, x> overflows on part of the region: no constant is certified there
        h, region = rf.HalfSpace([1e150, 0.0], 0.0), ball_region(radius)
        with pytest.raises(rf.NumericRangeError,
                           match=rf"^{bad} of 100 samples have a non-finite residual$"):
            rf.estimate_operator_regularity(rf.projector(h), rf.ExactSet(h), region, 100,
                                            "linear", 0)
        with pytest.raises(rf.NumericRangeError,
                           match=rf"^{bad} of 100 samples have a non-finite set distance$"):
            rf.estimate_collection_regularity([h], region, 100, "linear", 0)

    def test_non_finite_oracle_distance_raises(self):
        # finite residuals, but every distance to the point exceeds the float range
        P = rf.projector(rf.Box([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(rf.NumericRangeError,
                           match=r"^100 of 100 samples have a non-finite oracle distance$"):
            rf.estimate_operator_regularity(P, rf.SinglePoint([1.7e308, 0.0]),
                                            rf.Region([-1.7e308, 0.0], 1.0), 100, "linear", 0)


class TestCollectionEstimator:
    def test_single_set_trivial(self):
        est = rf.estimate_collection_regularity([rf.Box([0.0, 0.0], [1.0, 1.0])],
                                                ball_region(5.0), 500, "linear", 0)
        assert est.tau == pytest.approx(1.0, abs=1e-9)
        assert est.theta == 1.0

    def test_orthogonal_hyperplanes_tau_below_sqrt2(self):
        sets = [rf.Hyperplane([0.0, 1.0], 0.0), rf.Hyperplane([1.0, 0.0], 0.0)]
        est = rf.estimate_collection_regularity(sets, ball_region(10.0), 2000,
                                                "linear", 0)
        assert est.tau <= np.sqrt(2.0) + 1e-6

    def test_tangent_pair_theta_near_half(self, tangent_pair):
        # intersection is the tangency point; Dykstra is sublinear there, so
        # the known intersection is declared as the oracle
        est = rf.estimate_collection_regularity(list(tangent_pair["sets"]),
                                                ball_region(1.5), 10000, "hoelder", 0,
                                                oracle=rf.SinglePoint([0.0, 0.0]))
        assert 0.4 <= est.theta <= 0.6

    def test_to_dict_round_trips_through_json(self):
        sets = [rf.Hyperplane([0.0, 1.0], 0.0), rf.Hyperplane([1.0, 0.0], 0.0)]
        est = rf.estimate_collection_regularity(sets, rf.Region([1.0, -2.0], 3.0), 200,
                                                "linear", 5)
        doc = json.loads(json.dumps(est.to_dict(), sort_keys=True))
        assert doc == {"tau": est.tau, "theta": 1.0, "n_samples": 200,
                       "max_violation": est.max_violation, "excluded": est.excluded,
                       "region": {"center": [1.0, -2.0], "radius": 3.0}}
        assert est.max_violation == pytest.approx(1.0)

    def test_infeasible_collection_rejected(self):
        with pytest.raises(rf.ConstructionError):
            rf.estimate_collection_regularity(
                [rf.Hyperplane([0.0, 1.0], 0.0), rf.Hyperplane([0.0, 1.0], 2.0)],
                ball_region(1.0), 200, "linear", 0)


def one_sample_traj(x, schedule, t=0.0):
    x = np.asarray(x, dtype=float)
    lam = schedule(t)
    res = float(np.linalg.norm(x))  # residual under the zero map
    return Trajectory([t], [x], [res], [np.nan], [lam * res], "continuous", schedule)


class TestAvgInequality:
    def test_at_fixed_point_slack_zero(self, two_lines):
        x_star = np.zeros(2)
        traj = Trajectory([0.0], [x_star], [0.0], [np.nan], [0.0], "continuous",
                          rf.Constant(0.5))
        rep = rf.check_avg_inequality(traj, two_lines["op"], x_star)
        assert rep.worst_slack == pytest.approx(0.0, abs=1e-15)

    def test_full_relaxation_reduces_to_nonexpansiveness(self, two_lines):
        sched = rf.Constant(1.0)
        xs, _ = pairs_in_ball(100, 2, seed=17)
        res = rf.residual(two_lines["op"], xs)
        traj = Trajectory(np.arange(len(xs)), xs, res, np.full(len(xs), np.nan), res,
                          "discrete", sched)
        rep = rf.check_avg_inequality(traj, two_lines["op"], np.zeros(2))
        assert rep.passed

    def test_zero_map_half_relaxation_arithmetic(self, zero_map):
        # v = -0.5, LHS = 0.25 + 1*0.25 = 0.5, RHS = 1, slack = 0.5
        sched = rf.Constant(0.5)
        traj = one_sample_traj([1.0], sched)
        rep = rf.check_avg_inequality(traj, zero_map, [0.0])
        assert rep.worst_slack == pytest.approx(0.5, abs=1e-14)

    def test_lambda_zero_samples_skipped_and_counted(self, zero_map):
        sched = rf.PiecewiseConstant([0.0, 1.0], [0.0, 1.0])
        traj = Trajectory([0.0, 1.0], [[1.0], [0.5]], [1.0, 0.5], [np.nan, np.nan],
                          [0.0, 0.5], "discrete", sched)
        rep = rf.check_avg_inequality(traj, zero_map, [0.0])
        assert rep.excluded == 1 and rep.n_points == 1

    def test_non_fixed_x_star_rejected(self, zero_map):
        traj = one_sample_traj([1.0], rf.Constant(1.0))
        with pytest.raises(rf.UsageError):
            rf.check_avg_inequality(traj, zero_map, [3.0])


def query_counter(oracle):
    """Rows passed to ``oracle.distance_to`` per call, recorded on the instance."""
    calls, query = [], oracle.distance_to

    def counted(x):
        calls.append(np.atleast_2d(x).shape[0])
        return query(x)

    oracle.distance_to = counted
    return calls


def unmeasured(traj):
    """``traj``'s columns in a trajectory that records no measuring oracle."""
    return Trajectory(traj.times(), traj.states(), traj.metric("residual"),
                      traj.metric("dist_fix"), traj.speeds(), traj.mode, traj.schedule,
                      traj.limit_estimate, traj.info)


class TestDescent:
    def run_flow(self, op, x0, lam, t_end, dt, oracle):
        times = tuple(np.linspace(0.0, t_end, int(round(t_end / dt)) + 1))
        cfg = rf.IntegratorConfig("rk45", t_end, rel_tol=1e-12, abs_tol=1e-14,
                                  sample_times=times)
        return rf.integrate_flow(op, x0, rf.Constant(lam), cfg, oracle=oracle)

    def test_identity_flow_both_sides_zero(self):
        I = rf.identity(1)
        oracle = rf.ExactSet(rf.AffineSubspace(np.array([[1.0]]), [0.0]))  # whole line
        traj = self.run_flow(I, [0.7], 1.0, 1.0, 0.05, oracle)
        rep = rf.check_descent(traj, I, oracle, [0.7])
        assert abs(rep.worst_slack) <= 1e-12

    def test_zero_map_strict_slack_matches_closed_form(self, zero_map):
        # for the zero map, (d/dt)d^2 = -2 e^{-2t} d0^2 while the right side is
        # -e^{-2t} d0^2: the worst (latest-time) slack is ~ e^{-2 t_end} d0^2
        oracle = rf.SinglePoint([0.0])
        traj = self.run_flow(zero_map, [1.0], 1.0, 2.0, 0.01, oracle)
        rep = rf.check_descent(traj, zero_map, oracle, [0.0])
        assert rep.passed
        expected = np.exp(-2.0 * (2.0 - 0.01))  # slack of inequality (i) at the end
        assert rep.worst_slack == pytest.approx(expected, rel=1e-2)

    def test_reflection_flow_saturates_inequalities(self):
        # T = -Id: x(t) = e^{-2t} x0 and both descent inequalities hold with
        # equality, so the measured slack is pure discretization error -> 0
        neg = rf.Operator(lambda x: -x, 1, rf.OperatorMeta(label="negate"))
        oracle = rf.SinglePoint([0.0])

        def worst(dt):
            traj = self.run_flow(neg, [1.0], 1.0, 1.0, dt, oracle)
            rep = rf.check_descent(traj, neg, oracle, [0.0],
                                   tol=1.0)
            return abs(rep.worst_slack)

        w1, w2 = worst(0.04), worst(0.01)
        assert w2 < w1
        assert w2 < 1e-3

    def test_two_lines_flow_passes(self, two_lines):
        traj = self.run_flow(two_lines["op"], [4.0, 3.0], 1.0, 5.0, 0.01,
                             two_lines["oracle"])
        rep = rf.check_descent(traj, two_lines["op"], two_lines["oracle"],
                               [0.0, 0.0])
        assert rep.passed and rep.worst_slack >= -rep.tolerance

    def test_sparse_sampling_rejected(self, zero_map):
        oracle = rf.SinglePoint([0.0])
        traj = self.run_flow(zero_map, [1.0], 1.0, 2.0, 0.5, oracle)
        with pytest.raises(rf.UsageError):
            rf.check_descent(traj, zero_map, oracle, [0.0])

    def test_default_tolerance_scales_with_dt(self, zero_map):
        oracle = rf.SinglePoint([0.0])
        traj = self.run_flow(zero_map, [1.0], 1.0, 1.0, 0.02, oracle)
        rep = rf.check_descent(traj, zero_map, oracle, [0.0])
        assert rep.tolerance == pytest.approx(0.2, rel=1e-6)

    @pytest.mark.parametrize("name", CONTINUOUS)
    def test_measured_column_gives_the_queried_report(self, name):
        sc = load_scenario(name)
        traj = rf.integrate_flow(sc.operator, sc.x0, sc.schedule, sc.integrator,
                                 oracle=sc.oracle)
        assert traj.dist_fix_oracle is sc.oracle
        x_star = sc.oracle.distance_to(sc.x0).witness
        calls = query_counter(sc.oracle)
        read = rf.check_descent(traj, sc.operator, sc.oracle, x_star)
        assert calls == []
        queried = rf.check_descent(unmeasured(traj), sc.operator, sc.oracle, x_star)
        assert calls == [traj.times().size]
        assert read == queried  # field for field, and worst_slack bit for bit:
        assert np.signbit(read.worst_slack) == np.signbit(queried.worst_slack)

    def test_another_oracle_is_queried(self, two_lines):
        traj = self.run_flow(two_lines["op"], [4.0, 3.0], 1.0, 2.0, 0.05,
                             two_lines["oracle"])
        other = rf.Intersection(list(two_lines["sets"]))
        calls = query_counter(other)
        rep = rf.check_descent(traj, two_lines["op"], other, [0.0, 0.0])
        assert calls == [traj.times().size]
        assert rep == rf.check_descent(traj, two_lines["op"], two_lines["oracle"],
                                       [0.0, 0.0])


class TestBoundLemmas:
    def axes(self):
        l1 = rf.Hyperplane([0.0, 1.0], 0.0)
        l2 = rf.Hyperplane([1.0, 0.0], 0.0)
        return (rf.projector(l1), rf.projector(l2), rf.Intersection([l1, l2]))

    def test_combination_point_in_fix_zero_both_sides(self):
        P1, P2, oracle = self.axes()
        rep = rf.check_combination_bound([P1, P2], [0.5, 0.5],
                                         [np.zeros(2)], oracle)
        assert rep.worst_slack == 0.0

    def test_combination_hand_arithmetic(self):
        P1, P2, oracle = self.axes()
        rep = rf.check_combination_bound([P1, P2], [0.5, 0.5],
                                         [np.array([2.0, 0.0])], oracle)
        assert rep.worst_slack == pytest.approx(2.0, abs=1e-12)

    def test_combination_sweep(self):
        P1, P2, oracle = self.axes()
        pts = rf.sample_region(rf.Region(np.zeros(2), 10.0), 500, 11)
        rep = rf.check_combination_bound([P1, P2], [0.5, 0.5], pts, oracle)
        assert rep.passed and rep.worst_slack >= -1e-10

    def test_composition_hand_arithmetic(self):
        P1, P2, oracle = self.axes()
        rep = rf.check_composition_bound([P1, P2],
                                         [np.array([2.0, 0.0])], oracle)
        assert rep.worst_slack == pytest.approx(4.0, abs=1e-12)

    def test_composition_sweep(self):
        P1, P2, oracle = self.axes()
        pts = rf.sample_region(rf.Region(np.zeros(2), 10.0), 500, 11)
        rep = rf.check_composition_bound([P1, P2], pts, oracle)
        assert rep.passed and rep.worst_slack >= -1e-10

    def test_each_constituent_weighs_by_its_own_modulus(self):
        # R = relax(P1, 0.8) is 0.8-averaged, so rho = 0.25. At x = (0, 2):
        # R(x) = (0, 0.4) and P2(x) = x, d(x, {0}) = 2.
        P1, P2, oracle = self.axes()
        R = rf.relax(P1, 0.8)
        assert R.meta.rho == pytest.approx(0.25, abs=1e-15)
        x = [np.array([0.0, 2.0])]
        # combination T(x) = (0, 1.2): 2 * 2 * 0.8 - (0.5 * 0.25 * 1.6^2 + 0)
        rep = rf.check_combination_bound([R, P2], [0.5, 0.5], x, oracle)
        assert rep.worst_slack == pytest.approx(2.88, abs=1e-12)
        # composition T(x) = (0, 0.4): 2 * 2 * 1.6 - (0.25 * 1.6^2 + 0)
        rep = rf.check_composition_bound([R, P2], x, oracle)
        assert rep.worst_slack == pytest.approx(5.76, abs=1e-12)

    def test_missing_modulus_rejected(self):
        P1, P2, oracle = self.axes()
        bare = rf.Operator(P2.fn, 2, rf.OperatorMeta(label="bare"))
        with pytest.raises(rf.UsageError):
            rf.check_combination_bound([P1, bare], [0.5, 0.5],
                                       [np.zeros(2)], oracle)


class TestCoreIdentities:
    def test_alpha_zero_and_reflection_cases(self):
        u = np.array([1.5, -2.0])
        assert rf.affine_combination_identity_gap(0.0, u, np.array([3.0, 1.0])) <= 1e-15
        assert rf.affine_combination_identity_gap(0.5, u, -u) <= 1e-15

    def test_sweep_passes(self):
        rep = rf.check_core_identities(2000, seed=5)
        assert rep.passed
        assert rep.n_points == 2200  # identity part + gradient part

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sweep_gaps_equal_scalar_gaps_bit_for_bit(self, seed):
        affine, gradient = _core_identity_gaps(1500, seed)
        rng = np.random.default_rng(seed)  # the sweep's draws, one triple at a time
        for gap in affine:
            dim = int(rng.integers(1, 9))
            alpha = float(rng.uniform(-2.0, 2.0))
            u = rng.standard_normal(dim) * 2.0
            v = rng.standard_normal(dim) * 2.0
            assert gap == rf.affine_combination_identity_gap(alpha, u, v)
        assert gradient.shape == (150,)
        for gap in gradient:
            dim = int(rng.integers(2, 6))
            set_ = rf.random_primitive_set(rng, dim)
            assert gap == rf.distance_sq_gradient_gap(set_, rng.standard_normal(dim) * 3.0)

    def test_gradient_gap_uses_one_distance_batch(self, monkeypatch):
        box = rf.Box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        calls = []
        distance = box.distance
        monkeypatch.setattr(box, "distance", lambda x: calls.append(np.shape(x)) or distance(x))
        assert rf.distance_sq_gradient_gap(box, [4.0, -1.0, 1.5]) <= 1e-6
        assert calls == [(6, 3)]

    def test_ball_gradient_radial(self):
        ball = rf.Ball([0.0, 0.0], 1.0)
        x = np.array([2.0, 0.0])
        gap = rf.distance_sq_gradient_gap(ball, x)
        assert gap <= 1e-6
        analytic = 2.0 * (x - ball.project(x))
        np.testing.assert_allclose(analytic, [2.0, 0.0])

    def test_exponent_domination_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            gamma = float(rng.uniform(0.05, 1.0))
            theta = float(rng.uniform(gamma, 1.0))
            b = float(rng.uniform(0.1, 10.0))
            M = hoelder_exponent_domination_constant(b, theta, gamma)
            alphas = np.linspace(0.0, b, 101)
            slack = M * alphas ** gamma - alphas ** theta
            assert slack.min() >= -1e-12


class TestCertificateCheckers:
    def test_pass_on_projector(self):
        ball = rf.Ball([0.0, 1.0], 1.0)
        P = rf.projector(ball)
        assert check_nonexpansiveness(P).passed
        assert check_averagedness(P).passed
        assert check_sqne(P, rf.ExactSet(ball)).passed

    def test_fail_on_expansive(self):
        bad = rf.Operator(lambda x: 1.2 * x, 2, rf.OperatorMeta(label="bad"))
        assert not check_nonexpansiveness(bad).passed

    def test_fail_on_false_alpha_claim(self):
        # a reflector is nonexpansive but not averaged; claiming alpha must fail
        refl = rf.reflect(rf.Hyperplane([0.0, 1.0], 0.0))
        claimed = rf.Operator(refl.fn, 2, rf.OperatorMeta(label="fake", alpha=0.5))
        rep = check_averagedness(claimed)
        assert not rep.passed
