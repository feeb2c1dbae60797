import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import regflow as rf
from conftest import pairs_in_ball


class TestProx:
    def test_l1_against_bruteforce(self):
        # independent oracle: 1-D minimization of w|z| + (z-x)^2/2 per coordinate
        fn = rf.L1Norm(1.0)
        x = np.array([3.0, -0.5, 0.0])
        got = rf.prox(fn, 1.0, x)
        for i, xi in enumerate(x):
            res = minimize_scalar(lambda z: abs(z) + 0.5 * (z - xi) ** 2,
                                  bounds=(-5.0, 5.0), method="bounded",
                                  options={"xatol": 1e-10})
            assert abs(got[i] - res.x) < 1e-6
        np.testing.assert_allclose(got, [2.0, 0.0, 0.0], atol=1e-12)

    def test_indicator_prox_is_projection_any_step(self):
        box = rf.Box([0.0, 0.0], [1.0, 1.0])
        fn = rf.Indicator(box)
        x = np.array([2.0, -1.0])
        for step in (1e-3, 1.0, 5.0, 100.0):
            np.testing.assert_array_equal(rf.prox(fn, step, x), box.project(x))
        np.testing.assert_array_equal(rf.prox(fn, 5.0, x), [1.0, 0.0])

    def test_quadratic_minimizer_is_fixed(self):
        fn = rf.Quadratic(np.eye(2), [0.0, 0.0])
        np.testing.assert_allclose(rf.prox(fn, 2.0, [0.0, 0.0]), [0.0, 0.0])

    def test_quadratic_prox_optimality(self):
        # oracle: first-order condition t(Qz - c) + (z - x) = 0
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = np.array([1.0, -1.0])
        fn = rf.Quadratic(Q, c)
        x = np.array([0.3, 0.7])
        for t in (0.1, 1.0, 10.0):
            z = rf.prox(fn, t, x)
            grad = t * (Q @ z - c) + (z - x)
            assert np.linalg.norm(grad) < 1e-12

    def test_step_must_be_positive(self):
        with pytest.raises(rf.UsageError):
            rf.prox(rf.L1Norm(1.0), 0.0, [1.0])
        with pytest.raises(rf.UsageError):
            rf.prox(rf.L1Norm(1.0), -1.0, [1.0])

    def test_non_psd_quadratic_rejected(self):
        with pytest.raises(rf.ConstructionError):
            rf.Quadratic([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        with pytest.raises(rf.ConstructionError):
            rf.Quadratic([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])  # not symmetric


class TestForwardBackward:
    def test_interior_minimizer_is_fixed(self):
        g = rf.Indicator(rf.Box([0.0, 0.0], [2.0, 2.0]))
        T = rf.forward_backward(g, np.eye(2), [1.0, 1.0], 1.0, 1.0)
        np.testing.assert_allclose(T([1.0, 1.0]), [1.0, 1.0])

    def test_hand_composition(self):
        g = rf.Indicator(rf.Box([0.0, 0.0], [2.0, 2.0]))
        T = rf.forward_backward(g, np.eye(2), [1.0, 1.0], 1.0, 1.0)
        x = np.array([5.0, 5.0])
        expected = rf.Box([0.0, 0.0], [2.0, 2.0]).project(x - (x - [1.0, 1.0]))
        np.testing.assert_array_equal(T(x), expected)
        np.testing.assert_allclose(T(x), [1.0, 1.0])

    def test_constrained_fixed_point_from_kkt(self):
        # min 1/2||x-(2,0)||^2 s.t. x_1 <= 0 has KKT solution (0, 0)
        g = rf.Indicator(rf.HalfSpace([1.0, 0.0], 0.0))
        T = rf.forward_backward(g, np.eye(2), [2.0, 0.0], 1.0, 0.5)
        assert rf.residual(T, [0.0, 0.0]) == 0.0

    def test_step_range_enforced(self):
        g = rf.Indicator(rf.Box([0.0], [1.0]))
        for bad in (0.0, -0.1, 2.0, 2.5):
            with pytest.raises(rf.ConstructionError):
                rf.forward_backward(g, [[1.0]], [0.0], 1.0, bad)

    def test_lipschitz_must_bound_spectrum(self):
        g = rf.Indicator(rf.Box([0.0, 0.0], [1.0, 1.0]))
        with pytest.raises(rf.ConstructionError):
            rf.forward_backward(g, [[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 1.0, 0.5)

    def test_averagedness_constant(self):
        g = rf.Indicator(rf.Box([0.0], [1.0]))
        T = rf.forward_backward(g, [[1.0]], [0.0], 1.0, 0.5)
        assert T.meta.alpha == pytest.approx(2.0 / (4.0 - 0.5))


class TestReflect:
    def test_mirror_across_x_axis(self):
        R = rf.reflect(rf.Hyperplane([0.0, 1.0], 0.0))
        np.testing.assert_allclose(R([1.0, 2.0]), [1.0, -2.0])

    def test_points_in_set_fixed(self):
        for set_ in (rf.Box([0.0, 0.0], [1.0, 1.0]), rf.Ball([0.0, 0.0], 2.0)):
            R = rf.reflect(set_)
            x = np.array([0.5, 0.5])
            np.testing.assert_allclose(R(x), x)

    def test_ball_reflection(self):
        R = rf.reflect(rf.Ball([0.0, 0.0], 1.0))
        np.testing.assert_allclose(R([2.0, 0.0]), [0.0, 0.0])

    def test_no_averagedness_claimed(self):
        R = rf.reflect(rf.Ball([0.0, 0.0], 1.0))
        assert R.meta.alpha is None and R.meta.rho is None


class TestDouglasRachford:
    def test_point_in_both_sets_fixed(self):
        box = rf.Box([0.0, 0.0], [1.0, 1.0])
        V = rf.douglas_rachford(box, box)
        np.testing.assert_allclose(V([0.5, 0.5]), [0.5, 0.5])

    def test_two_axes_hand_composition(self):
        # P_l x = (1,0); reflected (1,-2); P_j -> (0,-2); x + (0,-2) - (1,0) = (0,0)
        x_axis = rf.Hyperplane([0.0, 1.0], 0.0)
        y_axis = rf.Hyperplane([1.0, 0.0], 0.0)
        V = rf.douglas_rachford(x_axis, y_axis)
        np.testing.assert_allclose(V([1.0, 2.0]), [0.0, 0.0])

    def test_halfspace_pair_interior_fixed(self):
        V = rf.douglas_rachford(rf.HalfSpace([1.0, 0.0], 0.0),
                                rf.HalfSpace([-1.0, 0.0], 0.0))
        np.testing.assert_allclose(V([0.0, 5.0]), [0.0, 5.0])

    def test_half_averaged(self):
        V = rf.douglas_rachford(rf.HalfSpace([1.0, 0.0], 0.0),
                                rf.HalfSpace([0.0, 1.0], 0.0))
        assert V.meta.alpha == 0.5 and V.meta.rho == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(rf.UsageError):
            rf.douglas_rachford(rf.HalfSpace([1.0], 0.0), rf.HalfSpace([1.0, 0.0], 0.0))


class TestCombinators:
    def test_combination_of_identities(self):
        I = rf.identity(2)
        T = rf.convex_combination([I, I], [0.5, 0.5])
        x = np.array([3.0, -4.0])
        np.testing.assert_allclose(T(x), x)

    def test_combination_of_axis_projectors(self):
        P1 = rf.projector(rf.Hyperplane([0.0, 1.0], 0.0))
        P2 = rf.projector(rf.Hyperplane([1.0, 0.0], 0.0))
        T = rf.convex_combination([P1, P2], [0.5, 0.5])
        np.testing.assert_allclose(T([2.0, 4.0]), [1.0, 2.0])

    def test_identical_constituents(self, two_lines):
        T = two_lines["op"]
        C = rf.convex_combination([T, T, T], [1 / 3, 1 / 3, 1 / 3])
        xs, _ = pairs_in_ball(50, 2, seed=2)
        for x in xs:
            assert np.linalg.norm(C(x) - T(x)) <= 1e-14

    def test_weight_validation(self):
        I = rf.identity(1)
        with pytest.raises(rf.UsageError):
            rf.convex_combination([I, I], [0.45, 0.45])
        with pytest.raises(rf.UsageError):
            rf.convex_combination([I, I], [1.5, -0.5])
        with pytest.raises(rf.UsageError):
            rf.convex_combination([], [])

    def test_combination_meta_records_constituents(self):
        P1 = rf.projector(rf.Hyperplane([0.0, 1.0], 0.0))
        P2 = rf.projector(rf.Hyperplane([1.0, 0.0], 0.0))
        T = rf.convex_combination([P1, P2], [0.25, 0.75])
        assert T.meta.label == f"combination[{P1.label}, {P2.label}]"
        assert T.meta.rho is None  # combined modulus never fabricated

    def test_compose_order_first_listed_applied_first(self):
        P1 = rf.projector(rf.Hyperplane([0.0, 1.0], 0.0))  # x-axis
        P2 = rf.projector(rf.Hyperplane([1.0, 0.0], 0.0))  # y-axis
        T = rf.compose([P1, P2])
        np.testing.assert_allclose(T([2.0, 4.0]), [0.0, 0.0])

    def test_compose_with_identity(self, two_lines):
        T = two_lines["op"]
        TI = rf.compose([rf.identity(2), T])
        xs, _ = pairs_in_ball(20, 2, seed=4)
        for x in xs:
            np.testing.assert_array_equal(TI(x), T(x))

    def test_compose_line45_then_axis(self):
        line45 = rf.AffineSubspace(np.array([[1.0], [1.0]]), [0.0, 0.0])
        T = rf.compose([rf.projector(line45),
                        rf.projector(rf.Hyperplane([0.0, 1.0], 0.0))])
        np.testing.assert_allclose(T([0.0, 2.0]), [1.0, 0.0])

    def test_compose_empty_rejected(self):
        with pytest.raises(rf.UsageError):
            rf.compose([])

    def test_relax_endpoints_and_midpoint(self):
        neg = rf.Operator(lambda x: -x, 1, rf.OperatorMeta(label="negate"))
        x = np.array([2.0])
        np.testing.assert_array_equal(rf.relax(neg, 0.0)(x), x)
        np.testing.assert_array_equal(rf.relax(neg, 1.0)(x), neg(x))
        np.testing.assert_allclose(rf.relax(neg, 0.5)(x), [0.0])
        assert rf.relax(neg, 0.5).meta.alpha == 0.5
        assert rf.relax(neg, 1.0).meta.alpha is None

    def test_relax_range_checked(self):
        I = rf.identity(1)
        for bad in (-0.1, 1.1):
            with pytest.raises(rf.UsageError):
                rf.relax(I, bad)

    def test_apply_identity_and_zero(self, zero_map):
        np.testing.assert_array_equal(rf.identity(2)([1.0, 2.0]), [1.0, 2.0])
        z2 = rf.projector(rf.AffineSubspace(np.zeros((2, 0)), [0.0, 0.0]))
        np.testing.assert_array_equal(z2([3.0, 4.0]), [0.0, 0.0])

    def test_dimension_mismatch_on_apply(self):
        with pytest.raises(rf.UsageError):
            rf.identity(2)([1.0, 2.0, 3.0])


def certified_operator_corpus():
    import regflow.scenarios as sc
    return [(op, oracle) for op, oracle in sc.certificate_operators()]


class TestCertificates:
    def test_eval_deterministic(self):
        for op, _ in certified_operator_corpus():
            xs, _ = pairs_in_ball(20, op.dim, seed=8)
            for x in xs:
                np.testing.assert_array_equal(op(x), op(x))

    def test_nonexpansive_sampled(self):
        for op, _ in certified_operator_corpus():
            xs, ys = pairs_in_ball(1000, op.dim, seed=9)
            for x, y in zip(xs, ys):
                assert (np.linalg.norm(op(x) - op(y))
                        <= np.linalg.norm(x - y) + 1e-12), op.label

    def test_averagedness_certificate(self):
        for op, _ in certified_operator_corpus():
            a = op.meta.alpha
            if a is None:
                continue
            xs, ys = pairs_in_ball(500, op.dim, seed=10)
            for x, y in zip(xs, ys):
                tx, ty = op(x), op(y)
                lhs = np.linalg.norm(tx - ty) ** 2
                lhs += (1 - a) / a * np.linalg.norm((x - tx) - (y - ty)) ** 2
                assert lhs <= np.linalg.norm(x - y) ** 2 + 1e-10, op.label

    def test_sqne_certificate(self):
        for op, oracle in certified_operator_corpus():
            rho = op.meta.rho
            if rho is None or oracle is None:
                continue
            xs, _ = pairs_in_ball(500, op.dim, seed=12)
            for x in xs:
                x_star = oracle.distance_to(x).witness
                tx = op(x)
                lhs = np.linalg.norm(tx - x_star) ** 2 + rho * np.linalg.norm(x - tx) ** 2
                assert lhs <= np.linalg.norm(x - x_star) ** 2 + 1e-10, op.label

    def test_check_functions_flag_expansive_operator(self):
        from regflow.regularity import check_nonexpansiveness

        bad = rf.Operator(lambda x: 1.05 * x, 2, rf.OperatorMeta(label="expansive"))
        rep = check_nonexpansiveness(bad)
        assert not rep.passed and rep.worst_slack < 0

    def test_meta_alpha_fills_rho(self):
        m = rf.OperatorMeta(alpha=0.25)
        assert m.rho == pytest.approx(3.0)
        with pytest.raises(TypeError):  # rho follows alpha; it is not set on its own
            rf.OperatorMeta(rho=1.0)
        with pytest.raises(rf.ConstructionError):
            rf.OperatorMeta(alpha=1.5)
