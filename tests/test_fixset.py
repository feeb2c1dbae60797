import numpy as np
import pytest

import regflow as rf
from conftest import pairs_in_ball


class TestResidual:
    def test_identity_zero(self):
        I = rf.identity(2)
        xs, _ = pairs_in_ball(20, 2, seed=1)
        for x in xs:
            assert rf.residual(I, x) == 0.0

    def test_zero_map_norm(self, zero_map):
        z2 = rf.projector(rf.AffineSubspace(np.zeros((2, 0)), [0.0, 0.0]))
        assert rf.residual(z2, [3.0, 4.0]) == pytest.approx(5.0)

    def test_axis_projector_vertical_distance(self):
        P = rf.projector(rf.Hyperplane([0.0, 1.0], 0.0))
        assert rf.residual(P, [1.0, 2.0]) == pytest.approx(2.0)


class TestDykstra:
    def test_negative_orthant_from_outside(self):
        sets = [rf.HalfSpace([1.0, 0.0], 0.0), rf.HalfSpace([0.0, 1.0], 0.0)]
        res = rf.dykstra_project(sets, [1.0, 1.0])
        np.testing.assert_allclose(res.witness, [0.0, 0.0], atol=1e-12)
        assert res.distance == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_feasible_point_unchanged(self):
        sets = [rf.HalfSpace([1.0, 0.0], 0.0), rf.HalfSpace([0.0, 1.0], 0.0)]
        res = rf.dykstra_project(sets, [-1.0, -1.0])
        np.testing.assert_allclose(res.witness, [-1.0, -1.0])
        assert res.distance == 0.0

    def test_two_axes_intersection_is_origin(self):
        sets = [rf.Hyperplane([0.0, 1.0], 0.0), rf.Hyperplane([1.0, 0.0], 0.0)]
        res = rf.dykstra_project(sets, [3.0, 4.0])
        assert res.distance == pytest.approx(5.0, abs=1e-10)
        np.testing.assert_allclose(res.witness, [0.0, 0.0], atol=1e-10)

    def test_agrees_with_exact_affine_solve(self):
        # angled hyperplane pair; agreement within 10*tol as promised
        h1 = rf.Hyperplane([1.0, 2.0], 1.0)
        h2 = rf.Hyperplane([2.0, -1.0], 0.0)
        tol = 1e-12
        xs, _ = pairs_in_ball(50, 2, seed=21)
        for x in xs:
            dy = rf.dykstra_project([h1, h2], x, tol=tol)
            ex = rf.affine_intersection_project([h1, h2], x)
            assert abs(dy.distance - ex.distance) <= 10 * tol * max(1.0, ex.distance)
            assert np.linalg.norm(dy.witness - ex.witness) <= 1e-8

    def test_infeasible_raises_convergence_error_with_best(self):
        h1 = rf.Hyperplane([0.0, 1.0], 0.0)
        h2 = rf.Hyperplane([0.0, 1.0], 1.0)  # parallel, disjoint
        with pytest.raises(rf.ConvergenceError) as exc:
            rf.dykstra_project([h1, h2], [0.0, 0.5], tol=1e-12, max_iter=200)
        best = exc.value.result
        assert best is not None and best.certified_tol > 0.0

    def test_max_iter_below_one_is_usage_error(self):
        with pytest.raises(rf.UsageError, match="max_iter"):
            rf.dykstra_project([rf.Ball([0.0, 0.0], 1.0)], [2.0, 0.0], max_iter=0)

    def test_witness_violation_measured(self):
        sets = [rf.Ball([0.0, 0.0], 1.0), rf.HalfSpace([0.0, 1.0], 0.0)]
        res = rf.dykstra_project(sets, [2.0, 2.0], tol=1e-10)
        assert res.certified_tol <= 1e-10
        for s in sets:
            assert s.distance(res.witness) <= 1e-10


class TestOracles:
    def test_exact_set_ball(self):
        oracle = rf.ExactSet(rf.Ball([0.0, 0.0], 1.0))
        r = oracle.distance_to([2.0, 0.0])
        assert r.distance == pytest.approx(1.0)
        np.testing.assert_allclose(r.witness, [1.0, 0.0])

    def test_single_point(self):
        oracle = rf.SinglePoint([1.0, 1.0])
        assert oracle.distance_to([1.0, 1.0]).distance == 0.0
        assert oracle.distance_to([4.0, 5.0]).distance == 5.0

    def test_intersection_orthant(self):
        oracle = rf.Intersection([rf.HalfSpace([1.0, 0.0], 0.0),
                                  rf.HalfSpace([0.0, 1.0], 0.0)])
        r = oracle.distance_to([1.0, 1.0])
        assert r.distance == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_intersection_affine_uses_exact_solve(self, two_lines):
        oracle = two_lines["oracle"]
        assert oracle._affine
        r = oracle.distance_to([3.0, 4.0])
        # intersection of the two lines is the origin
        assert r.distance == pytest.approx(5.0, abs=1e-12)
        assert r.certified_tol <= 1e-12

    def test_empty_intersection_rejected_at_construction(self):
        h1 = rf.HalfSpace([1.0, 0.0], 0.0)
        h2 = rf.HalfSpace([-1.0, 0.0], -1.0)  # x1 >= 1; disjoint from x1 <= 0
        with pytest.raises(rf.ConstructionError):
            rf.Intersection([h1, h2], max_iter=500)

    def test_empty_affine_intersection_rejected(self):
        h1 = rf.Hyperplane([0.0, 1.0], 0.0)
        h2 = rf.Hyperplane([0.0, 1.0], 1.0)
        with pytest.raises(rf.ConstructionError):
            rf.Intersection([h1, h2])

    @pytest.mark.parametrize("sets", [
        [rf.HalfSpace([1.0, 0.0], 0.0), rf.HalfSpace([0.0, 1.0], 0.0)],  # Dykstra
        [rf.Hyperplane([1.0, 0.0], 0.0), rf.Hyperplane([0.0, 1.0], 0.0)],  # affine
    ])
    def test_intersection_max_iter_below_one_rejected(self, sets):
        with pytest.raises(rf.ConstructionError, match="max_iter"):
            rf.Intersection(sets, max_iter=0)

    def test_distance_to_fix_dispatch(self):
        oracle = rf.Intersection([rf.HalfSpace([1.0, 0.0], 0.0),
                                  rf.HalfSpace([0.0, 1.0], 0.0)])
        r = rf.distance_to_fix(oracle, [1.0, 1.0])
        assert r.distance == pytest.approx(np.sqrt(2.0), abs=1e-10)


class TestCompositeFixedSets:
    def test_projector_composition_fixes_exactly_the_intersection(self):
        # common-fixed-point composites: Fix(P3 P2 P1) = B1 n B2 n B3
        b1 = rf.Box([0.0, 0.0], [2.0, 2.0])
        b2 = rf.Box([1.0, 0.5], [3.0, 3.0])
        b3 = rf.Box([0.5, 1.0], [2.5, 2.5])
        T = rf.compose([rf.projector(b) for b in (b1, b2, b3)])
        oracle = rf.Intersection([b1, b2, b3])
        rng = np.random.default_rng(41)
        for _ in range(100):
            x = rng.standard_normal(2) * 4.0
            inside = oracle.distance_to(x)
            assert rf.residual(T, inside.witness) <= 1e-12
            if inside.distance > 1e-9:
                assert rf.residual(T, x) > 0.0

    def test_dr_fixed_set_is_the_orthant_for_this_pair(self):
        # supports the bundled scenario's declared intersection oracle
        h1 = rf.HalfSpace([1.0, 0.0], 0.0)
        h2 = rf.HalfSpace([0.0, 1.0], 0.0)
        V = rf.douglas_rachford(h1, h2)
        rng = np.random.default_rng(43)
        for _ in range(200):
            x = rng.standard_normal(2) * 5.0
            if x[0] <= 0.0 and x[1] <= 0.0:
                np.testing.assert_array_equal(V(x), x)
            else:
                assert rf.residual(V, x) > 1e-12

    def test_km_limit_lands_in_the_intersection(self):
        b1 = rf.Box([0.0, 0.0], [2.0, 2.0])
        b2 = rf.Box([1.0, 0.5], [3.0, 3.0])
        b3 = rf.Box([0.5, 1.0], [2.5, 2.5])
        T = rf.compose([rf.projector(b) for b in (b1, b2, b3)])
        oracle = rf.Intersection([b1, b2, b3])
        traj = rf.km_iterate(T, [4.0, -2.0], 0.8, 80, oracle)
        assert traj.samples[-1].dist_fix <= 1e-9


class TestDistanceProperties:
    def test_projector_fix_set_distance_equals_residual(self):
        # Fix P_C = C, so d(x, Fix) and ||x - P x|| agree to 1e-12
        for set_ in (rf.Box([0.0, 0.0], [1.0, 1.0]), rf.Ball([1.0, 1.0], 2.0),
                     rf.HalfSpace([1.0, 1.0], 0.5)):
            P = rf.projector(set_)
            oracle = rf.ExactSet(set_)
            xs, _ = pairs_in_ball(200, 2, seed=31)
            for x in xs:
                assert abs(oracle.distance_to(x).distance - rf.residual(P, x)) <= 1e-12

    def test_distance_function_is_nonexpansive(self):
        oracles = [
            rf.ExactSet(rf.Ball([0.0, 1.0], 1.0)),
            rf.SinglePoint([2.0, -1.0]),
            rf.Intersection([rf.HalfSpace([1.0, 0.0], 0.0),
                             rf.HalfSpace([0.0, 1.0], 0.0)]),
        ]
        xs, ys = pairs_in_ball(200, 2, seed=33)
        for oracle in oracles:
            for x, y in zip(xs, ys):
                dx = oracle.distance_to(x).distance
                dy = oracle.distance_to(y).distance
                assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-10

    def test_deterministic_queries(self):
        oracle = rf.Intersection([rf.Box([0.0, 0.0], [2.0, 2.0]),
                                  rf.Box([1.0, 0.5], [3.0, 3.0])])
        x = np.array([4.0, -1.0])
        r1, r2 = oracle.distance_to(x), oracle.distance_to(x)
        assert r1.distance == r2.distance
        np.testing.assert_array_equal(r1.witness, r2.witness)
