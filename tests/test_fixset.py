import time
from functools import reduce

import numpy as np
import pytest

import regflow as rf
from conftest import pairs_in_ball
from regflow.flow import MAX_STEPS
from regflow.scenarios import BUNDLED, certificate_operators, load_scenario
from regflow.sets import row_norm


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

    def test_single_point_witness_is_a_fresh_copy_with_zero_certificate(self):
        oracle = rf.SinglePoint([1.0, 1.0])
        r = oracle.distance_to([4.0, 5.0])
        assert type(r.certified_tol) is float and r.certified_tol == 0.0
        assert r.witness.tolist() == [1.0, 1.0] and r.witness is not oracle.point
        r.witness[0] = 7.0
        batch = oracle.distance_to([[4.0, 5.0], [1.0, 1.0], [1.0, 2.0]])
        assert batch.certified_tol.dtype == float and batch.certified_tol.shape == (3,)
        assert not batch.certified_tol.any() and not np.signbit(batch.certified_tol).any()
        assert batch.witness.tolist() == [[1.0, 1.0]] * 3
        assert batch.distance.tolist() == [5.0, 0.0, 1.0]

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


EMPTY_BATCH_ORACLES = {
    "dykstra": lambda: rf.Intersection([rf.HalfSpace([1.0, 0.0], 0.0),
                                        rf.Ball([0.0, 1.0], 1.0)]),
    "affine": lambda: rf.Intersection([rf.Hyperplane([1.0, 0.0], 0.0),
                                       rf.Hyperplane([0.0, 1.0], 0.0)]),
    "box": lambda: rf.Intersection([rf.Box([0.0, 0.0], [2.0, 2.0]),
                                    rf.Box([1.0, 0.5], [3.0, 3.0])]),
    "exact": lambda: rf.ExactSet(rf.Ball([0.0, 1.0], 1.0)),
    "point": lambda: rf.SinglePoint([1.0, 2.0]),
}


@pytest.mark.parametrize("kind", EMPTY_BATCH_ORACLES)
def test_empty_batch_returns_empty_fields(kind, monkeypatch):
    oracle = EMPTY_BATCH_ORACLES[kind]()
    projections = 0
    if kind == "dykstra":  # no rows cycle, so no set is projected onto at all
        for s in oracle.sets:
            def counted(x, project=s._project):
                nonlocal projections
                projections += 1
                return project(x)
            monkeypatch.setattr(s, "_project", counted)
    r = oracle.distance_to(np.empty((0, 2)))
    assert np.shape(r.distance) == (0,) and np.shape(r.certified_tol) == (0,)
    assert r.witness.shape == (0, 2)
    assert projections == 0


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
        assert traj.metric("dist_fix")[-1] <= 1e-9


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

    def test_exact_query_rejects_a_witness_out_of_float_range(self):
        # <a, x> overflows: the projection of a finite point is [-inf, nan], and
        # neither a distance nor a certificate is returned for it
        oracle = rf.ExactSet(rf.HalfSpace([1e150, 0.0], 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            for x in ([1e200, 1.0], [[1.0, 1.0], [1e200, 1.0]]):
                with pytest.raises(rf.UsageError, match="must be finite"):
                    oracle.distance_to(x)

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


def eager_dykstra(sets, x, tol, max_iter):
    """Dykstra with the eager stopping rule: every cycle measures every row's
    violation, then stops the rows whose movement and violation are below tol."""
    x = np.asarray(x, dtype=float)
    z = np.atleast_2d(x)
    out, rows = z.copy(), np.arange(z.shape[0])
    increments = np.zeros((len(sets),) + z.shape)
    for _ in range(max_iter):
        if not rows.size:
            break
        z_prev = z
        for i, s in enumerate(sets):
            shifted = z + increments[i]
            z = s._project(shifted)
            increments[i] = shifted - z
        violation = reduce(np.maximum, (row_norm(z - s._project(z)) for s in sets))
        done = (row_norm(z - z_prev) < tol) & (violation < tol)
        if done.any():
            out[rows[done]] = z[done]
            rows, z, increments = rows[~done], z[~done], increments[:, ~done]
    else:
        out[rows] = z
    witness = out if x.ndim == 2 else out[0]
    violation = reduce(np.maximum, (s.distance(witness) for s in sets))
    result = rf.DistanceResult(row_norm(x - witness), witness, violation)
    if rows.size:
        raise rf.ConvergenceError(
            f"Dykstra did not meet tol={tol:g} within {max_iter} cycles at row "
            f"{rows[0]} (violation {np.atleast_1d(violation)[rows[0]]:.3e})",
            result=result)
    return result


def dykstra_outcome(project, sets, x, tol, max_iter):
    try:
        return project(sets, x, tol=tol, max_iter=max_iter), None
    except rf.ConvergenceError as exc:
        return exc.result, str(exc)


def bundled_dykstra_intersections():
    oracles = [load_scenario(name).oracle for name in BUNDLED]
    oracles += [oracle for _, oracle in certificate_operators()]
    return [o for o in oracles if isinstance(o, rf.Intersection) and o._affine is None]


class TestDykstraLazyViolation:
    """The violation is measured only on rows that stopped moving; the rows that
    stop, their witnesses and the failures equal the eager rule's, bit for bit."""

    def assert_same_as_eager(self, sets, x, tol, max_iter):
        got, got_msg = dykstra_outcome(rf.dykstra_project, sets, x, tol, max_iter)
        want, want_msg = dykstra_outcome(eager_dykstra, sets, x, tol, max_iter)
        assert got_msg == want_msg
        np.testing.assert_array_equal(got.witness, want.witness)
        np.testing.assert_array_equal(got.distance, want.distance)
        np.testing.assert_array_equal(got.certified_tol, want.certified_tol)

    def test_bundled_intersections_on_a_10k_batch(self):
        oracles = bundled_dykstra_intersections()
        assert len(oracles) >= 3
        for k, oracle in enumerate(oracles):
            pts = rf.sample_region(rf.Region(np.zeros(oracle.dim), 10.0), 10_000, k)
            self.assert_same_as_eager(oracle.sets, pts, oracle.tol, oracle.max_iter)
            self.assert_same_as_eager(oracle.sets, pts[0], oracle.tol, oracle.max_iter)

    @pytest.mark.parametrize("max_iter", [1, 2, 30, 300])
    def test_convergence_errors_match(self, max_iter):
        # ball tangent to a line: rows inside the ball settle at once, the others crawl
        sets = [rf.Ball([0.0, 1.0], 1.0), rf.Hyperplane([0.0, 1.0], 0.0)]
        pts = rf.sample_region(rf.Region(np.zeros(2), 4.0), 300, 4)
        self.assert_same_as_eager(sets, pts, 1e-12, max_iter)
        for oracle in bundled_dykstra_intersections():
            self.assert_same_as_eager(oracle.sets, pts[:50], oracle.tol, max_iter)
        self.assert_same_as_eager(sets, [1.0, 0.5], 1e-300, max_iter)
        # disjoint parallel lines: rows stop moving while the violation stays 1
        parallel = [rf.Hyperplane([0.0, 1.0], 0.0), rf.Hyperplane([0.0, 1.0], 1.0)]
        self.assert_same_as_eager(parallel, pts[:50], 1e-12, max_iter)

    def test_one_kernel_call_per_set_while_rows_move(self, monkeypatch):
        sets = [rf.Ball([0.0, 1.0], 1.0), rf.Hyperplane([0.0, 1.0], 0.0)]
        calls = []
        for s in sets:
            kernel = s._project
            monkeypatch.setattr(s, "_project",
                                lambda z, kernel=kernel: calls.append(1) or kernel(z))
        with pytest.raises(rf.ConvergenceError):
            rf.dykstra_project(sets, [[1.0, 0.5], [2.0, 3.0]], tol=1e-300, max_iter=50)
        # 50 cycles of one projection per set, then the witness's violation
        assert len(calls) == len(sets) * 50 + len(sets)


class TestDykstraStopTest:
    """A row's certificate is the violation measured when it stops: a query that
    converges after k cycles on m sets makes k*m cycle projections and one
    stop-test pass of m projections, and no final pass."""

    @staticmethod
    def cycles_to_converge(sets, x, tol):
        for k in range(1, 1000):
            try:
                rf.dykstra_project(sets, x, tol=tol, max_iter=k)
            except rf.ConvergenceError:
                continue
            return k
        raise AssertionError("no convergence within 1000 cycles")

    @pytest.mark.parametrize("case", ["orthogonal_lines", "three_boxes", "dr_halfspaces"])
    def test_kernel_calls_per_converged_query(self, case, monkeypatch):
        if case == "orthogonal_lines":
            sets, tol = [rf.Hyperplane([0.0, 1.0], 0.0), rf.Hyperplane([1.0, 0.0], 0.0)], 1e-12
            x = [1.0, 1.0]
        else:
            oracle = load_scenario("cyclic_three_boxes" if case == "three_boxes"
                                   else "dr_two_halfspaces").oracle
            sets, tol, x = oracle.sets, oracle.tol, [3.0, -2.0]
        k = self.cycles_to_converge(sets, x, tol)
        m = len(sets)
        # count the kernel that runs: a point cycles on the row kernel, a two-row
        # batch on numpy's (its rows are equal, so both stop after k cycles)
        for name, query in (("_row_project", x), ("_project", [x, x])):
            calls = []
            with monkeypatch.context() as patch:
                for s in sets:
                    kernel = getattr(s, name)
                    patch.setattr(s, name,
                                  lambda z, kernel=kernel: calls.append(1) or kernel(z))
                result = rf.dykstra_project(sets, query, tol=tol, max_iter=1000)
            assert len(calls) == k * m + m
            assert np.all(result.certified_tol < tol)
            np.testing.assert_array_equal(
                result.certified_tol, np.max([s.distance(result.witness) for s in sets], axis=0))


class TestOracleOverflow:
    """A finite distance whose squares overflow is finite and raises no warning,
    on the point, affine and Dykstra oracles alike; other rows keep their bits."""

    @staticmethod
    def oracles():
        return [rf.SinglePoint([0.0, 0.0]),
                rf.Intersection([rf.Hyperplane([1.0, 0.0], 0.0),
                                 rf.Hyperplane([0.0, 1.0], 0.0)]),
                rf.Intersection([rf.Box([-1.0, -1.0], [1.0, 1.0]),
                                 rf.Ball([0.0, 0.0], 1.0)])]

    @pytest.mark.parametrize("index", range(3))
    def test_point_far_beyond_the_squares_range(self, index):
        oracle = self.oracles()[index]
        with np.errstate(all="raise"):
            r = oracle.distance_to([1e200, 0.0])
        assert r.distance == 1e200 and r.certified_tol <= 1e-12
        assert np.isfinite(r.witness).all()

    @pytest.mark.parametrize("index", range(3))
    def test_ordinary_rows_keep_their_bits(self, index):
        oracle = self.oracles()[index]
        rows = np.array([[3.0, 4.0], [1e200, 0.0], [0.3, -7e-3], [-2.0, 1e-5]])
        with np.errstate(all="raise"):
            batch = oracle.distance_to(rows)
        assert batch.distance[1] == 1e200
        ordinary = [0, 2, 3]
        np.testing.assert_array_equal(batch.distance[ordinary],
                                      row_norm(rows[ordinary] - batch.witness[ordinary]))
        for i in ordinary:
            np.testing.assert_array_equal(batch.witness[i], oracle.distance_to(rows[i]).witness)


class TestBoxIntersection:
    """Boxes intersect in one box: the oracle answers with one clip, and its
    distance, witness and certificate are Dykstra's, bit for bit."""

    @staticmethod
    def random_boxes(rng):
        """1-5 boxes in R^1..R^6 around a common point, so never empty: some share a
        lower bound or sit an ulp from it, some are flat, some bounds are +0 or -0, and the
        scale is 1, 1e-300 or 1e150."""
        d, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        scale = rng.choice([1.0, 1e-300, 1e150])
        centre = np.where(rng.random(d) < 0.3, 0.0, rng.standard_normal(d) * scale)
        lower = centre - np.abs(rng.standard_normal((m, d))) * scale
        upper = centre + np.abs(rng.standard_normal((m, d))) * scale
        shared = rng.random((m, d)) < 0.3
        near = np.nextafter(lower[0], rng.choice([-np.inf, np.inf], d))
        lower = np.where(shared, np.where(rng.random((m, d)) < 0.5, lower[0], near), lower)
        lower = np.minimum(lower, centre)
        flat = rng.random((m, d)) < 0.15
        lower, upper = np.where(flat, centre, lower), np.where(flat, centre, upper)
        zero = rng.random((m, d)) < 0.1
        signed = rng.choice([-0.0, 0.0], (2, m, d))
        lower = np.where(zero & (centre == 0.0), signed[0], lower)
        upper = np.where(zero & (centre == 0.0), signed[1], upper)
        return [rf.Box(lo, hi) for lo, hi in zip(lower, upper)]

    @staticmethod
    def queries(rng, boxes):
        """Rows far and near at the boxes' scale, rows on their bounds, signed zeros."""
        d = boxes[0].dim
        scale = max(max(np.abs(b.lower).max(), np.abs(b.upper).max()) for b in boxes)
        bounds = np.concatenate([[-0.0, 0.0]] + [np.r_[b.lower, b.upper] for b in boxes])
        return np.concatenate([rng.standard_normal((20, d)) * 3.0 * max(scale, 1e-300),
                               rng.choice(bounds, (20, d))])

    def test_equals_dykstra_bit_for_bit(self):
        rng = np.random.default_rng(1515)
        for _ in range(300):
            boxes = self.random_boxes(rng)
            oracle = rf.Intersection(boxes)
            assert oracle._affine is None  # box collections stay among the Dykstra-backed
            pts = self.queries(rng, boxes)
            bounds = np.concatenate([np.r_[b.lower, b.upper] for b in boxes])
            # Dykstra's arithmetic decides the sign of a zero taken from a -0.0 bound
            negative_zero = bool(np.any((bounds == 0.0) & np.signbit(bounds)))
            for x in (pts, pts[0], pts[-1]):
                got = oracle.distance_to(x)
                want = rf.dykstra_project(boxes, x, oracle.tol, oracle.max_iter)
                assert type(got.distance) is type(want.distance)
                assert type(got.certified_tol) is type(want.certified_tol)
                assert np.asarray(got.distance).tobytes() == np.asarray(want.distance).tobytes()
                assert (np.asarray(got.certified_tol).tobytes()
                        == np.asarray(want.certified_tol).tobytes())
                assert got.witness.shape == want.witness.shape
                if negative_zero:
                    np.testing.assert_array_equal(got.witness, want.witness)
                else:
                    assert got.witness.tobytes() == want.witness.tobytes()

    def test_never_runs_dykstra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dykstra_project called on a box intersection")

        monkeypatch.setattr(rf.fixset, "dykstra_project", refuse)
        oracles = [load_scenario("cyclic_three_boxes").oracle,
                   rf.Intersection([rf.Box([0.0, 0.0], [2.0, 2.0]),
                                    rf.Box([1.0, 0.5], [3.0, 3.0])])]
        for oracle in oracles:
            single = oracle.distance_to([4.0, -1.0])
            batch = oracle.distance_to([[4.0, -1.0], [1.5, 1.5], [-3.0, 9.0]])
            np.testing.assert_array_equal(single.witness, batch.witness[0])
            assert single.certified_tol == 0.0

    def test_empty_intersection_names_the_coordinate_at_once(self):
        boxes = [rf.Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
                 rf.Box([0.5, np.nextafter(1.0, 2.0), 3.0], [2.0, 2.0, 4.0])]
        start = time.perf_counter()
        with pytest.raises(rf.ConstructionError,
                           match=r"coordinate 1 the largest lower bound "
                                 r"1\.0000000000000002 exceeds the smallest upper bound 1\.0"):
            rf.Intersection(boxes)
        assert time.perf_counter() - start < 0.5
        # the tolerance checks come first and keep their messages
        with pytest.raises(rf.ConstructionError, match="tol must be positive"):
            rf.Intersection(boxes, tol=0.0)
        with pytest.raises(rf.ConstructionError, match="max_iter must be at least 1"):
            rf.Intersection(boxes, max_iter=0)


class TestDykstraNonFinite:
    """An iterate that leaves the float range stops the query in the cycle where
    its movement turns nan, not after max_iter cycles."""

    # <a, x> overflows: the half-space projection of this row is [-inf, nan]
    SETS = (rf.HalfSpace([1e150, 0.0], 0.0), rf.Box([-1.0, -1.0], [1.0, 1.0]))

    @pytest.mark.parametrize("x, row", [([1e200, 1.0], 0),
                                        ([[0.5, 0.5], [3.0, 3.0], [1e200, 1.0]], 2)])
    def test_rejected_at_once_even_at_the_largest_max_iter(self, x, row):
        start = time.perf_counter()
        with np.errstate(invalid="ignore"), pytest.raises(
                rf.UsageError, match=f"row {row} must be finite"):
            rf.dykstra_project(list(self.SETS), x, max_iter=MAX_STEPS)
        assert time.perf_counter() - start < 1.0
