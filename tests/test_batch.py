"""The array contract: sets, operators and Fix-set oracles take a point (d,) or
a batch (n, d), and a batch evaluates exactly as its rows one at a time."""

import numpy as np
import pytest

import regflow as rf
from conftest import SIN60, pairs_in_ball
from regflow.scenarios import BUNDLED, certificate_operators, load_scenario


def batch_points(dim, seed=0):
    xs, ys = pairs_in_ball(60, dim, radius=4.0, seed=seed)
    return np.vstack([xs, ys])


def assert_operator_rowwise(op, pts):
    batch = op(pts)
    assert batch.shape == pts.shape
    np.testing.assert_array_equal(batch, [op(x) for x in pts])
    res = rf.residual(op, pts)
    single = [rf.residual(op, x) for x in pts]
    assert all(isinstance(r, float) for r in single)
    np.testing.assert_array_equal(res, single)


def assert_oracle_rowwise(oracle, pts):
    batch = oracle.distance_to(pts)
    single = [oracle.distance_to(x) for x in pts]
    for r in single:
        assert isinstance(r.distance, float) and isinstance(r.certified_tol, float)
        assert r.witness.shape == (pts.shape[1],)
    assert batch.witness.shape == pts.shape
    np.testing.assert_array_equal(batch.distance, [r.distance for r in single])
    np.testing.assert_array_equal(batch.witness, [r.witness for r in single])
    np.testing.assert_array_equal(batch.certified_tol, [r.certified_tol for r in single])


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_batch_equals_rows(name):
    sc = load_scenario(name)
    pts = batch_points(sc.dim)
    assert_operator_rowwise(sc.operator, pts)
    assert_oracle_rowwise(sc.oracle, pts)


@pytest.mark.parametrize("index", range(len(certificate_operators())))
def test_certificate_operator_batch_equals_rows(index):
    op, oracle = certificate_operators()[index]
    pts = batch_points(op.dim, seed=index)
    assert_operator_rowwise(op, pts)
    if oracle is not None:
        assert_oracle_rowwise(oracle, pts)


@pytest.mark.parametrize("set_", [
    rf.HalfSpace([1.0, 1.0], 2.0),
    rf.Hyperplane([0.0, 1.0], 0.0),
    rf.AffineSubspace(np.array([[1.0], [1.0]]), [0.5, -0.5]),
    rf.AffineSubspace(np.zeros((2, 0)), [0.3, 0.7]),
    rf.Box([0.0, 0.0], [1.0, 1.0]),
    rf.Ball([0.0, 1.0], 1.0),
], ids=lambda s: s.describe())
def test_set_batch_equals_rows(set_):
    pts = batch_points(set_.dim, seed=4)
    np.testing.assert_array_equal(set_.project(pts), [set_.project(x) for x in pts])
    np.testing.assert_array_equal(set_.distance(pts), [set_.distance(x) for x in pts])
    np.testing.assert_array_equal(set_.contains(pts), [set_.contains(x) for x in pts])


def test_nested_operator_tree_validates_once(monkeypatch):
    import regflow.operators
    import regflow.sets
    import regflow.validation

    calls = []
    real = regflow.validation.as_point

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(regflow.operators, "as_point", counting)
    monkeypatch.setattr(regflow.sets, "as_point", counting)
    h1, h2 = rf.HalfSpace([1.0, 0.0], 0.0), rf.HalfSpace([0.0, 1.0], 0.0)
    inner = rf.compose([rf.projector(h1), rf.reflect(rf.Ball([0.0, 0.0], 1.0))])
    T = rf.relax(rf.convex_combination([inner, rf.douglas_rachford(h1, h2)], [0.5, 0.5]),
                 0.5)
    T(batch_points(2))
    assert len(calls) == 1


def test_batch_input_is_validated():
    op = rf.compose([rf.projector(rf.Box([0.0, 0.0], [1.0, 1.0])), rf.identity(2)])
    with pytest.raises(rf.UsageError):
        op(np.zeros((3, 3)))
    with pytest.raises(rf.UsageError):
        op([[0.0, 1.0], [np.nan, 0.0]])
    with pytest.raises(rf.UsageError):
        op(np.zeros((2, 2, 2)))


class TestDykstraBatch:
    # two half-spaces meeting at a narrow angle: points in the polar cone need
    # hundreds of cycles, points violating one constraint need two
    ANGLE = 0.2

    def sets(self):
        return [rf.HalfSpace([0.0, 1.0], 0.0),
                rf.HalfSpace([-np.sin(self.ANGLE), -np.cos(self.ANGLE)], 0.0)]

    def cycles_needed(self, x):
        """Smallest max_iter that lets ``x`` alone converge (bisection)."""
        lo, hi = 0, 4096  # lo fails, hi converges
        rf.dykstra_project(self.sets(), x, max_iter=hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                rf.dykstra_project(self.sets(), x, max_iter=mid)
                hi = mid
            except rf.ConvergenceError:
                lo = mid
        return hi

    PTS = np.array([[1.0, -0.5], [-1.0, 0.0], [1.0, 1.0], [-2.0, 3.0]])

    @pytest.fixture(scope="class")
    def cycles(self):
        return [self.cycles_needed(x) for x in self.PTS]

    def test_rows_converging_after_different_cycle_counts(self, cycles):
        assert cycles[0] < 10 and cycles[2] < 10
        assert 100 < cycles[1] < cycles[3]
        batch = rf.dykstra_project(self.sets(), self.PTS)
        single = [rf.dykstra_project(self.sets(), x) for x in self.PTS]
        np.testing.assert_array_equal(batch.witness, [r.witness for r in single])
        np.testing.assert_array_equal(batch.distance, [r.distance for r in single])
        np.testing.assert_array_equal(batch.certified_tol,
                                      [r.certified_tol for r in single])

    def test_error_names_the_row_that_exhausts_max_iter(self, cycles):
        budget = cycles[1]  # enough for every row but the last
        assert cycles[3] > budget
        with pytest.raises(rf.ConvergenceError) as exc:
            rf.dykstra_project(self.sets(), self.PTS, max_iter=budget)
        assert "at row 3" in str(exc.value)
        best = exc.value.result
        assert best.witness.shape == self.PTS.shape
        for i in range(3):
            np.testing.assert_array_equal(
                best.witness[i], rf.dykstra_project(self.sets(), self.PTS[i]).witness)


class TestAffineDispatch:
    def test_hyperplane_subclass_inside_intersection(self):
        class Line(rf.Hyperplane):
            pass

        other = rf.Hyperplane([-SIN60, 0.5], 0.0)
        oracle = rf.Intersection([Line([0.0, 1.0], 0.0), other])
        reference = rf.Intersection([rf.Hyperplane([0.0, 1.0], 0.0), other])
        pts = batch_points(2, seed=9)
        got, want = oracle.distance_to(pts), reference.distance_to(pts)
        np.testing.assert_array_equal(got.witness, want.witness)
        np.testing.assert_array_equal(got.distance, want.distance)

    def test_function_form_matches_intersection(self):
        sets = [rf.Hyperplane([1.0, 2.0], 1.0),
                rf.AffineSubspace(np.array([[1.0], [0.5]]), [1.0, 0.0])]
        pts = batch_points(2, seed=10)
        got = rf.affine_intersection_project(sets, pts)
        want = rf.Intersection(sets).distance_to(pts)
        np.testing.assert_array_equal(got.witness, want.witness)
        assert isinstance(rf.affine_intersection_project(sets, pts[0]).distance, float)
