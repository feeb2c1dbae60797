import numpy as np
import pytest

import regflow as rf
from conftest import pairs_in_ball


def all_variants():
    return [
        rf.HalfSpace([1.0, 1.0], 2.0),
        rf.Hyperplane([0.0, 1.0], 0.0),
        rf.AffineSubspace(np.array([[1.0], [1.0]]), [0.5, -0.5]),
        rf.AffineSubspace(np.zeros((2, 0)), [0.3, 0.7]),
        rf.Box([0.0, 0.0], [1.0, 1.0]),
        rf.Ball([0.0, 1.0], 1.0),
    ]


class TestProjectExamples:
    def test_halfspace_point_already_inside(self):
        hs = rf.HalfSpace([1.0, 0.0], 0.0)
        np.testing.assert_array_equal(rf.project(hs, [-1.0, 2.0]), [-1.0, 2.0])

    def test_halfspace_outside_against_grid_search(self):
        # independent oracle: dense search over feasible points, then the
        # analytic formula x - ((<a,x>-b)/||a||^2) a
        hs = rf.HalfSpace([1.0, 1.0], 2.0)
        x = np.array([3.0, 3.0])
        grid = np.linspace(-4.0, 4.0, 801)
        cands = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        feas = cands[cands @ np.array([1.0, 1.0]) <= 2.0 + 1e-12]
        best = feas[np.argmin(np.linalg.norm(feas - x, axis=1))]
        p = rf.project(hs, x)
        assert np.linalg.norm(p - best) < 2e-2  # grid resolution 1e-2
        np.testing.assert_allclose(p, x - ((x @ [1, 1] - 2.0) / 2.0) * np.array([1.0, 1.0]))
        np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-12)

    def test_ball_radial(self):
        ball = rf.Ball([0.0, 1.0], 1.0)
        np.testing.assert_allclose(rf.project(ball, [0.0, 3.0]), [0.0, 2.0])

    def test_ball_huge_point_projects_to_the_sphere(self):
        # ||x - c||^2 overflows although x is finite; was the centre and a RuntimeWarning
        ball = rf.Ball([0.0, 0.0], 1.0)
        with np.errstate(all="raise"):
            p = ball.project([1e200, 1e200])
        np.testing.assert_allclose(p, [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)

    def test_ball_huge_row_beside_ordinary_rows(self):
        ball = rf.Ball([0.5, -1.0], 2.0)
        rows = np.array([[3.0, 4.0], [1e200, -1e200], [0.1, 0.2], [-7.0, 1e-3],
                         [1e300, 1.0]])
        with np.errstate(all="raise"):
            batch = ball.project(rows)
            singles = [ball.project(r) for r in rows]
        for row, single in zip(batch, singles):
            np.testing.assert_array_equal(row, single)
        np.testing.assert_allclose(batch[1], [0.5 + np.sqrt(2.0), -1.0 - np.sqrt(2.0)],
                                   rtol=1e-15)
        np.testing.assert_allclose(batch[4], [2.5, -1.0], rtol=1e-15)
        with np.errstate(over="ignore", under="ignore"):
            ordinary = [ball.center + 2.0 * (r - ball.center) / np.linalg.norm(r - ball.center)
                        for r in rows[[0, 3]]]
        np.testing.assert_array_equal(batch[[0, 3]], ordinary)
        np.testing.assert_array_equal(batch[2], rows[2])

    def test_ball_projects_when_the_difference_itself_overflows(self):
        # x - center overflows on finite inputs; was [nan, 0] and a RuntimeWarning
        ball = rf.Ball([-1e308, 0.0], 1.0)
        with np.errstate(all="raise"):
            p = ball.project([1e308, 0.0])
        np.testing.assert_array_equal(p, [-1e308 + 1.0, 0.0])

    def test_ball_overflowing_difference_beside_ordinary_rows(self):
        ball = rf.Ball([-1e308, 0.0], 1.0)
        rows = np.array([[1e308, 1e308], [-1e308, 0.5], [-1e308 + 3.0, 4.0],
                         [1e308, 0.0], [-1e308, -3.0]])
        with np.errstate(all="raise"):
            batch = ball.project(rows)
            singles = [ball.project(r) for r in rows]
        for row, single in zip(batch, singles):
            np.testing.assert_array_equal(row, single)
        # the direction of x - center is (2, 1) and (1, 0)
        np.testing.assert_allclose(batch[0], [-1e308, np.sqrt(0.2)], rtol=1e-15)
        np.testing.assert_array_equal(batch[3], [-1e308, 0.0])
        np.testing.assert_array_equal(batch[1], rows[1])
        d = rows[[2, 4]] - ball.center
        ordinary = ball.center + d / np.linalg.norm(d, axis=1)[:, None]
        np.testing.assert_array_equal(batch[[2, 4]], ordinary)

    def test_box_clip(self):
        box = rf.Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(rf.project(box, [2.0, -1.0]), [1.0, 0.0])

    def test_hyperplane_mirror_base(self):
        hp = rf.Hyperplane([0.0, 1.0], 0.0)
        np.testing.assert_allclose(rf.project(hp, [1.0, 2.0]), [1.0, 0.0])

    def test_affine_line_45deg(self):
        line = rf.AffineSubspace(np.array([[1.0], [1.0]]), [0.0, 0.0])
        np.testing.assert_allclose(rf.project(line, [0.0, 2.0]), [1.0, 1.0])


class TestProjectorProperties:
    @pytest.mark.parametrize("set_", all_variants(), ids=lambda s: s.describe())
    def test_idempotent(self, set_):
        xs, _ = pairs_in_ball(200, set_.dim, seed=3)
        for x in xs:
            p = set_.project(x)
            assert np.linalg.norm(set_.project(p) - p) <= 1e-12

    @pytest.mark.parametrize("set_", all_variants(), ids=lambda s: s.describe())
    def test_firmly_nonexpansive(self, set_):
        xs, ys = pairs_in_ball(500, set_.dim, seed=5)
        for x, y in zip(xs, ys):
            px, py = set_.project(x), set_.project(y)
            lhs = np.linalg.norm(px - py) ** 2
            rhs = float((px - py) @ (x - y))
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("set_", all_variants(), ids=lambda s: s.describe())
    def test_projection_minimizes_distance(self, set_):
        # nearest-point property against random feasible competitors
        rng = np.random.default_rng(11)
        xs, _ = pairs_in_ball(50, set_.dim, seed=7)
        for x in xs:
            p = set_.project(x)
            d = np.linalg.norm(x - p)
            for _ in range(20):
                z = set_.project(rng.standard_normal(set_.dim) * 5.0)
                assert d <= np.linalg.norm(x - z) + 1e-10

    def test_membership_after_projection(self):
        for set_ in all_variants():
            xs, _ = pairs_in_ball(100, set_.dim, seed=13)
            for x in xs:
                assert set_.distance(set_.project(x)) <= 1e-12


class TestConstructionErrors:
    def test_zero_normal_rejected(self):
        with pytest.raises(rf.ConstructionError):
            rf.HalfSpace([0.0, 0.0], 1.0)
        with pytest.raises(rf.ConstructionError):
            rf.Hyperplane([0.0, 0.0], 0.0)

    @pytest.mark.parametrize("normal", [[1e200, 0.0], [1e-200, 0.0], [1e155, 1e155]])
    def test_normal_with_squared_norm_outside_float_range_rejected(self, normal):
        # ||a||^2 overflows or underflows: projections would pass points through
        # unchanged or return NaN; the check itself emits no RuntimeWarning
        with np.errstate(all="raise"):
            for cls in (rf.HalfSpace, rf.Hyperplane):
                with pytest.raises(rf.ConstructionError, match="squared norm"):
                    cls(normal, 0.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(rf.ConstructionError):
            rf.Ball([0.0, 0.0], 0.0)
        with pytest.raises(rf.ConstructionError):
            rf.Ball([0.0, 0.0], -1.0)

    def test_inverted_box_rejected(self):
        with pytest.raises(rf.ConstructionError):
            rf.Box([1.0, 0.0], [0.0, 1.0])

    def test_dimension_mismatch_is_usage_error(self):
        hs = rf.HalfSpace([1.0, 0.0], 0.0)
        with pytest.raises(rf.UsageError):
            hs.project([1.0, 2.0, 3.0])

    def test_nonfinite_point_rejected(self):
        hs = rf.HalfSpace([1.0, 0.0], 0.0)
        with pytest.raises(rf.UsageError):
            hs.project([np.nan, 0.0])


def test_affine_rank_deficient_basis():
    # duplicated columns collapse to a single direction
    sub = rf.AffineSubspace(np.array([[1.0, 2.0], [1.0, 2.0]]), [0.0, 0.0])
    assert sub.rank == 1
    np.testing.assert_allclose(sub.project([0.0, 2.0]), [1.0, 1.0])
