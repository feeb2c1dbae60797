import csv

import numpy as np
import pytest

import regflow as rf
import regflow.flow as flow_mod
from regflow.scenarios import BUNDLED, load_scenario


class TestSchedules:
    def test_constant_infima(self):
        s = rf.Constant(0.25)
        assert s.inf_value == 0.25
        assert s.inf_product == 0.25 * 0.75
        assert s(0.0) == s(17.3) == 0.25

    @pytest.mark.parametrize("v", [0.0, 5e-324, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7,
                                   np.nextafter(1.0, 0.0), 1.0, 1])
    def test_constant_is_one_piece(self, v):
        # pins the values, infima, breakpoints and alignment a constant had as a
        # class of its own
        s = rf.Constant(v)
        value = float(v)
        assert s.value == value and type(s.value) is float
        for t in (0.0, 0.5, 7, 1e12, -1.0):
            lam = s(t)
            assert type(lam) is np.float64 and lam.tobytes() == np.float64(value).tobytes()
        for ts in (np.linspace(0.0, 9.0, 10), np.zeros((2, 3)), np.array([]), [0.0, 3.5]):
            lam = s(ts)
            assert lam.dtype == float and lam.shape == np.shape(ts)
            assert lam.tobytes() == np.full(np.shape(ts), value).tobytes()
        assert s.inf_value == value and type(s.inf_value) is float
        assert s.inf_product == value * (1.0 - value) and type(s.inf_product) is float
        assert s.breakpoints(10.0) == [] and s.breakpoints(0.5) == []
        assert s.is_unit_aligned() is True

    @pytest.mark.parametrize("v", [-0.1, 1.5, np.nan, np.inf])
    def test_constant_out_of_range_message(self, v):
        with pytest.raises(rf.UsageError, match=r"^lambda must lie in \[0,1\], got "):
            rf.Constant(v)

    def test_piecewise_lookup_and_infima(self):
        s = rf.PiecewiseConstant([0.0, 2.0, 5.0], [1.0, 0.25, 0.5])
        assert s(0.0) == 1.0 and s(1.99) == 1.0
        assert s(2.0) == 0.25 and s(4.0) == 0.25
        assert s(5.0) == 0.5 and s(100.0) == 0.5
        assert s.inf_value == 0.25
        assert s.inf_product == min(0.0, 0.25 * 0.75, 0.25)  # value 1.0 gives 0

    def test_piecewise_validation(self):
        with pytest.raises(rf.UsageError):
            rf.PiecewiseConstant([1.0, 2.0], [0.5, 0.5])   # must start at 0
        with pytest.raises(rf.UsageError):
            rf.PiecewiseConstant([0.0, 0.0], [0.5, 0.5])   # strictly increasing
        with pytest.raises(rf.UsageError):
            rf.PiecewiseConstant([0.0, 1.0], [0.5, 1.5])   # range

    def test_sinusoid_unclipped_infima(self):
        s = rf.Sinusoid(0.75, 0.2, 1.0)
        assert s.inf_value == pytest.approx(0.55)
        assert s.inf_product == pytest.approx(min(0.55 * 0.45, 0.95 * 0.05))
        ts = np.linspace(0.0, 20.0, 4001)
        vals = np.array([s(t) for t in ts])
        assert vals.min() >= s.inf_value - 1e-12
        assert (vals * (1 - vals)).min() >= s.inf_product - 1e-12

    def test_sinusoid_clipped_infima(self):
        s = rf.Sinusoid(0.5, 1.0, 2.0)  # clips at both ends
        assert s.inf_value == 0.0
        assert s.inf_product == 0.0
        assert 0.0 <= s(1.3) <= 1.0

    @pytest.mark.parametrize("sched", [
        rf.Constant(0.25),
        rf.PiecewiseConstant([0.0, 2.0, 5.0], [1.0, 0.25, 0.5]),
        rf.Sinusoid(0.75, 0.2, 1.0),   # never clipped
        rf.Sinusoid(0.5, 1.0, 2.0),    # clipped at both ends
    ], ids=["constant", "piecewise", "sinusoid", "sinusoid_clipped"])
    def test_array_call_matches_scalar_calls(self, sched):
        # t = 0, just before, exactly at and beyond each breakpoint, and a dense grid
        ts = np.concatenate([[0.0, np.nextafter(2.0, 0.0), 2.0, 5.0, 5.5, 100.0],
                             np.linspace(0.0, 20.0, 401)])
        lam = sched(ts)
        assert lam.shape == ts.shape
        assert np.array_equal(lam, [sched(float(t)) for t in ts])
        assert np.array_equal(sched(ts[:, None]), lam[:, None])
        if isinstance(sched, rf.Sinusoid):
            clipped = sched.offset + abs(sched.amplitude) > 1.0
            assert (lam.max() == 1.0 and lam.min() == 0.0) == clipped

    def test_unit_alignment(self):
        assert rf.Constant(1.0).is_unit_aligned()
        assert rf.PiecewiseConstant([0.0, 1.0, 2.0], [1, 0.5, 1]).is_unit_aligned()
        assert not rf.PiecewiseConstant([0.0, 1.5], [1, 0.5]).is_unit_aligned()
        assert not rf.Sinusoid(0.75, 0.2, 1.0).is_unit_aligned()


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(rf.UsageError):
            rf.IntegratorConfig("nope", 1.0)
        with pytest.raises(rf.UsageError):
            rf.IntegratorConfig("rk45", -1.0)
        with pytest.raises(rf.UsageError):
            rf.IntegratorConfig("euler", 1.0)  # missing h
        with pytest.raises(rf.UsageError):
            rf.IntegratorConfig("euler", 1.0, h=0.1, sample_times=(0.5,))

    def test_sample_times_sorted_in_range(self):
        with pytest.raises(rf.UsageError):
            rf.IntegratorConfig("rk45", 1.0, sample_times=(0.5, 0.25))
        with pytest.raises(rf.UsageError):
            rf.IntegratorConfig("rk45", 1.0, sample_times=(0.5, 2.0))


class TestFlowExamples:
    def test_zero_map_closed_form(self, zero_map):
        # dx/dt = -x from 1.0: x(t) = e^-t
        cfg = rf.IntegratorConfig("rk45", 1.0, rel_tol=1e-10, abs_tol=1e-13,
                                  sample_times=(1.0,))
        traj = rf.integrate_flow(zero_map, [1.0], rf.Constant(1.0), cfg)
        assert traj.samples[-1].x[0] == pytest.approx(np.exp(-1.0), abs=1e-8)
        assert traj.samples[0].t == 0.0
        np.testing.assert_array_equal(traj.samples[0].x, [1.0])  # x(0) = x0 exactly

    def test_identity_flow_frozen(self):
        I = rf.identity(2)
        cfg = rf.IntegratorConfig("rk45", 5.0, sample_times=(1.0, 5.0))
        traj = rf.integrate_flow(I, [2.0, -3.0], rf.Constant(0.7), cfg)
        for s in traj.samples:
            np.testing.assert_allclose(s.x, [2.0, -3.0], atol=1e-12)
            assert s.residual == 0.0

    def test_lambda_zero_freezes_any_operator(self, two_lines):
        cfg = rf.IntegratorConfig("rk45", 5.0, sample_times=(2.5, 5.0))
        traj = rf.integrate_flow(two_lines["op"], [3.0, 1.0], rf.Constant(0.0), cfg)
        for s in traj.samples:
            np.testing.assert_allclose(s.x, [3.0, 1.0], atol=1e-12)
            assert s.speed == 0.0

    def test_speed_is_lambda_times_residual(self, two_lines):
        cfg = rf.IntegratorConfig("rk45", 3.0, sample_times=tuple(np.linspace(0.5, 3.0, 6)))
        sched = rf.Sinusoid(0.6, 0.3, 2.0)
        traj = rf.integrate_flow(two_lines["op"], [4.0, 1.0], sched, cfg)
        for s in traj.samples:
            assert abs(s.speed - sched(s.t) * s.residual) <= 1e-12

    def test_dist_fix_populated_with_oracle(self, two_lines):
        cfg = rf.IntegratorConfig("rk45", 2.0, sample_times=(1.0, 2.0))
        traj = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0),
                                 cfg, oracle=two_lines["oracle"])
        assert all(s.dist_fix is not None for s in traj.samples)
        traj2 = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0), cfg)
        assert all(s.dist_fix is None for s in traj2.samples)


class TestKM:
    def test_zero_map_full_step(self, zero_map):
        traj = rf.km_iterate(zero_map, [5.0], 1.0, 1)
        np.testing.assert_array_equal(traj.samples[-1].x, [0.0])

    def test_zero_map_geometric_halving(self, zero_map):
        traj = rf.km_iterate(zero_map, [8.0], 0.5, 3)
        np.testing.assert_array_equal(traj.samples[-1].x, [1.0])
        np.testing.assert_array_equal(traj.samples[2].x, [2.0])

    def test_line45_axis_contraction(self):
        # hand-composed analytic projections; factor cos^2(45deg) = 1/2 per step
        line45 = rf.AffineSubspace(np.array([[1.0], [1.0]]), [0.0, 0.0])
        T = rf.compose([rf.projector(line45),
                        rf.projector(rf.Hyperplane([0.0, 1.0], 0.0))])
        traj = rf.km_iterate(T, [0.0, 2.0], 1.0, 2)
        np.testing.assert_allclose(traj.samples[1].x, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(traj.samples[2].x, [0.5, 0.0], atol=1e-14)

    def test_lambda_sequence_and_times(self, zero_map):
        traj = rf.km_iterate(zero_map, [1.0], [1.0, 0.5, 0.0], 3)
        np.testing.assert_array_equal(traj.times(), [0.0, 1.0, 2.0, 3.0])
        assert traj.mode == "discrete"
        np.testing.assert_allclose(traj.states().ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_sequence_too_short(self, zero_map):
        with pytest.raises(rf.UsageError):
            rf.km_iterate(zero_map, [1.0, 0.5], [0.5], 2)

    @pytest.mark.parametrize("bad", [[0.5, np.nan], [0.5, 1.5], [[0.5, 0.5]]])
    def test_bad_relaxation_sequence_rejected(self, zero_map, bad):
        with pytest.raises(rf.UsageError):
            rf.km_iterate(zero_map, [1.0], bad, 2)

    @pytest.mark.parametrize("K", [0, 2.5, 11, np.inf, np.nan])
    def test_step_count_within_the_work_budget(self, zero_map, monkeypatch, K):
        monkeypatch.setattr(flow_mod, "MAX_STEPS", 10)
        with pytest.raises(rf.UsageError, match="work budget"):
            rf.km_iterate(zero_map, [1.0], [0.5] * 20, K)
        assert rf.km_iterate(zero_map, [1.0], [0.5] * 20, 10.0).info["K"] == 10


class TestKMEulerEquivalence:
    def test_bit_identical_constant_schedule(self, two_lines):
        sched = rf.Constant(1.0)
        x0 = [4.0, 3.0]
        km = rf.km_iterate(two_lines["op"], x0, sched, 50, two_lines["oracle"])
        cfg = rf.IntegratorConfig("euler_unit", 50.0)
        eu = rf.integrate_flow(two_lines["op"], x0, sched, cfg, two_lines["oracle"])
        assert len(km.samples) == len(eu.samples) == 51
        for a, b in zip(km.samples, eu.samples):
            assert a.t == b.t
            np.testing.assert_array_equal(a.x, b.x)
            assert a.residual == b.residual and a.speed == b.speed
            assert a.dist_fix == b.dist_fix

    def test_bit_identical_piecewise_unit_schedule(self):
        V = rf.douglas_rachford(rf.HalfSpace([1.0, 0.0], 0.0),
                                rf.HalfSpace([0.0, 1.0], 0.0))
        vals = [1.0, 0.5, 0.75, 0.9, 0.6] * 10
        sched = rf.PiecewiseConstant(np.arange(50.0), vals)
        km = rf.km_iterate(V, [3.0, 4.0], sched, 50)
        eu = rf.integrate_flow(V, [3.0, 4.0], sched,
                               rf.IntegratorConfig("euler_unit", 50.0))
        for a, b in zip(km.samples, eu.samples):
            np.testing.assert_array_equal(a.x, b.x)

    def test_euler_unit_rejects_misaligned_schedule(self, two_lines):
        cfg = rf.IntegratorConfig("euler_unit", 10.0)
        with pytest.raises(rf.UsageError):
            rf.integrate_flow(two_lines["op"], [1.0, 1.0],
                              rf.Sinusoid(0.5, 0.2, 1.0), cfg)
        with pytest.raises(rf.UsageError):
            rf.integrate_flow(two_lines["op"], [1.0, 1.0],
                              rf.PiecewiseConstant([0.0, 1.5], [1.0, 0.5]), cfg)

    def test_euler_unit_rejects_fractional_horizon(self, two_lines):
        cfg = rf.IntegratorConfig("euler_unit", 10.5)
        with pytest.raises(rf.UsageError):
            rf.integrate_flow(two_lines["op"], [1.0, 1.0], rf.Constant(1.0), cfg)


class TestFixedStepMarch:
    def test_euler_step_is_relaxed_step_of_relaxation_h_lambda(self, two_lines):
        op, sched = two_lines["op"], rf.Sinusoid(0.6, 0.3, 2.0)
        traj = rf.integrate_flow(op, [4.0, 3.0], sched,
                                 rf.IntegratorConfig("euler", 2.0, h=0.25))
        ts, xs = traj.times(), traj.states()
        assert ts.size == 9 and ts[-1] == 2.0
        for k in range(ts.size - 1):
            lam = (ts[k + 1] - ts[k]) * sched(ts[k])
            np.testing.assert_array_equal(xs[k + 1], (1.0 - lam) * xs[k] + lam * op(xs[k]))

    def test_euler_at_unit_step_is_the_relaxed_iteration(self, two_lines):
        km = rf.km_iterate(two_lines["op"], [4.0, 3.0], 0.7, 20)
        eu = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(0.7),
                               rf.IntegratorConfig("euler", 20.0, h=1.0))
        np.testing.assert_array_equal(eu.times(), km.times())
        np.testing.assert_array_equal(eu.states(), km.states())

    def test_segment_ends_exactly_at_its_breakpoint(self, zero_map):
        # (b - a)/h lies 1e-13 above 3: the segment's third step is stretched to b,
        # so no sliver of [0, b] is skipped and no sample repeats a state
        b = 0.30000000000001
        sched = rf.PiecewiseConstant([0.0, b], [1.0, 0.5])
        cfg = rf.IntegratorConfig("euler", 0.6, h=0.1)
        traj = rf.integrate_flow(zero_map, [1.0], sched, cfg)
        ts = traj.times()
        assert ts[3] == b and ts[-1] == 0.6 and ts.size == 7
        short = rf.integrate_flow(zero_map, [1.0], rf.Constant(1.0),
                                  rf.IntegratorConfig("rk4", b, h=0.1))
        assert short.times().tolist() == [0.0, 0.1, 0.2, b]
        assert np.all(np.diff(short.states()[:, 0]) < 0.0)

    @pytest.mark.parametrize("method,h", [("rk45", None), ("rk4", 0.1)])
    def test_stages_at_a_breakpoint_read_the_ending_piece(self, tangent_pair, method, h):
        # every stage of [0, 1) reads lambda = 0.5, also at t = 1, so the state at
        # the breakpoint is the state of a run that stops there
        op = tangent_pair["op"]
        sched = rf.PiecewiseConstant([0.0, 1.0], [0.5, 1.0])
        traj = rf.integrate_flow(op, [1.2, 0.6], sched, rf.IntegratorConfig(method, 2.0, h=h))
        short = rf.integrate_flow(op, [1.2, 0.6], rf.Constant(0.5),
                                  rf.IntegratorConfig(method, 1.0, h=h))
        at_one = np.flatnonzero(traj.times() == 1.0)
        assert at_one.size == 1
        np.testing.assert_array_equal(traj.states()[at_one[0]], short.states()[-1])

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_stride_records_every_stride_th_step_and_the_last(self, two_lines, method):
        def run(stride):
            cfg = rf.IntegratorConfig(method, 1.0, h=0.1, sample_stride=stride)
            return rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(0.8), cfg)

        full, every4 = run(1), run(4)
        assert full.times().size == 11
        np.testing.assert_array_equal(every4.times(), full.times()[[0, 4, 8, 10]])
        np.testing.assert_array_equal(every4.states(), full.states()[[0, 4, 8, 10]])


class TestRecordingRules:
    def test_unit_steps_run_as_one_piece(self, two_lines):
        # km_iterate reads lambda at the integers 0..K-1 and records 0..K, whatever
        # times the schedule breaks at
        op, sched = two_lines["op"], rf.PiecewiseConstant([0.0, 1.5, 2.25], [0.9, 0.4, 0.7])
        traj = rf.km_iterate(op, [4.0, 3.0], sched, 5)
        ts, xs = traj.times(), traj.states()
        np.testing.assert_array_equal(ts, np.arange(6.0))
        for k in range(5):
            lam = sched(float(k))
            np.testing.assert_array_equal(xs[k + 1], (1.0 - lam) * xs[k] + lam * op(xs[k]))

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_fixed_step_stride_counts_from_zero_across_pieces(self, two_lines, method):
        # pieces [0, 0.45] (5 steps) and [0.45, 1] (6 steps): stride 3 keeps the
        # steps 3, 6 and 9 of the whole run, and its last step, 11
        def run(stride):
            cfg = rf.IntegratorConfig(method, 1.0, h=0.1, sample_stride=stride)
            return rf.integrate_flow(two_lines["op"], [4.0, 3.0],
                                     rf.PiecewiseConstant([0.0, 0.45], [1.0, 0.5]), cfg)

        full, every3 = run(1), run(3)
        assert full.times().size == 12 and full.times()[5] == 0.45
        np.testing.assert_array_equal(every3.times(), full.times()[[0, 3, 6, 9, 11]])
        np.testing.assert_array_equal(every3.states(), full.states()[[0, 3, 6, 9, 11]])

    def test_adaptive_stride_counts_per_piece_and_keeps_each_end(self, two_lines):
        sched = rf.PiecewiseConstant([0.0, 1.0, 2.5], [1.0, 0.5, 0.8])

        def run(stride):
            cfg = rf.IntegratorConfig("rk45", 4.0, sample_stride=stride)
            return rf.integrate_flow(two_lines["op"], [4.0, 3.0], sched, cfg)

        full, every3 = run(1), run(3)
        ts = full.times()
        keep = [0]
        for a, b in [(0.0, 1.0), (1.0, 2.5), (2.5, 4.0)]:
            piece = np.flatnonzero((ts > a) & (ts <= b))
            assert ts[piece[-1]] == b and piece.size > 3
            keep += sorted({*piece[2::3], piece[-1]})  # steps 3, 6, ... and the end
        np.testing.assert_array_equal(every3.times(), ts[keep])
        np.testing.assert_array_equal(every3.states(), full.states()[keep])

    def test_sample_time_one_ulp_past_a_late_breakpoint_is_recorded_once(self):
        # linspace(0, 50, 501) holds 16.400000000000002, one ulp past the
        # breakpoint 16.4; from 16 on, a + 1e-15 rounds to a, so that time also
        # passed the next piece's filter and was recorded a second time
        grid = np.linspace(0.0, 50.0, 501)
        assert grid[164] == np.nextafter(16.4, np.inf)
        cfg = rf.IntegratorConfig("rk45", 50.0, sample_times=grid)
        traj = rf.integrate_flow(rf.projector(rf.Hyperplane([0.0, 1.0], 0.0)), [1.0, 1.0],
                                 rf.PiecewiseConstant([0.0, 16.4], [1.0, 0.5]), cfg)
        ts = traj.times()
        assert ts.size == 501 and np.all(np.diff(ts) > 0.0)
        assert ts[164] == 16.4  # the breakpoint's own sample
        np.testing.assert_allclose(ts, grid, rtol=0.0, atol=1e-12)


class TestTrajectoryProperties:
    def test_fejer_monotone_along_flow(self, two_lines):
        cfg = rf.IntegratorConfig("rk45", 10.0, rel_tol=1e-10, abs_tol=1e-12,
                                  sample_times=tuple(np.linspace(0.1, 10.0, 100)))
        traj = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(0.8),
                                 cfg, oracle=two_lines["oracle"])
        x_star = two_lines["oracle"].distance_to(np.array([4.0, 3.0])).witness
        norms = np.linalg.norm(traj.states() - x_star[None, :], axis=1)
        assert np.all(np.diff(norms) <= 1e-9)

    def test_residual_summability_proxy_stable_under_refinement(self, zero_map):
        # sum of speed^2 dt approximates a finite integral; halving h barely moves it
        def riemann(h):
            cfg = rf.IntegratorConfig("euler", 10.0, h=h)
            traj = rf.integrate_flow(zero_map, [1.0], rf.Constant(1.0), cfg)
            t = traj.times()
            sp = np.array([s.speed for s in traj.samples])
            return float(np.sum(sp[:-1] ** 2 * np.diff(t)))

        s1, s2 = riemann(0.01), riemann(0.005)
        assert np.isfinite(s1) and np.isfinite(s2)
        # exact integral of e^{-2t} on [0,10] is ~0.5
        assert abs(s1 - 0.5) < 0.02 and abs(s2 - 0.5) < 0.01
        assert abs(s1 - s2) < 0.01

    def test_richardson_order_euler(self, zero_map):
        exact = np.exp(-2.0)

        def terminal(h, method):
            cfg = rf.IntegratorConfig(method, 2.0, h=h)
            traj = rf.integrate_flow(zero_map, [1.0], rf.Constant(1.0), cfg)
            return traj.samples[-1].x[0]

        e1 = terminal(0.02, "euler") - exact
        e2 = terminal(0.01, "euler") - exact
        assert 1.7 <= e1 / e2 <= 2.3

    def test_richardson_order_rk4(self, zero_map):
        exact = np.exp(-2.0)

        def terminal(h):
            cfg = rf.IntegratorConfig("rk4", 2.0, h=h)
            traj = rf.integrate_flow(zero_map, [1.0], rf.Constant(1.0), cfg)
            return traj.samples[-1].x[0]

        e1 = terminal(0.2) - exact
        e2 = terminal(0.1) - exact
        assert 12.0 <= e1 / e2 <= 20.0

    def test_piecewise_restart_matches_manual_segments(self, zero_map):
        sched = rf.PiecewiseConstant([0.0, 1.0], [1.0, 0.5])
        cfg = rf.IntegratorConfig("rk45", 2.0, rel_tol=1e-12, abs_tol=1e-14,
                                  sample_times=(2.0,))
        traj = rf.integrate_flow(zero_map, [1.0], sched, cfg)
        # closed form: e^{-1} then factor e^{-0.5}
        assert traj.samples[-1].x[0] == pytest.approx(np.exp(-1.5), abs=1e-10)

    def test_limit_estimate_set_only_when_converged(self, two_lines, zero_map):
        cfg = rf.IntegratorConfig("rk45", 40.0, rel_tol=1e-10, abs_tol=1e-12,
                                  sample_times=(20.0, 40.0))
        traj = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0), cfg)
        assert traj.limit_estimate is not None
        cfg_short = rf.IntegratorConfig("rk45", 1.0, sample_times=(1.0,))
        traj2 = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0), cfg_short)
        assert traj2.limit_estimate is None

    def test_adaptive_stride_records_accepted_steps(self, two_lines):
        cfg1 = rf.IntegratorConfig("rk45", 5.0, sample_stride=1)
        cfg2 = rf.IntegratorConfig("rk45", 5.0, sample_stride=3)
        t1 = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0), cfg1)
        t2 = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0), cfg2)
        assert len(t2.samples) < len(t1.samples)
        assert set(t2.times()) <= set(t1.times())
        assert t2.times()[0] == 0.0 and t2.times()[-1] == 5.0

    def test_dist_to_limit_requires_limit(self, two_lines):
        cfg = rf.IntegratorConfig("rk45", 1.0, sample_times=(0.5, 1.0))
        traj = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0), cfg)
        assert traj.limit_estimate is None
        with pytest.raises(rf.UsageError):
            traj.metric("dist_to_limit")

    def test_sample_times_strictly_increasing(self, two_lines):
        cfg = rf.IntegratorConfig("rk45", 5.0, sample_times=tuple(np.linspace(1.0, 5.0, 9)))
        traj = rf.integrate_flow(two_lines["op"], [4.0, 3.0],
                                 rf.PiecewiseConstant([0.0, 2.5], [1.0, 0.5]), cfg)
        ts = traj.times()
        assert np.all(np.diff(ts) > 0)
        assert ts[0] == 0.0 and ts[-1] == 5.0


class TestSampleMetrics:
    def test_backfill_and_idempotence(self, two_lines):
        cfg = rf.IntegratorConfig("rk45", 3.0, sample_times=(1.0, 2.0, 3.0))
        traj = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0), cfg)
        assert all(s.dist_fix is None for s in traj.samples)
        filled = rf.sample_metrics(traj, two_lines["op"], two_lines["oracle"])
        assert all(s.dist_fix is not None for s in filled.samples)
        again = rf.sample_metrics(filled, two_lines["op"], two_lines["oracle"])
        for a, b in zip(filled.samples, again.samples):
            assert a.residual == b.residual and a.dist_fix == b.dist_fix
            assert a.speed == b.speed
            np.testing.assert_array_equal(a.x, b.x)

    def test_identity_flow_all_residuals_zero(self):
        I = rf.identity(2)
        cfg = rf.IntegratorConfig("rk45", 2.0, sample_times=(1.0, 2.0))
        traj = rf.integrate_flow(I, [1.0, 1.0], rf.Constant(0.5), cfg)
        refreshed = rf.sample_metrics(traj, I)
        assert all(s.residual == 0.0 for s in refreshed.samples)

    def test_oracle_failure_reports_sample_index(self, zero_map):
        sched = rf.Constant(1.0)
        samples = [rf.TrajectorySample(float(k), np.array([1.0 + k]), 1.0, 1.0)
                   for k in range(3)]
        traj = rf.Trajectory(samples, "discrete", sched)

        class FailingOracle(rf.FixSetOracle):
            dim = 1

            def distance_to(self, x):
                raise rf.ConvergenceError("budget exhausted", result=None)

        with pytest.raises(rf.ConvergenceError) as exc:
            rf.sample_metrics(traj, zero_map, FailingOracle())
        assert "sample 0" in str(exc.value)

    def test_zero_map_metrics_closed_form(self, zero_map):
        # at x(t) = 0.5 the residual and distance to {0} are both 0.5
        cfg = rf.IntegratorConfig("rk45", np.log(2.0), rel_tol=1e-12, abs_tol=1e-14,
                                  sample_times=(np.log(2.0),))
        traj = rf.integrate_flow(zero_map, [1.0], rf.Constant(1.0), cfg,
                                 oracle=rf.SinglePoint([0.0]))
        s = traj.samples[-1]
        assert s.residual == pytest.approx(0.5, abs=1e-10)
        assert s.dist_fix == pytest.approx(0.5, abs=1e-10)


class TestCSV:
    def test_round_trip_bit_faithful(self, two_lines, tmp_path):
        cfg = rf.IntegratorConfig("rk45", 2.0, sample_times=tuple(np.linspace(0.25, 2.0, 8)))
        traj = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(0.9),
                                 cfg, oracle=two_lines["oracle"])
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x_0,x_1,residual,dist_fix,speed"
        back = rf.Trajectory.from_csv(path)
        assert len(back.samples) == len(traj.samples)
        for a, b in zip(traj.samples, back.samples):
            assert a.t == b.t and a.residual == b.residual and a.speed == b.speed
            assert a.dist_fix == b.dist_fix
            np.testing.assert_array_equal(a.x, b.x)

    def test_missing_dist_fix_round_trips_as_none(self, zero_map, tmp_path):
        traj = rf.km_iterate(zero_map, [1.0], 0.5, 3)
        path = tmp_path / "t.csv"
        traj.to_csv(path)
        back = rf.Trajectory.from_csv(path)
        assert all(s.dist_fix is None for s in back.samples)
        assert back.mode == "discrete"

    def test_17_digit_format_round_trips_any_double(self):
        from regflow.flow import _fmt

        rng = np.random.default_rng(23)
        specials = [0.0, 1.0, np.pi, 1e-300, 5e-324, 0.1, 2.0 ** -52]
        draws = list(np.exp(rng.uniform(-300, 300, 200)) * rng.choice([-1, 1], 200))
        for v in specials + draws:
            assert float(_fmt(float(v))) == float(v)


def _csv_writer_bytes(traj, path):
    """The file as csv.writer writes it, one format(v, ".17g") per cell."""
    def fmt(v):
        return format(float(v), ".17g")

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i}" for i in range(traj.dim)]
                        + ["residual", "dist_fix", "speed"])
        for s in traj.samples:
            writer.writerow([fmt(s.t)] + [fmt(v) for v in s.x] + [fmt(s.residual)]
                            + ["" if s.dist_fix is None else fmt(s.dist_fix)]
                            + [fmt(s.speed)])
    return path.read_bytes()


class TestCSVBytes:
    """``to_csv`` fills a row template; its bytes are csv.writer's, cell for cell."""

    def assert_same_bytes(self, traj, tmp_path):
        traj.to_csv(tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == \
            _csv_writer_bytes(traj, tmp_path / "old.csv")

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_trajectory(self, name, tmp_path):
        sc = load_scenario(name)
        traj = rf.integrate_flow(sc.operator, sc.x0, sc.schedule, sc.integrator,
                                 oracle=sc.oracle)
        self.assert_same_bytes(traj, tmp_path)

    def test_all_none_dist_fix(self, zero_map, tmp_path):
        traj = rf.km_iterate(zero_map, [1.0], 0.5, 60)
        assert all(s.dist_fix is None for s in traj.samples)
        self.assert_same_bytes(traj, tmp_path)

    def test_mixed_dist_fix_read_back(self, tmp_path):
        rng = np.random.default_rng(8)
        values = [0.0, -0.0, 5e-324, 1e308, -1e-300, np.pi, 0.1, 123456789.0]
        samples = [rf.TrajectorySample(float(k), rng.standard_normal(3) * 10.0 ** k,
                                       values[k % 8], values[(k + 3) % 8],
                                       None if k % 3 == 0 else values[(k + 5) % 8])
                   for k in range(-12, 12)]
        path = tmp_path / "mixed.csv"
        _csv_writer_bytes(rf.Trajectory(samples, "continuous", None), path)
        traj = rf.Trajectory.from_csv(path)
        assert [s.dist_fix is None for s in traj.samples] == \
            [s.dist_fix is None for s in samples]
        self.assert_same_bytes(traj, tmp_path)


class TestIntegrationFailure:
    def test_failed_solver_raises_with_partial(self, two_lines, monkeypatch):
        class FakeSol:
            success = False
            status = -1
            message = "step size underflow"
            t = np.array([0.0])
            y = np.zeros((2, 1))
            nfev = 10

        monkeypatch.setattr(flow_mod, "solve_ivp", lambda *a, **k: FakeSol())
        cfg = rf.IntegratorConfig("rk45", 1.0)
        with pytest.raises(rf.IntegrationError) as exc:
            rf.integrate_flow(two_lines["op"], [1.0, 1.0], rf.Constant(1.0), cfg)
        partial = exc.value.partial
        assert partial is not None and partial.samples[0].t == 0.0
