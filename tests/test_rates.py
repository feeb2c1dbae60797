import numpy as np
import pytest

import regflow as rf
from regflow.flow import Trajectory, TrajectorySample


def synthetic_traj(t, values, mode="continuous"):
    """Trajectory whose dist_fix/residual both equal ``values``; states are 1-D."""
    samples = [
        TrajectorySample(float(ti), np.array([vi]), float(vi), float(vi), float(vi))
        for ti, vi in zip(t, values)
    ]
    limit = np.array([0.0]) if values[-1] < 1e-9 else None
    return Trajectory(samples, mode, rf.Constant(1.0), limit)


class TestFitDecay:
    def test_exact_exponential_recovery(self):
        t = np.linspace(0.0, 5.0, 50)
        traj = synthetic_traj(t, 2.0 * np.exp(-3.0 * t))
        fit = rf.fit_decay(traj, "residual", "exponential", window=(0.0, 5.0))
        assert fit.M == pytest.approx(2.0, rel=1e-10)
        assert fit.rate == pytest.approx(3.0, rel=1e-10)
        assert fit.rss < 1e-20

    def test_exact_powerlaw_recovery(self):
        t = np.linspace(1.0, 100.0, 60)
        traj = synthetic_traj(t, 5.0 * t ** (-1.5))
        fit = rf.fit_decay(traj, "residual", "powerlaw", window=(1.0, 100.0))
        assert fit.M == pytest.approx(5.0, rel=1e-10)
        assert fit.rate == pytest.approx(1.5, rel=1e-10)

    def test_recovery_under_multiplicative_noise(self):
        rng = np.random.default_rng(19)
        t = np.linspace(0.0, 5.0, 200)
        noise = 1.0 + 1e-3 * (2.0 * rng.random(t.size) - 1.0)
        traj = synthetic_traj(t, 2.0 * np.exp(-3.0 * t) * noise)
        fit = rf.fit_decay(traj, "residual", "exponential", window=(0.0, 5.0))
        assert fit.M == pytest.approx(2.0, rel=0.02)
        assert fit.rate == pytest.approx(3.0, rel=0.02)

    def test_default_window_drops_transient(self):
        t = np.linspace(0.0, 10.0, 101)
        y = 2.0 * np.exp(-3.0 * t)
        y[:5] = 10.0  # corrupt the early transient
        traj = synthetic_traj(t, y)
        fit = rf.fit_decay(traj, "residual", "exponential")
        assert fit.fit_window[0] >= t[20]  # last 80% only
        assert fit.rate == pytest.approx(3.0, rel=1e-6)

    def test_powerlaw_requires_positive_window(self):
        t = np.linspace(0.0, 10.0, 50)
        traj = synthetic_traj(t, np.exp(-t) + 1.0)
        with pytest.raises(rf.UsageError):
            rf.fit_decay(traj, "residual", "powerlaw", window=(0.0, 10.0))

    def test_powerlaw_default_window_starts_at_one(self):
        t = np.linspace(0.0, 50.0, 501)
        traj = synthetic_traj(t[1:], 5.0 * t[1:] ** (-1.5))
        fit = rf.fit_decay(traj, "residual", "powerlaw")
        assert fit.fit_window[0] >= 1.0
        assert fit.rate == pytest.approx(1.5, rel=1e-8)

    def test_identically_zero_returns_none(self):
        t = np.linspace(0.0, 5.0, 20)
        traj = synthetic_traj(t, np.zeros_like(t))
        assert rf.fit_decay(traj, "residual", "exponential") is None

    def test_too_few_positive_samples_raises(self):
        t = np.linspace(0.0, 5.0, 8)
        traj = synthetic_traj(t, np.exp(-t))
        with pytest.raises(rf.FitError):
            rf.fit_decay(traj, "residual", "exponential", window=(0.0, 5.0))

    def test_constant_outside_float_range_raises(self):
        # t up to 1.9e301 with halving values: log M = 4702, so M = exp(4702) = inf
        t = np.arange(20) * 1e300
        traj = synthetic_traj(t, 0.5 ** np.arange(20))
        with pytest.raises(rf.FitError, match="powerlaw fit constant M"):
            rf.fit_decay(traj, "residual", "powerlaw")

    def test_squared_times_outside_float_range_raise(self):
        # t up to 1.9e301: the sum of t^2 that polyfit scales its design by overflows
        t = np.arange(20) * 1e300
        traj = synthetic_traj(t, 0.5 ** np.arange(20))
        with pytest.raises(rf.FitError, match=r"exponential fit in window .* the squares "
                                              r"of the fit variable leave the float range"):
            rf.fit_decay(traj, "residual", "exponential")

    def test_growing_series_raises(self):
        t = np.linspace(0.0, 5.0, 30)
        traj = synthetic_traj(t, np.exp(+t))
        with pytest.raises(rf.FitError):
            rf.fit_decay(traj, "residual", "exponential", window=(0.0, 5.0))

    def test_dist_to_limit_metric(self):
        t = np.linspace(0.0, 5.0, 50)
        vals = 2.0 * np.exp(-5.0 * t)
        samples = [TrajectorySample(float(ti), np.array([vi]), vi, vi, vi)
                   for ti, vi in zip(t, vals)]
        traj = Trajectory(samples, "continuous", rf.Constant(1.0),
                          limit_estimate=np.array([0.0]))
        fit = rf.fit_decay(traj, "dist_to_limit", "exponential", window=(0.0, 5.0))
        assert fit.rate == pytest.approx(5.0, rel=1e-9)


class TestSelectModel:
    def test_exact_exponential_chosen(self):
        t = np.linspace(0.5, 20.0, 80)
        traj = synthetic_traj(t, 3.0 * np.exp(-0.7 * t))
        exp_fit, pow_fit, chosen = rf.select_model(traj, "residual", window=(0.5, 20.0))
        assert chosen == "exponential"
        assert exp_fit.rss_per_point < pow_fit.rss_per_point

    def test_exact_powerlaw_chosen(self):
        t = np.linspace(1.0, 200.0, 80)
        traj = synthetic_traj(t, 3.0 * t ** (-0.8))
        exp_fit, pow_fit, chosen = rf.select_model(traj, "residual", window=(1.0, 200.0))
        assert chosen == "powerlaw"


class TestLinearRateBound:
    def test_start_at_fixed_point_zero_margins(self, zero_map):
        t = np.linspace(0.0, 3.0, 31)
        samples = [TrajectorySample(float(ti), np.array([0.0]), 0.0, 0.0, 0.0)
                   for ti in t]
        traj = Trajectory(samples, "continuous", rf.Constant(1.0),
                          limit_estimate=np.array([0.0]))
        bc = rf.check_linear_rate_bound(traj, kappa=1.0)
        assert bc.passed
        for margin in bc.margins.values():
            assert margin == pytest.approx(0.0, abs=1e-15)

    def test_zero_map_flow_key_inequalities(self, zero_map):
        # closed form x(t) = e^{-t}: d^2 = e^{-2t} <= e^{-(lam*/k^2) t} with k=1
        times = tuple(np.linspace(0.0, 25.0, 251))
        cfg = rf.IntegratorConfig("rk45", 25.0, rel_tol=1e-11, abs_tol=1e-13,
                                  sample_times=times)
        traj = rf.integrate_flow(zero_map, [1.0], rf.Constant(1.0), cfg,
                                 oracle=rf.SinglePoint([0.0]))
        assert traj.limit_estimate is not None
        bc = rf.check_linear_rate_bound(traj, kappa=1.0)
        assert bc.passed
        # margin of the squared-decay inequality at t=1: e^{-1} - e^{-2}
        t = traj.times()
        d = traj.metric("dist_fix")
        margins = np.exp(-t) - d ** 2
        assert margins[10] == pytest.approx(np.exp(-1.0) - np.exp(-2.0), abs=1e-8)

    def test_requires_positive_lambda_inf(self, zero_map):
        sched = rf.PiecewiseConstant([0.0], [0.0])
        traj = rf.km_iterate(zero_map, [1.0], sched, 2, rf.SinglePoint([0.0]))
        with pytest.raises(rf.UsageError):
            rf.check_linear_rate_bound(traj, 1.0, x_bar=[0.0])

    def test_missing_limit_and_x_bar_raises(self, zero_map):
        traj = rf.km_iterate(zero_map, [1.0], 0.5, 3, rf.SinglePoint([0.0]))
        assert traj.limit_estimate is None
        with pytest.raises(rf.UsageError):
            rf.check_linear_rate_bound(traj, 1.0)

    def test_fit_rate_dominates_theorem_rate(self, two_lines):
        times = tuple(np.linspace(0.0, 20.0, 401))
        cfg = rf.IntegratorConfig("rk45", 20.0, rel_tol=1e-10, abs_tol=1e-12,
                                  sample_times=times)
        traj = rf.integrate_flow(two_lines["op"], [4.0, 3.0], rf.Constant(1.0),
                                 cfg, oracle=two_lines["oracle"])
        est = rf.estimate_operator_regularity(two_lines["op"], two_lines["oracle"],
                                              rf.Region(np.zeros(2), 10.0),
                                              2000, "linear", 0)
        fit = rf.fit_decay(traj, "dist_fix", "exponential")
        assert fit.rate >= 1.0 / (2.0 * est.kappa ** 2) - 1e-6


class TestHoelderRateBound:
    def test_constant_construction(self):
        # u' <= -alpha u^{1/gamma} comparison constant, gamma = 1/2, alpha = 1:
        # lemma constant is 1, and the distance bound is its square root
        m0 = rf.hoelder_bound_constant(kappa=1.0, gamma=0.5, lam_star=1.0)
        assert m0 == pytest.approx(1.0)
        m = rf.powerlaw_comparison_constant(1.0, 0.5)
        assert m == pytest.approx(1.0)

    def test_exponent_identity_recomputed(self):
        gamma = 0.37
        rho = gamma / (2.0 * (1.0 - gamma))
        t = np.linspace(1.0, 50.0, 200)
        m0 = rf.hoelder_bound_constant(2.0, gamma, 0.8)
        vals = 0.9 * m0 * t ** (-rho)
        traj = synthetic_traj(t, vals)
        traj.schedule = rf.Constant(0.8)
        traj.limit_estimate = np.array([0.0])
        bc = rf.check_hoelder_rate_bound(traj, 2.0, gamma)
        assert bc.passed
        # the bound exponent is exactly gamma/(2(1-gamma)): scaling the series
        # by t^{+0.01} must eventually break it
        bad = synthetic_traj(t, m0 * t ** (-rho + 0.05))
        bad.schedule = rf.Constant(0.8)
        bad.limit_estimate = np.array([0.0])
        bc_bad = rf.check_hoelder_rate_bound(bad, 2.0, gamma)
        assert not bc_bad.passed

    def test_constant_overflow_is_numeric_error_naming_kappa_and_gamma(self):
        # gamma near 1: the exponent gamma/(2(1-gamma)) leaves the float range
        with pytest.raises(rf.NumericRangeError, match=r"kappa=1, gamma=0\.999"):
            rf.hoelder_bound_constant(1.0, 0.999, 0.5)
        with pytest.raises(rf.NumericRangeError):
            rf.hoelder_bound_constant(np.float64(1e10), 0.01, 0.5)  # kappa^(2/gamma)

    def test_start_at_fixed_point_trivial(self):
        t = np.linspace(0.0, 5.0, 51)
        samples = [TrajectorySample(float(ti), np.zeros(1), 0.0, 0.0, 0.0)
                   for ti in t]
        traj = Trajectory(samples, "continuous", rf.Constant(1.0),
                          limit_estimate=np.zeros(1))
        bc = rf.check_hoelder_rate_bound(traj, 1.0, 0.5)
        assert bc.passed and bc.worst_margin >= 0.0

    def test_gamma_range_checked(self):
        t = np.linspace(1.0, 5.0, 20)
        traj = synthetic_traj(t, 1.0 / t)
        traj.limit_estimate = np.array([0.0])
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(rf.UsageError):
                rf.check_hoelder_rate_bound(traj, 1.0, bad)


class TestComparisonLemmas:
    def test_gronwall_saturated(self):
        rep = rf.verify_comparison_lemmas(2.0, 0.5, 3.0)
        assert rep.passed
        t, u = rf.integrate_scalar_decay(2.0, 1.0, 3.0, 20.0)
        np.testing.assert_allclose(u, 3.0 * np.exp(-2.0 * t), atol=1e-9)

    def test_closed_form_power_case(self):
        t, u = rf.integrate_scalar_decay(1.0, 2.0, 1.0, 20.0)
        np.testing.assert_allclose(u, 1.0 / (1.0 + t), atol=1e-9)
        pos = t > 0
        assert np.all(u[pos] <= 1.0 / t[pos])

    def test_zero_initial_condition(self):
        rep = rf.verify_comparison_lemmas(1.0, 0.5, 0.0)
        assert rep.passed
        t, u = rf.integrate_scalar_decay(1.0, 2.0, 0.0, 5.0)
        assert np.all(u == 0.0)

    def test_parameter_validation(self):
        with pytest.raises(rf.UsageError):
            rf.verify_comparison_lemmas(-1.0, 0.5, 1.0)
        with pytest.raises(rf.UsageError):
            rf.verify_comparison_lemmas(1.0, 1.0, 1.0)
        with pytest.raises(rf.UsageError):
            rf.verify_comparison_lemmas(1.0, 0.5, -1.0)
        nan, inf = float("nan"), float("inf")
        # NaN parameters never let RK45 finish, so they must be refused up front
        for args, kwargs in (
            ((1.0, 0.5, 1.0), {"t_end": nan}), ((1.0, 0.5, 1.0), {"t_end": inf}),
            ((1.0, 0.5, 1.0), {"t_end": 0.0}), ((1.0, 0.5, 1.0), {"t_end": -1.0}),
            ((nan, 0.5, 1.0), {}), ((inf, 0.5, 1.0), {}), ((1.0, nan, 1.0), {}),
            ((1.0, 0.0, 1.0), {}), ((1.0, 0.5, nan), {}), ((1.0, 0.5, inf), {}),
            (([1.0, nan], 0.5, 1.0), {}), (([1.0, 2.0], [0.5, 0.5, 0.5], 1.0), {}),
        ):
            with pytest.raises(rf.UsageError):
                rf.verify_comparison_lemmas(*args, **kwargs)
        for args in (
            (1.0, 1.0, 1.0, nan), (1.0, 1.0, 1.0, inf), (1.0, 1.0, 1.0, 0.0),
            (1.0, 1.0, 1.0, -1.0), (nan, 1.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0),
            (1.0, nan, 1.0, 1.0), (1.0, -2.0, 1.0, 1.0), (1.0, 1.0, nan, 1.0),
            (1.0, 1.0, -1.0, 1.0), (1.0, 1.0, [1.0, inf], 1.0), ([], 1.0, 1.0, 1.0),
            (1.0, 1.0, 1.0, 1.0, 0), (1.0, 1.0, 1.0, 1.0, 2.5),
        ):
            with pytest.raises(rf.UsageError):
                rf.integrate_scalar_decay(*args)


ALPHAS = np.linspace(0.5, 4.0, 5)
GAMMAS = np.linspace(0.2, 0.8, 5)


class TestBatchedComparisonLemmas:
    def test_length_one_arrays_match_scalar_call(self):
        for args in ((2.0, 1.0, 3.0), (1.0, 2.0, 1.0), (0.5, 5.0, 10.0), (3.0, 0.5, 0.0)):
            t, u = rf.integrate_scalar_decay(*args, 20.0)
            tb, ub = rf.integrate_scalar_decay(*([v] for v in args), 20.0)
            assert u.shape == t.shape and ub.shape == (1,) + t.shape
            np.testing.assert_array_equal(tb, t)
            np.testing.assert_array_equal(ub[0], u)

    def test_grid_matches_one_at_a_time(self):
        u0s = np.array([0.1, 1.0, 10.0])
        batch = rf.verify_comparison_lemmas(ALPHAS[:, None, None], GAMMAS[None, :, None], u0s)
        singles = [rf.verify_comparison_lemmas(float(a), float(g), float(u))
                   for a in ALPHAS for g in GAMMAS for u in u0s]
        assert len(batch) == len(singles) == 75
        for b, s in zip(batch, singles):
            assert (b.name, b.passed, b.n_points) == (s.name, s.passed, s.n_points)
            assert abs(b.worst_slack - s.worst_slack) <= 1e-11

    def test_mixed_batch_rows_match_closed_forms(self):
        alpha = np.array([[2.0, 1.0, 0.5], [1.0, 4.0, 1.0]])
        exponent = np.array([[1.0, 2.0, 1.0], [5.0, 1.0, 2.0]])
        u0 = np.array([[3.0, 1.0, 10.0], [0.0, 0.1, 1.0]])
        t, u = rf.integrate_scalar_decay(alpha, exponent, u0, 20.0)
        assert u.shape == (2, 3, t.size)
        for i, j in ((0, 0), (0, 2), (1, 1)):
            np.testing.assert_allclose(u[i, j], u0[i, j] * np.exp(-alpha[i, j] * t),
                                       rtol=0, atol=1e-9)
        for i, j in ((0, 1), (1, 2)):
            np.testing.assert_allclose(u[i, j], 1.0 / (1.0 + t), rtol=0, atol=1e-9)
        assert np.all(u[1, 0] == 0.0)

    def test_one_solve_per_sweep(self, monkeypatch):
        import regflow.rates as rates

        components = []
        real = rates.solve_ivp

        def counting(fun, t_span, y0, **kwargs):
            components.append(len(y0))
            return real(fun, t_span, y0, **kwargs)

        monkeypatch.setattr(rates, "solve_ivp", counting)
        reports = rf.verify_comparison_lemmas(ALPHAS[:, None], GAMMAS[None, :], 1.0)
        assert len(reports) == 25 and all(r.passed for r in reports)
        assert components == [30]  # 5 exponential (alpha) + 25 power-law (alpha, gamma)
        components.clear()
        assert isinstance(rf.verify_comparison_lemmas(1.0, 0.5, 1.0), rf.InequalityReport)
        rf.verify_comparison_lemmas([1.0, 1.0], 0.5, 1.0)  # repeated problems solve once
        assert components == [2, 2]


@pytest.mark.parametrize("call", [
    lambda traj, op, oracle, extra: rf.check_avg_inequality(traj, op, [0.0], extra),
    lambda traj, op, oracle, extra: rf.check_descent(traj, op, oracle, [0.0], extra),
    lambda traj, op, oracle, extra: rf.check_linear_rate_bound(traj, 1.0, extra),
    lambda traj, op, oracle, extra: rf.check_hoelder_rate_bound(traj, 1.0, 0.5, extra),
    # a stale moduli list: the lemma bounds read each operator's meta.rho
    lambda traj, op, oracle, extra: rf.check_combination_bound([op], [1.0], [1.0], [[0.0]],
                                                               oracle),
    lambda traj, op, oracle, extra: rf.check_composition_bound([op], [1.0], [[0.0]], oracle),
], ids=["avg_inequality", "descent", "linear_rate_bound", "hoelder_rate_bound",
        "combination_bound", "composition_bound"])
def test_trailing_parameters_are_keyword_only(call, zero_map):
    # a stale positional schedule must not land in tol: the checks read lambda
    # from the trajectory and take every optional parameter by keyword
    oracle = rf.SinglePoint([0.0])
    traj = rf.km_iterate(zero_map, [1.0], 1.0, 3, oracle)
    with pytest.raises(TypeError, match="positional argument"):
        call(traj, zero_map, oracle, traj.schedule)
