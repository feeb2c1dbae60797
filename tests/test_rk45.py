"""regflow's Dormand-Prince loop: bit for bit scipy's RK45, within a step budget.

scipy is a test dependency only; ``flow.solve_ivp`` must reproduce
``scipy.integrate.solve_ivp(method="RK45")`` exactly: the same times, states,
right-hand-side evaluations and status on every solve regflow makes. Past
``flow.MAX_STEPS`` accepted steps a solve fails instead.
"""

import time

import numpy as np
import pytest

import regflow as rf
import regflow.flow as flow
import regflow.rates as rates
from regflow.cli import main
from regflow.scenarios import CONTINUOUS, load_scenario

scipy_integrate = pytest.importorskip("scipy.integrate")


def assert_same(fun, t_span, y0, **kwargs):
    ours = flow.solve_ivp(fun, t_span, y0, **kwargs)
    ref = scipy_integrate.solve_ivp(fun, t_span, y0, method="RK45", **kwargs)
    assert (ours.status, ours.message, ours.success, ours.nfev) == (
        ref.status, ref.message, ref.success, ref.nfev)
    assert np.array_equal(ours.t, np.asarray(ref.t, dtype=float))
    assert np.array_equal(ours.y, np.asarray(ref.y, dtype=float).reshape(ours.y.shape))
    return ours


def recorded_solves(module, monkeypatch, run):
    """The (fun, t_span, y0, kwargs) of every solve ``run()`` makes through ``module``."""
    calls = []
    real = module.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        calls.append((fun, t_span, np.array(y0), kwargs))
        return real(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(module, "solve_ivp", recording)
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", CONTINUOUS)
def test_every_scenario_segment_matches_scipy(name, monkeypatch):
    sc = load_scenario(name)
    calls = recorded_solves(flow, monkeypatch, lambda: rf.integrate_flow(
        sc.operator, sc.x0, sc.schedule, sc.integrator))
    assert len(calls) == 1 + len(sc.schedule.breakpoints(sc.integrator.t_end))
    for fun, t_span, y0, kwargs in calls:
        assert kwargs["t_eval"] is not None  # every bundled scenario has a sample grid
        assert_same(fun, t_span, y0, **kwargs)
        assert_same(fun, t_span, y0, **{**kwargs, "t_eval": None})


def test_lemma_batch_matches_scipy(monkeypatch):
    alphas, gammas = np.linspace(0.5, 4.0, 5), np.linspace(0.2, 0.8, 5)
    calls = recorded_solves(rates, monkeypatch, lambda: rf.verify_comparison_lemmas(
        alphas[:, None], gammas[None, :], 1.0))
    (fun, t_span, y0, kwargs), = calls
    assert y0.size == 30
    assert assert_same(fun, t_span, y0, **kwargs).nfev > 1000


def test_rel_tol_below_floor_warns_and_matches_scipy():
    def fun(t, y):
        return -y

    with pytest.warns(UserWarning, match="rtol") as ours:
        flow.solve_ivp(fun, (0.0, 1.0), [1.0, 2.0], rtol=1e-16, atol=1e-12)
    with pytest.warns(UserWarning, match="rtol") as ref:
        scipy_integrate.solve_ivp(fun, (0.0, 1.0), [1.0, 2.0], rtol=1e-16, atol=1e-12)
    assert str(ours[0].message) == str(ref[0].message)
    with pytest.warns(UserWarning, match="rtol"):
        assert_same(fun, (0.0, 1.0), [1.0, 2.0], rtol=1e-16, atol=1e-12)


@pytest.mark.parametrize("t_eval", [None, np.linspace(0.0, 1.0, 11)])
def test_right_side_going_nan_fails_like_scipy(t_eval):
    def fun(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)

    sol = assert_same(fun, (0.0, 1.0), [1.0, -1.0], rtol=1e-9, atol=1e-12, t_eval=t_eval)
    assert sol.status == -1 and not sol.success
    assert "step size" in sol.message


@pytest.mark.parametrize("t_eval", [None, [0.5, 1.0]])
def test_right_side_nan_at_t0_fails_at_once(t_eval):
    # a nan initial step passes no step size test: the solve must fail, not spin
    calls = 0

    def fun(t, y):
        nonlocal calls
        calls += 1
        assert calls < 1000, "the solve kept evaluating a nan right-hand side"
        return np.array([np.nan])

    start = time.perf_counter()
    sol = flow.solve_ivp(fun, (0.0, 1.0), np.array([1.0]), rtol=1e-6, atol=1e-9,
                         t_eval=t_eval)
    assert time.perf_counter() - start < 1.0
    assert sol.status == -1 and not sol.success
    assert "initial step size is nan" in sol.message


@pytest.mark.parametrize("value", [np.inf, 1e300, np.nan])
def test_right_side_not_finite_or_too_large_at_t0_fails_without_warning(value):
    # inf, or 1e300 whose norm overflows, makes h0 = 0 and nan makes it nan; the
    # solve fails with status -1 (RuntimeWarnings are errors in this suite)
    sol = flow.solve_ivp(lambda t, y: np.array([value]), (0.0, 1.0), np.array([1.0]),
                         rtol=1e-6, atol=1e-9)
    assert sol.status == -1 and not sol.success
    assert "initial step size is" in sol.message and sol.nfev == 2


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_right_side_not_finite_at_t0_fails_from_a_small_state(value):
    # y0 = 0 takes h0 = 1e-6 whatever fun is, so the h0 test alone lets the
    # step loop run on inf/nan stages; fun itself is tested at t0
    sol = flow.solve_ivp(lambda t, y: np.array([value]), (0.0, 1.0), np.array([0.0]),
                         rtol=1e-6, atol=1e-9)
    assert sol.status == -1 and not sol.success
    assert "initial step size is 1e-06" in sol.message and sol.nfev == 2


def test_finite_right_side_overflowing_the_norms_still_solves():
    # fun = 1e300 overflows d1 from y0 = 0, but it is finite: the solve runs
    # without a warning (RuntimeWarnings are errors in this suite), as scipy's does
    def fun(t, y):
        return np.array([1e300])

    assert flow.solve_ivp(fun, (0.0, 1.0), np.array([0.0]), rtol=1e-6, atol=1e-9).success
    with np.errstate(over="ignore"):  # scipy's own norms overflow and warn
        assert_same(fun, (0.0, 1.0), np.array([0.0]), rtol=1e-6, atol=1e-9)


def test_step_budget_fails_the_solve(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    sol = flow.solve_ivp(lambda t, y: -y, (0.0, 10.0), [1.0], rtol=1e-9, atol=1e-12)
    assert sol.status == -1 and not sol.success and "work budget" in sol.message
    assert sol.t.size == 4  # t0 and the three accepted steps
    monkeypatch.setattr(flow, "MAX_STEPS", 1000)
    assert flow.solve_ivp(lambda t, y: -y, (0.0, 10.0), [1.0], rtol=1e-9,
                          atol=1e-12).success


def test_step_budget_stops_the_flow_with_its_partial_trajectory(two_lines, monkeypatch,
                                                                 tmp_path, capsys):
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    cfg = rf.IntegratorConfig("rk45", 1.0)
    with pytest.raises(rf.IntegrationError, match="work budget") as exc:
        rf.integrate_flow(two_lines["op"], [1.0, 1.0], rf.PiecewiseConstant(
            [0.0, 0.05], [1.0, 0.5]), cfg)
    # [0, 0.05] takes 2 steps, [0.05, 1] more than 5: the partial ends at 0.05
    assert exc.value.partial.times()[-1] == 0.05
    assert main(["run", "two_lines_60deg", "--out-dir", str(tmp_path)]) == 3
    assert "work budget" in capsys.readouterr().err


def test_step_budget_stops_the_scalar_solve(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    with pytest.raises(rf.FitError, match="work budget"):
        rf.integrate_scalar_decay(1.0, 1.0, 1.0, 20.0)
