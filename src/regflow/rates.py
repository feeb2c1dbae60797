"""Decay-model fitting and rate-bound verification for trajectories.

Exponential decay (M e^{-rt}) is what bounded linear regularity predicts for
the flow; power-law decay (M t^{-rho}) is what Hoelder regularity predicts,
with exponent rho = gamma / (2 (1 - gamma)). Fits are least squares in the
model's own log space; bound checks evaluate the explicit inequalities from
the rate analysis at every recorded sample time.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FitError, NumericRangeError, UsageError
from .flow import Trajectory, _schedule_of, solve_ivp
from .regularity import InequalityReport, _report, record_dict
from .sets import row_norm
from .validation import as_vector

# Fit window default: drop the early transient, keep the last 80% of samples
# whose metric still sits above this floor.
METRIC_FLOOR = 1e-13
WINDOW_TAIL_FRACTION = 0.8
# Power-law bounds degenerate as t -> 0+; fits only use t >= 1 by default.
POWERLAW_MIN_T = 1.0


@dataclass(frozen=True)
class RateFit:
    """Fitted decay model: exponential y ~ M e^{-rate t} or powerlaw y ~ M t^{-rate}."""

    model: str
    M: float
    rate: float
    rss: float  # residual sum of squares in the model's log space
    n_points: int
    fit_window: tuple[float, float]

    @property
    def rss_per_point(self) -> float:
        return self.rss / self.n_points if self.n_points else float("inf")

    def to_dict(self) -> dict:
        return record_dict(self, rss_per_point=self.rss_per_point,
                           fit_window=list(self.fit_window))


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of checking explicit rate bounds at sample times.

    ``margins`` holds the worst (bound - observed) per named inequality;
    ``worst_margin`` is their minimum.
    """

    bound_name: str
    n_points: int
    worst_margin: float
    passed: bool
    tolerance: float
    margins: dict

    def to_dict(self) -> dict:
        return record_dict(self, margins=dict(self.margins), evaluated_at="sample times")


def _window_data(traj: Trajectory, metric: str, model: str,
                 window: Optional[tuple[float, float]]):
    t = traj.times()
    y = traj.metric(metric)
    ok = np.isfinite(y) & (y > 0.0)
    if window is None:
        above = ok & (y > METRIC_FLOOR)
        if model == "powerlaw":
            above &= t >= POWERLAW_MIN_T
        idx = np.flatnonzero(above)
        if idx.size == 0:
            return t[:0], y[:0], (0.0, 0.0)
        keep = idx[int(math.floor(idx.size * (1.0 - WINDOW_TAIL_FRACTION))):]
        lo, hi = float(t[keep[0]]), float(t[keep[-1]])
    else:
        lo, hi = float(window[0]), float(window[1])
        if model == "powerlaw" and lo <= 0.0:
            raise UsageError("power-law fits need a window with t_min > 0")
    sel = ok & (t >= lo) & (t <= hi)
    return t[sel], y[sel], (lo, hi)


def fit_decay(
    traj: Trajectory,
    metric: str = "residual",
    model: str = "exponential",
    window: Optional[tuple[float, float]] = None,
) -> Optional[RateFit]:
    """Least-squares fit of log(metric) against t (exponential) or log t (powerlaw).

    Returns None when the metric is identically zero in the window (the run
    already converged; nothing to fit). Raises FitError when fewer than 10
    positive samples, or fewer than two distinct times, are available, or when
    the squares of the fit variable (t or log t) or the fitted constant M leave
    the float range. Raises UsageError when the metric has no finite sample
    (``dist_fix`` of a run without an oracle), which is not convergence.
    """
    if model not in ("exponential", "powerlaw"):
        raise UsageError(f"model must be 'exponential' or 'powerlaw', got {model!r}")
    t, y, win = _window_data(traj, metric, model, window)
    raw = traj.metric(metric)
    if not np.isfinite(raw).any():
        raise UsageError("trajectory lacks dist_fix samples; rerun with an oracle")
    if t.size == 0 and np.nanmax(np.abs(raw)) == 0.0:
        return None
    if t.size < 10:
        raise FitError(
            f"only {t.size} positive samples of {metric!r} in window {win}; need >= 10"
        )
    if t.min() == t.max():
        raise FitError(f"all {t.size} samples in window {win} share one time; "
                       "need two distinct times")
    logy = np.log(y)
    design = t if model == "exponential" else np.log(t)
    with np.errstate(over="ignore"):
        squares = np.sum(design * design)  # what polyfit scales its design column by
    if not math.isfinite(squares):
        raise FitError(f"{model} fit in window {win}: the squares of the fit variable "
                       "leave the float range")
    slope, intercept = np.polyfit(design, logy, 1)
    rate = -float(slope)
    if not rate > 0.0:
        raise FitError(f"{model} fit gave nonpositive decay rate {rate:.3g}")
    pred = intercept + slope * design
    rss = float(np.sum((logy - pred) ** 2))
    with np.errstate(over="ignore"):
        constant = float(np.exp(intercept))
    if not math.isfinite(constant):
        raise FitError(f"{model} fit constant M = exp({float(intercept):.6g}) leaves the "
                       "float range")
    return RateFit(model, constant, rate, rss, int(t.size), win)


def select_model(
    traj: Trajectory,
    metric: str = "residual",
    window: Optional[tuple[float, float]] = None,
) -> tuple[RateFit, RateFit, str]:
    """Fit both models and choose the one with smaller per-point rss in its
    own log space. Returns (exponential fit, powerlaw fit, chosen model)."""
    exp_fit = fit_decay(traj, metric, "exponential", window)
    pow_fit = fit_decay(traj, metric, "powerlaw", window)
    if exp_fit is None or pow_fit is None:
        raise FitError("metric is identically zero; nothing to select between")
    chosen = "exponential" if exp_fit.rss_per_point <= pow_fit.rss_per_point else "powerlaw"
    return exp_fit, pow_fit, chosen


# ---------------------------------------------------------------------------
# Explicit rate bounds
# ---------------------------------------------------------------------------

def _bound_inputs(traj: Trajectory, x_bar, rate: str):
    """(lam*, t, d, ||x - xbar||) per sample for a rate bound, after the
    prerequisites every bound shares: inf lambda > 0, a complete dist_fix
    series and a limit point (``x_bar``, else the trajectory's limit estimate)."""
    lam_star = _schedule_of(traj).inf_value
    if not lam_star > 0.0:
        raise UsageError(f"the {rate} bound needs inf lambda > 0")
    d = traj.metric("dist_fix")
    if np.any(~np.isfinite(d)):
        raise UsageError("trajectory lacks dist_fix samples; rerun with an oracle")
    if x_bar is not None:
        xbar = as_vector(x_bar, traj.dim)
    elif traj.limit_estimate is None:
        raise UsageError(
            "trajectory has no limit_estimate (final residual above threshold); "
            "run longer, or pass x_bar explicitly"
        )
    else:
        xbar = traj.limit_estimate
    err = row_norm(traj.states() - xbar[None, :])
    return lam_star, traj.times(), d, err


def _bound_check(bound_name: str, tol: float, **margins: np.ndarray) -> BoundCheck:
    """The verdict from per-sample margins (bound - observed), kept in the given order."""
    worst_margins = {name: float(m.min()) for name, m in margins.items()}
    worst = min(worst_margins.values())
    n_points = next(iter(margins.values())).size
    return BoundCheck(bound_name, n_points, worst, bool(worst >= -tol), tol, worst_margins)


def check_linear_rate_bound(
    traj: Trajectory,
    kappa: float,
    *,
    tol: float = 1e-9,
    x_bar=None,
) -> BoundCheck:
    """Check the three displayed inequalities of the exponential-rate analysis:

        d^2(x(t), F) <= exp(-(lam*/kappa^2) t) d^2(x0, F)     (squared decay)
        ||x(t) - xbar|| <= 2 d(x(t), F)                        (limit vs distance)
        ||x(t) - xbar|| <= 2 exp(-(lam*/(2 kappa^2)) t) d(x0,F) (trajectory bound)

    ``kappa`` must come from an estimate certified on a region containing the
    trajectory. d(x0, F) is the first sample's distance.
    """
    if not kappa > 0.0:
        raise UsageError("kappa must be positive")
    lam_star, t, d, err = _bound_inputs(traj, x_bar, "exponential")
    d0 = float(d[0])
    decay = np.exp(-(lam_star / kappa ** 2) * t)
    return _bound_check("exponential rate under linear regularity", tol,
                        squared_distance_decay=decay * d0 ** 2 - d ** 2,
                        limit_vs_distance=2.0 * d - err,
                        trajectory_bound=2.0 * np.sqrt(decay) * d0 - err)


def hoelder_bound_constant(kappa: float, gamma: float, lam_star: float) -> float:
    """The proof-built constant M0 with d(x(t), F) <= M0 t^{-gamma/(2(1-gamma))}.

    Comes from applying the power-law comparison lemma to u = d^2 with
    u' <= -alpha u^{1/gamma}, alpha = lam*/kappa^{2/gamma}: the lemma constant
    is (gamma/(alpha(1-gamma)))^{gamma/(1-gamma)} and M0 is its square root.
    Raises NumericRangeError when M0 overflows, as it does for gamma near 1.
    """
    if not 0.0 < gamma < 1.0:
        raise UsageError("gamma must lie in (0,1)")
    if not (kappa > 0.0 and lam_star > 0.0):
        raise UsageError("kappa and lambda* must be positive")
    kappa, gamma, lam_star = float(kappa), float(gamma), float(lam_star)
    try:
        alpha = lam_star / kappa ** (2.0 / gamma)
        m0 = (gamma / (alpha * (1.0 - gamma))) ** (gamma / (2.0 * (1.0 - gamma)))
    except (OverflowError, ZeroDivisionError):
        m0 = math.inf
    if not math.isfinite(m0):
        raise NumericRangeError(f"the Hoelder bound constant M0 overflows at "
                                f"kappa={kappa:.17g}, gamma={gamma:.17g}")
    return m0


def check_hoelder_rate_bound(
    traj: Trajectory,
    kappa: float,
    gamma: float,
    *,
    tol: float = 1e-6,
    t_min: float = POWERLAW_MIN_T,
    x_bar=None,
) -> BoundCheck:
    """Check the power-law bounds for Hoelder-regular operators at samples with
    t >= t_min:

        d(x(t), F)      <= M0 t^{-gamma/(2(1-gamma))}
        ||x(t) - xbar|| <= 2 M0 t^{-gamma/(2(1-gamma))}

    with M0 built from (kappa, gamma, lam*) as in the proof chain.
    """
    if not 0.0 < gamma < 1.0:
        raise UsageError("gamma must lie in (0,1)")
    lam_star, t, d, err = _bound_inputs(traj, x_bar, "power-law")
    sel = t >= t_min
    if not np.any(sel):
        raise UsageError(f"no samples with t >= {t_min}")
    m0 = hoelder_bound_constant(kappa, gamma, lam_star)
    bound = m0 * t[sel] ** (-gamma / (2.0 * (1.0 - gamma)))
    return _bound_check("power-law rate under Hoelder regularity", tol,
                        distance_bound=bound - d[sel],
                        trajectory_bound=2.0 * bound - err[sel])


# ---------------------------------------------------------------------------
# Scalar comparison lemmas
# ---------------------------------------------------------------------------

def _problems(t_end, u0, **positive):
    """Check and broadcast the parameters of independent scalar problems.

    ``t_end`` and every ``positive`` parameter must be finite and > 0, ``u0``
    finite and >= 0. Returns ``(t_end, [*positive arrays, u0 array])``.
    """
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise UsageError(f"t_end must be finite and positive, got {t_end!r}")
    try:
        arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                       for v in (*positive.values(), u0)))
    except ValueError as exc:
        raise UsageError(f"parameters do not broadcast: {exc}") from None
    if arrays[-1].size == 0:
        raise UsageError("no problems to solve (empty parameter arrays)")
    for name, arr in zip(positive, arrays):
        if not np.all(np.isfinite(arr) & (arr > 0.0)):
            raise UsageError(f"{name} must be finite and positive")
    if not np.all(np.isfinite(arrays[-1]) & (arrays[-1] >= 0.0)):
        raise UsageError("u0 must be finite and nonnegative")
    return t_end, arrays


def integrate_scalar_decay(
    alpha,
    exponent,
    u0,
    t_end: float,
    n_samples: int = 201,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-14,
) -> tuple[np.ndarray, np.ndarray]:
    """Tightly integrate u' = -alpha * u^exponent, u(0) = u0 >= 0.

    Returns (t, u) on a uniform grid of ``n_samples`` points over [0, t_end].
    ``alpha``, ``exponent`` and ``u0`` broadcast to n independent problems,
    solved in one RK45 call; ``u`` has shape ``broadcast_shape + (n_samples,)``,
    ``(n_samples,)`` for scalars. RK45 accepts a step when the RMS over
    components of err_i / (atol + rtol |u_i|) is at most 1, so both tolerances
    are divided by sqrt(n): that bounds every component's own ratio by 1, and
    each problem passes its own per-step error test at least as strictly as
    when solved alone (n = 1 is the plain single-problem solve). The right side
    is clamped at u = 0 so roundoff cannot push the state negative. ``t_end``,
    ``alpha`` and ``exponent`` must be finite and positive, ``u0`` finite and
    nonnegative, ``n_samples`` a positive integer.
    """
    t_end, (alpha, exponent, u0) = _problems(t_end, u0, alpha=alpha, exponent=exponent)
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 1):
        raise UsageError(f"n_samples must be a positive integer, got {n_samples!r}")
    shape = u0.shape
    alpha, exponent, u0 = alpha.ravel(), exponent.ravel(), u0.ravel()
    shrink = math.sqrt(u0.size)
    if np.all(exponent == exponent[0]):
        # a shared power stays scalar: numpy's exact square/sqrt paths for a
        # scalar exponent differ from elementwise pow in the last bit
        exponent = float(exponent[0])

    def rhs(_t, u):
        return -alpha * np.maximum(u, 0.0) ** exponent

    t_eval = np.linspace(0.0, t_end, n_samples)
    sol = solve_ivp(rhs, (0.0, t_end), u0, rtol=rel_tol / shrink, atol=abs_tol / shrink,
                    t_eval=t_eval)
    if not sol.success:
        raise FitError(f"scalar integration failed: {sol.message}")
    return sol.t, np.maximum(sol.y, 0.0).reshape(shape + sol.t.shape)


def powerlaw_comparison_constant(alpha, gamma):
    """M with u(t) <= M t^{-gamma/(1-gamma)} whenever u' <= -alpha u^{1/gamma}.

    Array arguments broadcast and give an array of constants.
    """
    if not np.all((0.0 < gamma) & (gamma < 1.0)):
        raise UsageError("gamma must lie in (0,1)")
    if not np.all(alpha > 0.0):
        raise UsageError("alpha must be positive")
    return (gamma / (alpha * (1.0 - gamma))) ** (gamma / (1.0 - gamma))


def verify_comparison_lemmas(
    alpha,
    gamma,
    u0,
    t_end: float = 20.0,
    tol: float = 1e-9,
) -> InequalityReport | list[InequalityReport]:
    """Numerically verify both scalar comparison lemmas.

    Exponential case u' = -alpha u: the solution must *equal* exp(-alpha t) u0
    up to integrator tolerance (the bound is saturated), so its slack is the
    negated deviation. Power-law case u' = -alpha u^{1/gamma}: the solution
    must stay below M t^{-gamma/(1-gamma)} with the lemma's constant M.
    Slacks are normalized by max(1, u0).

    ``alpha``, ``gamma`` and ``u0`` broadcast like ``integrate_scalar_decay``'s
    parameters: every distinct problem (one exponential per (alpha, u0), one
    power law per (alpha, gamma, u0)) is solved once, all in one call with the
    tolerances divided by sqrt(n). Scalars return one InequalityReport; arrays
    return a list of reports in C order of the broadcast shape.
    """
    t_end, (alpha, gamma, u0) = _problems(t_end, u0, alpha=alpha, gamma=gamma)
    a, g, u = alpha.ravel(), gamma.ravel(), u0.ravel()
    m = powerlaw_comparison_constant(a, g)
    k = a.size
    problems = np.concatenate([np.stack([a, np.ones(k), u], axis=1),
                               np.stack([a, 1.0 / g, u], axis=1)])
    distinct, inverse = np.unique(problems, axis=0, return_inverse=True)
    t, solutions = integrate_scalar_decay(*distinct.T, t_end)
    u_exp, u_pow = np.split(solutions[inverse.ravel()], 2)
    scale = np.maximum(1.0, u)

    deviation = np.abs(u_exp - u[:, None] * np.exp(-a[:, None] * t))
    slack_exp = -deviation.max(axis=1) / scale

    pos = t > 0.0
    margin = m[:, None] * t[pos] ** -(g / (1.0 - g))[:, None] - u_pow[:, pos]
    slack_pow = margin.min(axis=1) / scale

    reports = [
        _report(f"scalar decay comparison (alpha={ai:g}, gamma={gi:g}, u0={ui:g})",
                slacks, tol)
        for ai, gi, ui, *slacks in zip(a.tolist(), g.tolist(), u.tolist(),
                                       slack_exp.tolist(), slack_pow.tolist())
    ]
    return reports[0] if u0.ndim == 0 else reports
