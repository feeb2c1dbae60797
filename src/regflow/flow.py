"""Integration of the relaxed fixed-point flow dx/dt = lambda(t)(T(x) - x).

Two modes share one metric pipeline: a continuous mode (adaptive or fixed-step
integrators approximating the strong global solution) and a discrete mode (the
relaxed iteration x_{k+1} = (1-lam_k) x_k + lam_k T(x_k)). All five methods run
one loop, ``_march``, over the pieces of the schedule (integration restarts at
each breakpoint). ``rk45`` solves each piece with this module's own
Dormand-Prince 5(4) loop, ``solve_ivp``, which also solves the scalar
comparison-lemma ODEs in ``rates``. The fixed-step methods step across it by h:
an Euler step of size h from t_k is the relaxed step with relaxation
h lambda(t_k), so unit-step Euler is that iteration, bit for bit. Three
recording rules:

- unit steps (``km_iterate``, ``euler_unit``) run on 0, 1, ..., K as one piece,
  since the relaxed iteration reads lambda at the integers wherever it breaks;
- fixed steps count ``sample_stride`` from t = 0 across pieces, and the last
  step is always kept;
- ``rk45`` records its ``sample_times``, or else every ``sample_stride``-th
  accepted step of each piece and every piece's end.

The vector field is globally Lipschitz (T nonexpansive, lambda <= 1), so no
stability guard beyond standard adaptive control is needed.
"""

import csv
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, IntegrationError, UsageError
from .fixset import FixSetOracle, residual
from .operators import Operator
from .sets import row_norm
from .validation import as_vector

# Residual below which the final iterate is trusted as the limit point.
LIMIT_RESIDUAL_TOL = 1e-9

_UNIT_GRID_TOL = 1e-9

# Work budget: the most steps a fixed-step or unit-step run may take, the most
# accepted steps one adaptive solve may take, and the most sample times a config
# may ask the adaptive method to record. Configs also bound the dimension,
# estimator samples and Dykstra cycles by it.
MAX_STEPS = 1_000_000


# ---------------------------------------------------------------------------
# Relaxation schedules
# ---------------------------------------------------------------------------

class LambdaSchedule:
    """Measurable relaxation function lambda: [0, inf) -> [0, 1].

    ``inf_value`` is inf lambda(t), exact for the closed-form variants below.
    """

    inf_value: float

    def __call__(self, t):
        """lambda at a time ``t`` (a float) or at each entry of an array of times."""
        raise NotImplementedError

    def breakpoints(self, t_end: float) -> list[float]:
        """Discontinuity times in (0, t_end); integration restarts at each."""
        return []

    def is_unit_aligned(self) -> bool:
        """True when the schedule is constant on every interval [k, k+1)."""
        return False


class PiecewiseConstant(LambdaSchedule):
    """values[i] on [times[i], times[i+1}); the last value extends to infinity."""

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise UsageError("times and values must be 1-D of equal length")
        if self.times.size == 0:
            raise UsageError("need at least one segment")
        if self.times[0] != 0.0:
            raise UsageError("first segment must start at t=0")
        if np.any(np.diff(self.times) <= 0.0):
            raise UsageError("times must be strictly increasing")
        outside = ~((self.values >= 0.0) & (self.values <= 1.0))
        if outside.any():
            raise UsageError(f"lambda must lie in [0,1], got {self.values[outside][0]}")
        self.inf_value = float(self.values.min())
        self._starts = self.times[1:]  # the starts after the first piece's

    def __call__(self, t):
        # the number of pieces after the first that start at or before t
        return self.values[self._starts.searchsorted(t, "right")]

    def breakpoints(self, t_end: float) -> list[float]:
        return self.times[(self.times > 0.0) & (self.times < t_end)].tolist()

    def is_unit_aligned(self) -> bool:
        return bool(np.all(np.abs(self.times - np.round(self.times)) < _UNIT_GRID_TOL))


class Constant(PiecewiseConstant):
    """lambda(t) = value: one piece from t = 0."""

    def __init__(self, value: float):
        self.value = float(value)
        super().__init__([0.0], [self.value])


class Sinusoid(LambdaSchedule):
    """clip(offset + amplitude * sin(omega t), 0, 1), an analytic schedule.

    The clipped range is [clip(offset-|amplitude|), clip(offset+|amplitude|)],
    so its infimum is the lower endpoint.
    """

    def __init__(self, offset: float, amplitude: float, omega: float):
        if not omega > 0.0:
            raise UsageError("omega must be positive")
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.inf_value = min(max(self.offset - abs(self.amplitude), 0.0), 1.0)

    def __call__(self, t):
        # np.clip's values, -0.0 and nan included, without its Python-level wrapper
        v = self.offset + self.amplitude * np.sin(self.omega * t)
        return np.minimum(np.maximum(0.0, v), 1.0)


# ---------------------------------------------------------------------------
# Integrator configuration
# ---------------------------------------------------------------------------

_METHODS = ("euler_unit", "euler", "rk4", "rk45")


@dataclass(frozen=True)
class IntegratorConfig:
    """How to march the flow: method, horizon, and which times to record.

    ``sample_times`` (adaptive method only) pins the recorded grid, kept as one
    read-only float array; otherwise every ``sample_stride``-th step is recorded.
    Endpoints are always kept.
    """

    method: str
    t_end: float
    h: Optional[float] = None
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    sample_stride: int = 1
    sample_times: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise UsageError(f"unknown method {self.method!r}; choose from {_METHODS}")
        if not self.t_end > 0.0:
            raise UsageError("t_end must be positive")
        if self.method in ("euler", "rk4"):
            if self.h is None or not self.h > 0.0:
                raise UsageError(f"method {self.method!r} needs a positive step h")
        if self.method == "euler_unit":
            object.__setattr__(self, "h", 1.0)
        if self.method != "rk45" and not self.t_end / self.h <= MAX_STEPS:
            raise UsageError(f"{self.method} would take {self.t_end / self.h:.3g} steps; "
                             f"the work budget is {MAX_STEPS}")
        if not (0.0 < self.rel_tol < 1.0 and self.abs_tol > 0.0):
            raise UsageError("tolerances must be positive, and rel_tol below 1")
        if self.rel_tol < _MIN_RTOL:
            raise UsageError(f"rel_tol must be at least {_MIN_RTOL:.3g}, the solver's floor")
        if self.sample_stride < 1:
            raise UsageError("sample_stride must be a positive integer")
        if self.sample_times is not None:
            ts = np.array(self.sample_times, dtype=float)
            if not np.all((ts >= 0.0) & (ts <= self.t_end + 1e-12)):
                raise UsageError("sample_times must lie in [0, t_end]")
            if np.any(np.diff(ts) <= 0.0):
                raise UsageError("sample_times must be strictly increasing")
            if self.method != "rk45":
                raise UsageError("explicit sample_times require the rk45 method")
            ts.flags.writeable = False
            object.__setattr__(self, "sample_times", ts)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

class Trajectory:
    """A run sampled at times ``t`` (n,), stored as read-only columns: states
    ``x`` (n, d), ``residual``, ``dist_fix`` (nan where not measured) and
    ``speed``, each (n,). The constructor checks the shapes and takes the arrays over.

    ``dist_fix_oracle`` is the oracle that measured ``dist_fix``. Only
    ``_finalize``, the one place that measures, sets it; a trajectory built any
    other way (read from CSV, by hand, or refreshed without an oracle) has None.
    """

    def __init__(self, t, x, residual, dist_fix, speed, mode: str,
                 schedule: Optional[LambdaSchedule],
                 limit_estimate: Optional[np.ndarray] = None, info: Optional[dict] = None):
        self.mode = mode  # "continuous" | "discrete"
        self.schedule = schedule
        self.limit_estimate = limit_estimate
        self.info = {} if info is None else info
        self.dist_fix_oracle: Optional[FixSetOracle] = None
        columns = [np.asarray(c, dtype=float) for c in (t, x, residual, dist_fix, speed)]
        shapes = [c.shape for c in columns]
        if [len(s) for s in shapes] != [1, 2, 1, 1, 1] or len({s[0] for s in shapes}) != 1:
            raise UsageError("expected t (n,), x (n, d) and residual, dist_fix, speed (n,), "
                             f"got shapes {', '.join(map(str, shapes))}")
        for column in columns:
            column.flags.writeable = False
        self._t, self._x, self._residual, self._dist_fix, self._speed = columns

    @property
    def samples(self) -> np.ndarray:
        """The times column, as ``times()``. Its only reader is
        perfbench/spans.py (``len(result.samples)``); once that reads
        ``times().size`` this property goes (ROADMAP item 1)."""
        return self._t

    def times(self) -> np.ndarray:
        return self._t

    def states(self) -> np.ndarray:
        return self._x

    def speeds(self) -> np.ndarray:
        """lambda(t) ||x - T(x)|| per sample, the CSV's speed column."""
        return self._speed

    @property
    def dim(self) -> int:
        return self._x.shape[1]

    def metric(self, name: str) -> np.ndarray:
        """Per-sample series: 'residual', 'dist_fix' or 'dist_to_limit'."""
        if name == "residual":
            return self._residual
        if name == "dist_fix":
            return self._dist_fix
        if name == "dist_to_limit":
            if self.limit_estimate is None:
                raise UsageError("trajectory has no limit_estimate; run longer or "
                                 "use another metric")
            return row_norm(self._x - self.limit_estimate[None, :])
        raise UsageError(f"unknown metric {name!r}")

    def to_csv(self, path) -> None:
        """Write `t,x_0..x_{n-1},residual,dist_fix,speed` with 17 significant digits."""
        dim = self.dim
        # one template per row kind, filled once per row; csv's "\r\n" line ends
        cells = ",".join([_CELL] * (dim + 2))
        with_dist = f"{cells},{_CELL},{_CELL}\r\n"
        without_dist = f"{cells},,{_CELL}\r\n"
        table = np.column_stack([self._t, self._x, self._residual, self._speed])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["t"] + [f"x_{i}" for i in range(dim)]
                              + ["residual", "dist_fix", "speed"]) + "\r\n")
            fh.writelines(
                without_dist % tuple(row) if math.isnan(dist) else
                with_dist % (*row[:-1], dist, row[-1])
                for row, dist in zip(map(np.ndarray.tolist, table),
                                     self._dist_fix.tolist()))

    @staticmethod
    def from_csv(path) -> "Trajectory":
        """Read a ``to_csv`` file. A malformed file, a row whose cells do not match
        the header, or a time below the row before it raises UsageError naming
        the file and line."""
        try:
            fh = open(path, newline="")
        except OSError as exc:
            raise UsageError(f"cannot read trajectory CSV {path}: {exc}")
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
                dim = len(header) - 4
                if dim < 1 or header[0] != "t" or header[-3:] != ["residual", "dist_fix",
                                                                   "speed"]:
                    raise UsageError("not a trajectory CSV")
                rows, t_before = [], -math.inf
                for row in reader:
                    rows.append(_parse_row(row, dim))
                    t = rows[-1][0]
                    if t < t_before:
                        raise UsageError(f"time {t!r} is below the time before it, "
                                         f"{t_before!r}")
                    t_before = t
                if not rows:
                    raise UsageError("no samples after the header")
            except (ValueError, csv.Error) as exc:  # UsageError is a ValueError too
                raise UsageError(f"{path}, line {max(reader.line_num, 1)}: {exc}") from None
        table = np.array(rows)
        ts = table[:, 0].copy()
        mode = "discrete" if np.all(ts == np.round(ts)) else "continuous"
        return Trajectory(ts, table[:, 1:dim + 1].copy(),
                          *(table[:, j].copy() for j in range(dim + 1, dim + 4)),
                          mode, None, info={"source": "csv"})


def _parse_row(row: list[str], dim: int) -> list[float]:
    """[t, x_0..x_{dim-1}, residual, dist_fix (nan when empty), speed] of a CSV row."""
    if len(row) != dim + 4:
        raise UsageError(f"expected {dim + 4} fields, as the header has, got {len(row)}")
    *cells, dist, speed = row
    return [*map(_finite, cells), math.nan if dist == "" else _finite(dist), _finite(speed)]


_CELL = "%.17g"  # the same digits as format(v, ".17g"): round trips any double


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise UsageError(f"non-finite value {cell!r}")
    return value


# ---------------------------------------------------------------------------
# Metric evaluation
# ---------------------------------------------------------------------------

def _finalize(op: Operator, schedule: LambdaSchedule, oracle: Optional[FixSetOracle],
              times: np.ndarray, states: np.ndarray, mode: str, info: dict,
              dists=None) -> Trajectory:
    """Trajectory through ``times`` (n,) and ``states`` (n, d), arrays it takes
    over: residual and speed from one batch evaluation of T and lambda,
    dist_fix from ``oracle`` one sample at a time, as
    perfbench/test_perfbench_trace.py counts, recorded as measured by it (else
    ``dists``, else nan, measured by none); oracle failures name the sample."""
    res = residual(op, states)
    speed = schedule(times) * res
    if oracle is not None:
        dists = np.empty(times.size)
        for i, x in enumerate(states):
            try:
                dists[i] = oracle.distance_to(x).distance
            except ConvergenceError as exc:
                raise ConvergenceError(f"oracle failed at sample {i} (t={times[i]:g}): "
                                       f"{exc}", result=exc.result) from exc
    elif dists is None:
        dists = np.full(times.size, np.nan)
    limit = states[-1].copy() if res[-1] < LIMIT_RESIDUAL_TOL else None
    traj = Trajectory(times, states, res, dists, speed, mode, schedule, limit, info)
    traj.dist_fix_oracle = oracle
    return traj


def sample_metrics(traj: Trajectory, op: Operator,
                   oracle: Optional[FixSetOracle] = None) -> Trajectory:
    """Recompute residual/speed (and dist_fix when an oracle is given). Idempotent.

    The result records ``oracle`` as the one that measured dist_fix; without
    one it keeps the old column but records no oracle. Oracle failures
    propagate with the index of the offending sample.
    """
    return _finalize(op, _schedule_of(traj), oracle, traj.times(), traj.states(),
                     traj.mode, dict(traj.info), traj.metric("dist_fix"))


def _schedule_of(traj: Trajectory) -> LambdaSchedule:
    """The schedule that drove ``traj``, the only lambda its checks read; a
    trajectory read from CSV carries none."""
    if traj.schedule is None:
        raise UsageError("trajectory carries no schedule (read from CSV?)")
    return traj.schedule


# ---------------------------------------------------------------------------
# Marching: one loop over the schedule's pieces for all five methods
# ---------------------------------------------------------------------------

def _relaxed_step(x: np.ndarray, lam: float, tx: np.ndarray) -> np.ndarray:
    return (1.0 - lam) * x + lam * tx


def _ending_piece(schedule: LambdaSchedule, b: float) -> LambdaSchedule:
    """lambda on a piece [a, b) that ends at an interior breakpoint b, read up to
    and including b: there it is the ending piece's value, not the next piece's."""
    before = math.nextafter(b, -math.inf)
    return lambda t: schedule(min(t, before))


def _march(op: Operator, x0: np.ndarray, schedule: LambdaSchedule,
           oracle: Optional[FixSetOracle], method: str, t_end: float,
           config: Optional[IntegratorConfig] = None) -> Trajectory:
    """Step x0 = x(0) to ``t_end`` one schedule piece at a time and measure the
    recorded states; ``config`` is None for ``km_iterate`` (unit steps, stride 1).

    ``rk45`` makes one ``solve_ivp`` call per piece. Every other method steps from
    the piece's start by h (the last step ends exactly at its end); an RK4 step is
    the classical four-stage one, any other step from t_k to t_{k+1} the relaxed
    step of relaxation (t_{k+1} - t_k) lambda(t_k). Unit steps are one piece."""
    unit = method in ("km", "euler_unit")
    h, stride = (1.0, 1) if config is None else (config.h, config.sample_stride)
    want = None if config is None else config.sample_times
    cuts = [] if unit else schedule.breakpoints(t_end)

    def field(lam):
        return lambda t, y: lam(t) * (op(y) - y)

    times, states = [np.zeros(1)], [x0[None, :]]  # the recorded samples, per piece
    x, a, steps, nfev = x0, 0.0, 0, 0
    for i, b in enumerate(cuts + [t_end]):
        last = i == len(cuts)  # otherwise the piece ends at an interior breakpoint
        lam = schedule if last else _ending_piece(schedule, b)
        if method == "rk45":
            t_eval = None
            if want is not None:
                # strictly increasing already: want is, and inside lies below b;
                # a wanted time within 1e-12 of a or b is that end's sample
                inside = want[(want > a + 1e-12) & (want < b - 1e-12)]
                t_eval = np.concatenate([inside, [b]])
            # a stage that overflows is rejected by op(y) itself ("x must be
            # finite"), not by a numpy warning from the field
            with np.errstate(over="ignore", invalid="ignore"):
                sol = solve_ivp(field(lam), (a, b), x, rtol=config.rel_tol,
                                atol=config.abs_tol, t_eval=t_eval)
            nfev += sol.nfev
            if not sol.success:
                partial = _finalize(op, schedule, oracle, np.concatenate(times),
                                    np.concatenate(states), "continuous",
                                    {"method": "rk45", "status": sol.status,
                                     "message": sol.message})
                raise IntegrationError(
                    f"adaptive integration failed on [{a:g}, {b:g}]: {sol.message}",
                    partial=partial,
                )
            ts, ys = sol.t, sol.y.T
            if want is None:  # every stride-th accepted step of the piece, and its end
                idx = np.arange(1, ts.size)
                idx = idx[(idx % stride == 0) | (idx == ts.size - 1)]
            else:
                # ts is t_eval: the wanted times inside (a, b), then b, which is
                # recorded only when it is wanted too
                end_wanted = last or bool(np.any(np.abs(want - b) <= 1e-12))
                idx = np.arange(ts.size if end_wanted else ts.size - 1)
            ys, x = ys[idx], ys[-1]
        else:
            n = max(int(np.ceil((b - a) / h - 1e-12)), 1)
            ts = np.minimum(a + np.arange(n + 1) * h, b)
            ts[-1] = b  # the piece's last step ends exactly at its end
            dts = np.diff(ts)
            f, f_end = field(schedule), field(lam)
            idx, ys = [], []  # every stride-th step counted from t = 0, and the last
            grid = zip(ts[:-1].tolist(), dts.tolist(), (dts * schedule(ts[:-1])).tolist(),
                       ts[1:].tolist())
            # as for rk45: a step that overflows is rejected by the next op(x)
            with np.errstate(over="ignore", invalid="ignore"):
                for j, (t, dt, relaxation, t_next) in enumerate(grid, start=1):
                    if method == "rk4":
                        k1 = f(t, x)
                        k2 = f(t + dt / 2, x + (dt / 2) * k1)
                        k3 = f(t + dt / 2, x + (dt / 2) * k2)
                        k4 = (f_end if t_next == b else f)(t + dt, x + dt * k3)
                        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    else:
                        x = _relaxed_step(x, relaxation, op(x))
                    if (steps + j) % stride == 0 or (last and j == n):
                        idx.append(j)
                        ys.append(x)
            steps += n
            ys = np.array(ys).reshape(len(idx), x0.size)
        times.append(ts[idx])
        states.append(ys)
        a = b
    if method == "rk45":
        info = {"rel_tol": config.rel_tol, "abs_tol": config.abs_tol, "nfev": nfev}
    else:
        info = {"K": steps} if unit else {"h": float(h), "steps": steps}
    return _finalize(op, schedule, oracle, np.concatenate(times), np.concatenate(states),
                     "discrete" if unit else "continuous", {"method": method, **info})


def _schedule_from(lambdas, K: int) -> LambdaSchedule:
    """The schedule whose values at 0..K-1 are the relaxations lam_0..lam_{K-1}."""
    if isinstance(lambdas, LambdaSchedule):
        return lambdas
    if np.isscalar(lambdas):
        return Constant(lambdas)
    seq = np.asarray(lambdas, dtype=float)
    if seq.ndim != 1 or seq.size < K:
        raise UsageError(f"need at least {K} relaxation values, got shape {seq.shape}")
    return PiecewiseConstant(np.arange(K, dtype=float), seq[:K])


def km_iterate(op: Operator, x0, lambdas, K: int,
               oracle: Optional[FixSetOracle] = None) -> Trajectory:
    """Run x_{k+1} = (1-lam_k) x_k + lam_k T(x_k) for K steps.

    ``K`` is an integer in [1, MAX_STEPS], the work budget. ``lambdas`` may be a
    sequence (at least K values), a scalar, or a LambdaSchedule sampled at
    integer times. Sample times are 0..K.
    """
    if not (1 <= K <= MAX_STEPS and K == int(K)):
        raise UsageError(f"K must be an integer in [1, {MAX_STEPS}], the work budget; "
                         f"got {K!r}")
    x0 = as_vector(x0, op.dim)
    K = int(K)
    return _march(op, x0, _schedule_from(lambdas, K), oracle, "km", K)


# ---------------------------------------------------------------------------
# Adaptive Runge-Kutta: the Dormand-Prince 5(4) pair
# ---------------------------------------------------------------------------

# Dormand & Prince (1980) with Shampine's (1986) quartic dense output; see Hairer,
# Norsett & Wanner, Solving ODEs I, II.4-II.6. The coefficients, the step control
# and every array operation are those of scipy's RK45, so t, y and nfev match it
# bit for bit.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_MIN_RTOL = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class OdeResult:
    """``y[:, i]`` is the state at ``t[i]``; ``status`` is 0 when the solve
    reached the end of its interval and -1 when it failed, ``message`` why."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    message: str

    @property
    def success(self) -> bool:
        return self.status >= 0


def _rms(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v)) / v.size ** 0.5  # the IEEE operations of np.linalg.norm


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval=None) -> OdeResult:
    """Integrate y' = fun(t, y) from y(t0) = y0 over ``t_span = (t0, tf)``, t0 < tf;
    ``fun`` returns a float array shaped like y.

    Records every accepted step, or with ``t_eval`` (increasing, inside
    ``t_span``) the dense output at those times only. A step below ten ulps of t,
    more than MAX_STEPS accepted steps, a ``fun`` at t0 that is not finite, or an
    initial step that is not positive (nan or 0, from a ``y0`` that is not finite
    or a ``fun`` that overflows the step-size norms) fails the solve (status -1).
    ``nfev`` counts the calls of ``fun``: two for the initial step, six per step
    attempt.
    """
    t, tf = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if rtol < _MIN_RTOL:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {_MIN_RTOL})`.", stacklevel=2)
        rtol = _MIN_RTOL
    nfev = 2

    def result(status, message):
        if t_eval is None:
            return OdeResult(np.array(ts), np.vstack(ys).T, nfev, status, message)
        if not ts:
            return OdeResult(np.empty(0), np.empty((y.size, 0)), nfev, status, message)
        return OdeResult(np.hstack(ts), np.hstack(ys), nfev, status, message)

    # the initial step (Hairer, Norsett & Wanner, II.4); a fun or y0 at t0 that is
    # not finite, or overflows the norms, fails the solve without a warning (a
    # small y0 takes h0 = 1e-6 whatever fun is, so fun is tested itself)
    f = fun(t, y)
    abs_y = np.abs(y)
    scale = atol + abs_y * rtol
    with np.errstate(over="ignore", invalid="ignore"):
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, tf - t)
        y1 = y + h0 * f
    f1 = fun(t + h0, y1)

    if t_eval is None:
        ts, ys = [t], [y]
    else:
        t_eval, ts, ys, i_eval = np.asarray(t_eval), [], [], 0
    if not (h0 > 0 and np.isfinite(f).all()):  # d2 divides by h0; nan passes no step test
        return result(-1, f"The initial step size is {h0:g}: fun or y0 is not finite, "
                          f"or too large, at t0 = {t:g}.")
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = min(100 * h0, max(1e-6, h0 * 1e-3), tf - t)
    else:
        h_abs = min(100 * h0, (0.01 / max(d1, d2)) ** (1 / 5), tf - t)
    K = np.empty((7, y.size))
    KT, K5T = K.T, K[:-1].T
    # Python float nodes: t + c h rounds as numpy's float64 does, without its overhead
    stages = [(float(_C[s]), K[:s].T, _A[s, :s]) for s in range(1, 6)]
    for _ in range(MAX_STEPS):
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return result(-1, "Required step size is less than spacing between "
                                  "numbers.")
            t_new = min(t + h_abs, tf)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, (c, Ks, a) in enumerate(stages, start=1):
                K[s] = fun(t + c * h, y + Ks.dot(a) * h)
            y_new = y + h * K5T.dot(_B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 6
            abs_y_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_y_new) * rtol
            err = _rms(KT.dot(_E) * h / scale)
            if err < 1:  # accept; grow the step by at most 10, or 1 after a reject
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True

        if t_eval is None:
            ts.append(t_new)
            ys.append(y_new)
        else:  # the quartic interpolant at the wanted times in (t, t_new]
            j = t_eval.searchsorted(t_new, "right")
            if j > i_eval:
                x = (t_eval[i_eval:j] - t) / h
                x2 = x * x
                x3 = x2 * x
                p = np.array([x, x2, x3, x3 * x])  # the rows of scipy's cumprod of x
                ts.append(t_eval[i_eval:j])
                ys.append(h * KT.dot(_P).dot(p) + y[:, None])
                i_eval = j
        t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
        if t >= tf:
            return result(0, "The solver successfully reached the end of the "
                             "integration interval.")
    return result(-1, f"RK45 did not reach t = {tf:g} within {MAX_STEPS} accepted "
                      "steps, the work budget")


def integrate_flow(op: Operator, x0, schedule: LambdaSchedule,
                   config: IntegratorConfig,
                   oracle: Optional[FixSetOracle] = None) -> Trajectory:
    """Approximate the strong global solution of dx/dt = lambda(t)(T(x) - x).

    x(0) = x0 exactly. Integration restarts at schedule discontinuities so no
    step straddles one. With the unit-step Euler method the run *is* the
    relaxed iteration and matches km_iterate bit for bit at integer times.
    """
    x0 = as_vector(x0, op.dim)
    t_end = config.t_end
    if config.method == "euler_unit":
        t_end = round(config.t_end)
        if abs(config.t_end - t_end) > _UNIT_GRID_TOL or t_end < 1:
            raise UsageError("euler_unit requires an integer t_end >= 1")
        if not schedule.is_unit_aligned():
            raise UsageError("euler_unit requires a schedule constant on unit intervals")
    return _march(op, x0, schedule, oracle, config.method, t_end, config)
