"""Integration of the relaxed fixed-point flow dx/dt = lambda(t)(T(x) - x).

Two modes share one metric pipeline: a continuous mode (adaptive or fixed-step
integrators approximating the strong global solution) and a discrete mode (the
relaxed iteration x_{k+1} = (1-lam_k) x_k + lam_k T(x_k)). All fixed-step methods
run one marcher over a time grid: an Euler step of size h from t_k is the relaxed
step with relaxation h lambda(t_k), so unit-step Euler is that iteration, bit for bit.

The vector field is globally Lipschitz (T nonexpansive, lambda <= 1), so no
stability guard beyond standard adaptive control is needed.
"""

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, IntegrationError, UsageError
from .fixset import FixSetOracle, residual
from .operators import Operator
from .validation import as_vector

# Residual below which the final iterate is trusted as the limit point.
LIMIT_RESIDUAL_TOL = 1e-9

_UNIT_GRID_TOL = 1e-9

# Work budget: the most steps a fixed-step or unit-step run may take, and the
# most sample times a config may ask the adaptive method to record. Configs
# also bound the dimension, estimator samples and Dykstra cycles by it.
MAX_STEPS = 1_000_000


def solve_ivp(*args, **kwargs):
    """The ODE solver, imported on the first call: loading its package takes
    most of the start-up time, which runs that solve no ODE never pay."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


# ---------------------------------------------------------------------------
# Relaxation schedules
# ---------------------------------------------------------------------------

class LambdaSchedule:
    """Measurable relaxation function lambda: [0, inf) -> [0, 1].

    ``inf_value`` is inf lambda(t) and ``inf_product`` is inf lambda(1-lambda),
    both exact for the closed-form variants below.
    """

    inf_value: float
    inf_product: float

    def __call__(self, t):
        """lambda at a time ``t`` (a float) or at each entry of an array of times."""
        raise NotImplementedError

    def breakpoints(self, t_end: float) -> list[float]:
        """Discontinuity times in (0, t_end); integration restarts at each."""
        return []

    def is_unit_aligned(self) -> bool:
        """True when the schedule is constant on every interval [k, k+1)."""
        return False


class Constant(LambdaSchedule):
    def __init__(self, value: float):
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"lambda must lie in [0,1], got {value}")
        self.value = value
        self.inf_value = value
        self.inf_product = value * (1.0 - value)

    def __call__(self, t):
        return np.full(np.shape(t), self.value)[()]

    def is_unit_aligned(self) -> bool:
        return True


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
        if not np.all((self.values >= 0.0) & (self.values <= 1.0)):
            raise UsageError("values must lie in [0,1]")
        self.inf_value = float(self.values.min())
        self.inf_product = float((self.values * (1.0 - self.values)).min())

    def __call__(self, t):
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.values[np.maximum(idx, 0)]

    def breakpoints(self, t_end: float) -> list[float]:
        return self.times[(self.times > 0.0) & (self.times < t_end)].tolist()

    def is_unit_aligned(self) -> bool:
        return bool(np.all(np.abs(self.times - np.round(self.times)) < _UNIT_GRID_TOL))


class Sinusoid(LambdaSchedule):
    """clip(offset + amplitude * sin(omega t), 0, 1), an analytic schedule.

    The clipped range is [clip(offset-|amplitude|), clip(offset+|amplitude|)]
    and v(1-v) is concave, so both infima sit at the range endpoints.
    """

    def __init__(self, offset: float, amplitude: float, omega: float):
        if not omega > 0.0:
            raise UsageError("omega must be positive")
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        lo = min(max(self.offset - abs(self.amplitude), 0.0), 1.0)
        hi = min(max(self.offset + abs(self.amplitude), 0.0), 1.0)
        self.inf_value = lo
        self.inf_product = min(lo * (1.0 - lo), hi * (1.0 - hi))

    def __call__(self, t):
        return np.clip(self.offset + self.amplitude * np.sin(self.omega * t), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Integrator configuration
# ---------------------------------------------------------------------------

_METHODS = ("euler_unit", "euler", "rk4", "rk45")


@dataclass(frozen=True)
class IntegratorConfig:
    """How to march the flow: method, horizon, and which times to record.

    ``sample_times`` (adaptive method only) pins the recorded grid; otherwise
    every ``sample_stride``-th step is recorded. Endpoints are always kept.
    """

    method: str
    t_end: float
    h: Optional[float] = None
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    sample_stride: int = 1
    sample_times: Optional[tuple[float, ...]] = None

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
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise UsageError("tolerances must be positive")
        if self.sample_stride < 1:
            raise UsageError("sample_stride must be a positive integer")
        if self.sample_times is not None:
            ts = np.asarray(self.sample_times, dtype=float)
            if not np.all((ts >= 0.0) & (ts <= self.t_end + 1e-12)):
                raise UsageError("sample_times must lie in [0, t_end]")
            if np.any(np.diff(ts) <= 0.0):
                raise UsageError("sample_times must be strictly increasing")
            if self.method != "rk45":
                raise UsageError("explicit sample_times require the rk45 method")
            object.__setattr__(self, "sample_times", tuple(ts.tolist()))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectorySample:
    t: float
    x: np.ndarray
    residual: float
    speed: float
    dist_fix: Optional[float] = None


@dataclass
class Trajectory:
    samples: list[TrajectorySample]
    mode: str  # "continuous" | "discrete"
    schedule: Optional[LambdaSchedule]
    limit_estimate: Optional[np.ndarray] = None
    info: dict = field(default_factory=dict)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def states(self) -> np.ndarray:
        return np.array([s.x for s in self.samples])

    @property
    def dim(self) -> int:
        return self.samples[0].x.shape[0]

    def metric(self, name: str) -> np.ndarray:
        """Per-sample series: 'residual', 'dist_fix' or 'dist_to_limit'."""
        if name == "residual":
            return np.array([s.residual for s in self.samples])
        if name == "dist_fix":
            return np.array([np.nan if s.dist_fix is None else s.dist_fix
                             for s in self.samples])
        if name == "dist_to_limit":
            if self.limit_estimate is None:
                raise UsageError("trajectory has no limit_estimate; run longer or "
                                 "use another metric")
            xs = self.states()
            return np.linalg.norm(xs - self.limit_estimate[None, :], axis=1)
        raise UsageError(f"unknown metric {name!r}")

    def to_csv(self, path) -> None:
        """Write `t,x_0..x_{n-1},residual,dist_fix,speed` with 17 significant digits."""
        dim = self.dim
        # one template per row kind, filled once per row; csv's "\r\n" line ends
        cells = ",".join([_CELL] * (dim + 2))
        with_dist = f"{cells},{_CELL},{_CELL}\r\n"
        without_dist = f"{cells},,{_CELL}\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["t"] + [f"x_{i}" for i in range(dim)]
                              + ["residual", "dist_fix", "speed"]) + "\r\n")
            fh.writelines(
                without_dist % (s.t, *s.x.tolist(), s.residual, s.speed)
                if s.dist_fix is None else
                with_dist % (s.t, *s.x.tolist(), s.residual, s.dist_fix, s.speed)
                for s in self.samples)

    @staticmethod
    def from_csv(path) -> "Trajectory":
        """Read a ``to_csv`` file; malformed ones raise UsageError naming file and line."""
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
                samples = [_parse_row(row, dim) for row in reader]
                if not samples:
                    raise UsageError("no samples after the header")
            except (ValueError, csv.Error) as exc:  # UsageError is a ValueError too
                raise UsageError(f"{path}, line {max(reader.line_num, 1)}: {exc}") from None
        ts = np.array([s.t for s in samples])
        mode = "discrete" if np.all(ts == np.round(ts)) else "continuous"
        return Trajectory(samples, mode, schedule=None, info={"source": "csv"})


def _parse_row(row: list[str], dim: int) -> TrajectorySample:
    if len(row) < dim + 4:
        raise UsageError(f"expected {dim + 4} fields, got {len(row)}")
    t, *x, res, dist, speed = row[:dim + 4]
    return TrajectorySample(_finite(t), np.array([_finite(v) for v in x]), _finite(res),
                            _finite(speed), None if dist == "" else _finite(dist))


_CELL = "%.17g"  # the same digits as format(v, ".17g"): round trips any double


def _fmt(v: float) -> str:
    return _CELL % float(v)


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise UsageError(f"non-finite value {cell!r}")
    return value


# ---------------------------------------------------------------------------
# Metric evaluation
# ---------------------------------------------------------------------------

def _measured(op: Operator, schedule: LambdaSchedule, oracle: Optional[FixSetOracle],
              times, states, dists, mode: str, info: dict) -> Trajectory:
    """Trajectory through ``(times, states)``: residual and speed from one batch
    evaluation of T and lambda, dist_fix from ``oracle`` (else ``dists``) one sample
    at a time, as perfbench/test_perfbench_trace.py counts; failures name the sample."""
    res = residual(op, np.array(states))
    speed = schedule(np.array(times, dtype=float)) * res
    if oracle is not None:
        dists = []
        for i, (t, x) in enumerate(zip(times, states)):
            try:
                dists.append(oracle.distance_to(x).distance)
            except ConvergenceError as exc:
                raise ConvergenceError(f"oracle failed at sample {i} (t={t:g}): {exc}",
                                       result=exc.result) from exc
    samples = [TrajectorySample(float(t), x, float(r), float(v), d)
               for t, x, r, v, d in zip(times, states, res, speed, dists)]
    limit = samples[-1].x.copy() if samples[-1].residual < LIMIT_RESIDUAL_TOL else None
    return Trajectory(samples, mode, schedule, limit, info)


def _finalize(op: Operator, schedule: LambdaSchedule, oracle: Optional[FixSetOracle],
              points: list[tuple[float, np.ndarray]], mode: str, info: dict) -> Trajectory:
    times, states = zip(*points)
    return _measured(op, schedule, oracle, times, states, [None] * len(points),
                     mode, info)


def sample_metrics(traj: Trajectory, op: Operator,
                   oracle: Optional[FixSetOracle] = None) -> Trajectory:
    """Recompute residual/speed (and dist_fix when an oracle is given). Idempotent.

    Oracle failures propagate with the index of the offending sample.
    """
    if traj.schedule is None:
        raise UsageError("trajectory carries no schedule; cannot recompute speed")
    return _measured(op, traj.schedule, oracle, [s.t for s in traj.samples],
                     [s.x for s in traj.samples], [s.dist_fix for s in traj.samples],
                     traj.mode, dict(traj.info))


# ---------------------------------------------------------------------------
# Fixed-step marching: the relaxed iteration, unit-step Euler, Euler and RK4
# ---------------------------------------------------------------------------

def _relaxed_step(x: np.ndarray, lam: float, tx: np.ndarray) -> np.ndarray:
    return (1.0 - lam) * x + lam * tx


def _march(op: Operator, x0: np.ndarray, times: np.ndarray, schedule: LambdaSchedule,
           oracle: Optional[FixSetOracle], stride: int, method: str, **info) -> Trajectory:
    """Step x0 = x(times[0]) across ``times``, recording every ``stride``-th step
    and the last. An RK4 step is the classical four-stage one; any other step
    from t_k to t_{k+1} is the relaxed step of relaxation (t_{k+1} - t_k) lambda(t_k):
    explicit Euler for the flow, and at unit steps the relaxed iteration itself."""
    dts = np.diff(times)
    relaxations = dts * schedule(times[:-1])
    cuts = set(schedule.breakpoints(float(times[-1]))) if method == "rk4" else set()

    def field_at(t, x, lam=schedule):
        return lam(t) * (op(x) - x)

    points = [(float(times[0]), x0)]
    x = x0
    steps = zip(times[:-1].tolist(), dts.tolist(), relaxations.tolist())
    for k, (t, dt, lam) in enumerate(steps, start=1):
        if method == "rk4":
            k1 = field_at(t, x)
            k2 = field_at(t + dt / 2, x + (dt / 2) * k1)
            k3 = field_at(t + dt / 2, x + (dt / 2) * k2)
            k4 = field_at(t + dt, x + dt * k3, _segment_lambda(schedule, times[k], cuts))
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            x = _relaxed_step(x, lam, op(x))
        if k % stride == 0 or k == dts.size:
            points.append((float(times[k]), x))
    mode = "continuous" if method in ("euler", "rk4") else "discrete"
    return _finalize(op, schedule, oracle, points, mode, {"method": method, **info})


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

    ``lambdas`` may be a sequence (at least K values), a scalar, or a
    LambdaSchedule sampled at integer times. Sample times are 0..K.
    """
    if K < 1:
        raise UsageError("K must be >= 1")
    x0 = as_vector(x0, op.dim)
    K = int(K)
    return _march(op, x0, np.arange(K + 1.0), _schedule_from(lambdas, K), oracle, 1,
                  "km", K=K)


# ---------------------------------------------------------------------------
# Continuous integration
# ---------------------------------------------------------------------------

def _segments(schedule: LambdaSchedule, t_end: float) -> list[tuple[float, float]]:
    cuts = [0.0] + schedule.breakpoints(t_end) + [t_end]
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def _step_grid(schedule: LambdaSchedule, t_end: float, h: float) -> np.ndarray:
    """0, then steps of size h from the start of each segment; a segment's last
    step ends exactly at its breakpoint, so the grid ends exactly at t_end."""
    grid = [np.zeros(1)]
    for a, b in _segments(schedule, t_end):
        n_steps = max(int(np.ceil((b - a) / h - 1e-12)), 1)
        seg = np.minimum(a + np.arange(1, n_steps + 1) * h, b)
        seg[-1] = b
        grid.append(seg)
    return np.concatenate(grid)


def _segment_lambda(schedule: LambdaSchedule, b: float, cuts) -> LambdaSchedule:
    """lambda on a segment [a, b), read up to and including b: at an interior
    breakpoint b (one of ``cuts``) that is the ending piece's value, not the next
    piece's. A segment that ends anywhere else keeps ``schedule`` itself."""
    if b not in cuts:
        return schedule
    before = float(np.nextafter(b, -np.inf))
    return lambda t: schedule(min(t, before))


def _adaptive_run(op, x0, schedule, config, oracle) -> Trajectory:
    cuts = set(schedule.breakpoints(config.t_end))
    want = None if config.sample_times is None else np.asarray(config.sample_times)

    points = [(0.0, x0)]
    x = x0
    nfev = 0
    for a, b in _segments(schedule, config.t_end):
        t_eval = None
        if want is not None:
            inside = want[(want > a + 1e-15) & (want < b - 1e-15)]
            t_eval = np.unique(np.concatenate([inside, [b]]))
        lam = _segment_lambda(schedule, b, cuts)
        sol = solve_ivp(lambda t, y: lam(t) * (op(y) - y), (a, b), x, method="RK45",
                        rtol=config.rel_tol, atol=config.abs_tol, t_eval=t_eval,
                        dense_output=False)
        nfev += sol.nfev
        if not sol.success:
            partial = _finalize(op, schedule, oracle, points, "continuous",
                                {"method": "rk45", "status": sol.status,
                                 "message": sol.message})
            raise IntegrationError(
                f"adaptive integration failed on [{a:g}, {b:g}]: {sol.message}",
                partial=partial,
            )
        ts, ys = sol.t, sol.y.T
        if want is None:
            # record every sample_stride-th accepted step, plus the endpoint
            idx = np.arange(1, ts.size)
            idx = idx[(idx % config.sample_stride == 0) | (idx == ts.size - 1)]
        else:
            # solve_ivp returns exactly t_eval: the wanted times inside (a, b),
            # then b, which is recorded only when it is wanted too
            end_wanted = b == config.t_end or bool(np.any(np.abs(want - b) <= 1e-12))
            idx = np.arange(ts.size if end_wanted else ts.size - 1)
        points.extend(zip(ts[idx].tolist(), ys[idx]))
        x = ys[-1]
    info = {"method": "rk45", "rel_tol": config.rel_tol, "abs_tol": config.abs_tol,
            "nfev": int(nfev)}
    return _finalize(op, schedule, oracle, points, "continuous", info)


def integrate_flow(op: Operator, x0, schedule: LambdaSchedule,
                   config: IntegratorConfig,
                   oracle: Optional[FixSetOracle] = None) -> Trajectory:
    """Approximate the strong global solution of dx/dt = lambda(t)(T(x) - x).

    x(0) = x0 exactly. Integration restarts at schedule discontinuities so no
    step straddles one. With the unit-step Euler method the run *is* the
    relaxed iteration and matches km_iterate bit for bit at integer times.
    """
    x0 = as_vector(x0, op.dim)
    if config.method == "euler_unit":
        K = int(round(config.t_end))
        if abs(config.t_end - K) > _UNIT_GRID_TOL or K < 1:
            raise UsageError("euler_unit requires an integer t_end >= 1")
        if not schedule.is_unit_aligned():
            raise UsageError("euler_unit requires a schedule constant on unit intervals")
        # unit-step Euler is the discrete iteration viewed in continuous time
        return _march(op, x0, np.arange(K + 1.0), schedule, oracle, config.sample_stride,
                      "euler_unit", K=K)
    if config.method in ("euler", "rk4"):
        times = _step_grid(schedule, config.t_end, config.h)
        return _march(op, x0, times, schedule, oracle, config.sample_stride, config.method,
                      h=float(config.h), steps=times.size - 1)
    return _adaptive_run(op, x0, schedule, config, oracle)
