"""Regularity estimation and inequality checking on concrete data.

An operator T is linearly regular on a region when d(x, Fix T) <= kappa * r(x)
with r(x) = ||x - T(x)||, and Hoelder regular when d(x, Fix T) <= kappa *
r(x)^gamma for some gamma in (0,1). The estimators sample a ball, fit the
constants, then inflate kappa until the bound holds on every retained sample,
so the result is a certificate over the samples rather than a regression. The
sampled kappa is a lower bound for the true regional constant (one-sided); it
converges from below as the sample count grows.

The check_* functions evaluate the descent and surrogate inequalities that
drive the rate proofs, reporting the worst slack (RHS - LHS) over the data.
Operators and oracles are evaluated on all samples as one ``(n, d)`` batch.
"""

from dataclasses import dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from .errors import DegenerateEstimateError, NumericRangeError, UsageError
from .fixset import FixSetOracle, Intersection, _violation, residual
from .flow import Trajectory, _schedule_of
from .operators import Operator, compose, convex_combination
from .sets import AffineSubspace, Ball, Box, HalfSpace, Hyperplane, PrimitiveSet, row_norm
from .validation import as_point, as_vector

# Residual (or max set distance) below which a sample is a 0/0 case near the
# fixed set and is excluded from ratio fits.
DEGENERACY_FLOOR = 1e-12

# Maximum sample spacing for finite-difference derivative checks.
MAX_DT_FOR_DERIVATIVES = 0.1


def record_dict(record, **overrides) -> dict:
    """A result record's fields as a JSON-ready dict, with ``overrides`` put in
    for the fields that need converting and for derived entries."""
    return {**{f.name: getattr(record, f.name) for f in fields(record)}, **overrides}


@dataclass(frozen=True)
class Region:
    """Closed ball B(center, radius) on which constants are estimated."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, name="center"))
        if not self.radius > 0.0:
            raise UsageError("region radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def to_dict(self) -> dict:
        return record_dict(self, center=self.center.tolist(), radius=float(self.radius))


def sample_region(region: Region, n: int, seed: int) -> np.ndarray:
    """n points uniform on the ball: Gaussian direction, radius ~ R * U^(1/dim).

    For a fixed seed the draws scale linearly with the radius, so estimates on
    nested regions share their sample rays.
    """
    rng = np.random.default_rng(seed)
    d = region.dim
    g = rng.standard_normal((n, d))
    norms = row_norm(g)[:, None]
    norms[norms == 0.0] = 1.0
    radii = region.radius * rng.random(n) ** (1.0 / d)
    return region.center[None, :] + (g / norms) * radii[:, None]


@dataclass(frozen=True)
class RegularityEstimate:
    """Certified (over the retained samples) regularity constants for an operator."""

    mode: str  # "linear" | "hoelder"
    kappa: float
    gamma: float  # 1.0 in linear mode
    region: Region
    n_samples: int
    max_violation: float  # worst d / (kappa * r^gamma) after inflation; <= 1
    excluded: int

    def to_dict(self) -> dict:
        return record_dict(self, region=self.region.to_dict())


@dataclass(frozen=True)
class CollectionEstimate:
    """Certified regularity constants for a collection of sets."""

    tau: float
    theta: float
    region: Region
    n_samples: int
    max_violation: float
    excluded: int

    def to_dict(self) -> dict:
        return record_dict(self, region=self.region.to_dict())


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of checking one inequality over concrete points.

    slack = RHS - LHS at each point; the check passes iff the most negative
    slack stays above -tolerance. ``excluded`` counts skipped points.
    """

    name: str
    n_points: int
    worst_slack: float
    tolerance: float
    passed: bool
    excluded: int = 0

    def to_dict(self) -> dict:
        return record_dict(self, evaluated_at="sample times")


def _report(name: str, slacks, tolerance: float, excluded: int = 0) -> InequalityReport:
    slacks = np.asarray(slacks, dtype=float)
    worst = float(slacks.min()) if slacks.size else 0.0
    return InequalityReport(name, int(slacks.size), worst, float(tolerance),
                            bool(worst >= -tolerance), excluded)


def _fit_ratio(dists: np.ndarray, resids: np.ndarray, mode: str) -> tuple[float, float]:
    """Return (kappa, gamma) such that d <= kappa * r^gamma on all inputs."""
    if mode == "linear":
        gamma = 1.0
    elif mode == "hoelder":
        pos = (dists > 0.0) & (resids > 0.0)
        if np.count_nonzero(pos) < 2:
            raise DegenerateEstimateError("not enough positive samples for a log-log fit")
        (slope, _), _, rank, _, _ = np.polyfit(np.log(resids[pos]), np.log(dists[pos]), 1,
                                               full=True)
        if rank < 2:
            raise DegenerateEstimateError("log-log fit is rank deficient")
        gamma = float(min(max(slope, 1e-6), 1.0))
    else:
        raise UsageError(f"mode must be 'linear' or 'hoelder', got {mode!r}")
    kappa = float(np.max(dists / resids ** gamma))
    if kappa <= 0.0:
        # all distances were zero; the trivial certificate
        kappa = DEGENERACY_FLOOR
    return kappa, gamma


def _all_finite(values: np.ndarray, what: str) -> None:
    """Raise NumericRangeError naming how many samples have a non-finite ``what``."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise NumericRangeError(f"{bad} of {values.size} samples have a non-finite {what}")


def _certify(pts: np.ndarray, measure, what: str, oracle: FixSetOracle, mode: str,
             degenerate: str) -> tuple[float, float, float, int]:
    """(kappa, gamma, max_violation, excluded) with d(x, F) <= kappa * base^gamma
    on every sample whose base, ``measure(pts)`` (the ``what`` of each sample),
    clears the degeneracy floor. A base or an oracle distance that is not
    finite certifies nothing: NumericRangeError names how many samples have one."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        base = measure(pts)
    _all_finite(base, what)
    keep = base >= DEGENERACY_FLOOR
    if not keep.any():
        raise DegenerateEstimateError(degenerate)
    dists = oracle.distance_to(pts[keep]).distance
    _all_finite(dists, "oracle distance")
    kappa, gamma = _fit_ratio(dists, base[keep], mode)
    max_violation = float(np.max(dists / (kappa * base[keep] ** gamma)))
    return kappa, gamma, max_violation, int(np.count_nonzero(~keep))


def estimate_operator_regularity(
    op: Operator,
    oracle: FixSetOracle,
    region: Region,
    n_samples: int = 1000,
    mode: str = "linear",
    seed: int = 0,
) -> RegularityEstimate:
    """Estimate (kappa, gamma) with d(x, Fix T) <= kappa * ||x-T(x)||^gamma on samples.

    Samples with residual below the degeneracy floor are excluded and counted;
    a residual or oracle distance that is not finite raises NumericRangeError.
    Identical (seed, region, n_samples) inputs give bitwise identical output.
    """
    if n_samples < 100:
        raise UsageError("need at least 100 samples for a meaningful estimate")
    pts = sample_region(region, n_samples, seed)
    kappa, gamma, max_violation, excluded = _certify(
        pts, partial(residual, op), "residual", oracle, mode,
        "all samples fell below the degeneracy floor (operator is the "
        "identity on this region?)")
    return RegularityEstimate(mode, kappa, gamma, region, n_samples,
                              max_violation, excluded)


def estimate_collection_regularity(
    sets: list[PrimitiveSet],
    region: Region,
    n_samples: int = 1000,
    mode: str = "linear",
    seed: int = 0,
    oracle: Optional[FixSetOracle] = None,
) -> CollectionEstimate:
    """Estimate (tau, theta) with d(x, inter C_i) <= tau * (max_i d(x, C_i))^theta.

    The intersection distance runs through the same oracle machinery as fixed
    sets (exact solve for affine collections, Dykstra otherwise); infeasible
    collections fail at oracle construction. When the intersection is known in
    closed form (e.g. a tangency point, where Dykstra converges sublinearly),
    pass it as ``oracle``. A set distance or oracle distance that is not finite
    raises NumericRangeError.
    """
    if n_samples < 100:
        raise UsageError("need at least 100 samples for a meaningful estimate")
    if oracle is None:
        oracle = Intersection(sets)
    pts = sample_region(region, n_samples, seed)
    tau, theta, max_violation, excluded = _certify(
        pts, partial(_violation, sets), "set distance", oracle, mode,
        "all samples lie in every set on this region")
    return CollectionEstimate(tau, theta, region, n_samples, max_violation, excluded)


# ---------------------------------------------------------------------------
# Inequality checks along trajectories
# ---------------------------------------------------------------------------

def check_avg_inequality(
    traj: Trajectory,
    op: Operator,
    x_star,
    *,
    tol: float = 1e-9,
) -> InequalityReport:
    """Per-sample check of the relaxed-step contraction toward a fixed point:

        ||v + x - x*||^2 + ((1-lam)/lam) ||v||^2 <= ||x - x*||^2,

    with v = lam(t) (T(x) - x) reconstructed exactly from the operator (no
    finite differences). Samples where lam(t)=0 are skipped and counted.
    """
    x_star = _fixed_point(op, x_star)
    lam = _schedule_of(traj)(traj.times())
    keep = lam > 0.0
    skipped = int(np.count_nonzero(~keep))
    lam, x = lam[keep], traj.states()[keep]
    v = lam[:, None] * (op(x) - x)
    lhs = row_norm(v + x - x_star) ** 2 + (1.0 - lam) / lam * row_norm(v) ** 2
    slacks = row_norm(x - x_star) ** 2 - lhs
    return _report("relaxed-step contraction toward fixed points", slacks, tol, skipped)


def check_descent(
    traj: Trajectory,
    op: Operator,
    oracle: FixSetOracle,
    x_star,
    *,
    tol: Optional[float] = None,
) -> InequalityReport:
    """Central-difference check of the two descent inequalities along the flow:

        (d/dt) d^2(x, Fix T)   <= -lam ||x - T(x)||^2
        (d/dt) ||x - x*||^2    <= -lam(1-lam) ||x - T(x)||^2 - ||v||^2

    The left sides are discretized, so the default tolerance scales with the
    sample spacing (10 * max dt, calibrated on a flow with a known closed-form
    solution, where the discretization error is O(dt^2)).

    d(x, Fix T) is the trajectory's ``dist_fix`` when ``oracle`` measured it,
    else one batched query of ``oracle``; a batch row answers like the point
    alone, so both give the same report.
    """
    schedule = _schedule_of(traj)
    ts = traj.times()
    if ts.size < 3:
        raise UsageError("need at least 3 samples for central differences")
    dts = np.diff(ts)
    if dts.max() > MAX_DT_FOR_DERIVATIVES * (1.0 + 1e-9):
        raise UsageError(
            f"sample spacing {dts.max():.3g} too coarse for derivative checks; "
            "use a denser sample_stride (dt <= 0.1)"
        )
    if tol is None:
        tol = 10.0 * float(dts.max())
    x_star = _fixed_point(op, x_star)

    xs = traj.states()
    if oracle is not None and traj.dist_fix_oracle is oracle:
        d = traj.metric("dist_fix")
    else:
        d = oracle.distance_to(xs).distance
    d2 = d ** 2
    e2 = row_norm(xs - x_star) ** 2
    lam = schedule(ts[1:-1])
    span = ts[2:] - ts[:-2]
    res = traj.metric("residual")[1:-1]
    res_sq, v_sq = res ** 2, (lam * res) ** 2
    lhs_fix, lhs_star = (d2[2:] - d2[:-2]) / span, (e2[2:] - e2[:-2]) / span
    slacks = np.concatenate([-lam * res_sq - lhs_fix,
                             -lam * (1.0 - lam) * res_sq - v_sq - lhs_star])
    return _report("descent of squared distances along the flow", slacks, tol)


def check_combination_bound(
    ops: list[Operator],
    weights,
    points,
    oracle: FixSetOracle,
) -> InequalityReport:
    """Check sum_i w_i rho_i ||x - T_i(x)||^2 <= 2 d(x, Fix T) ||x - T(x)||
    with T the convex combination of the ops (all sharing the fixed set of the
    oracle) and rho_i the SQNE modulus each op certifies."""
    rhos = _moduli(ops)
    weights = [float(w) for w in weights]
    T = convex_combination(ops, weights)
    x = as_point(points, T.dim)
    lhs = sum(wi * ri * residual(op, x) ** 2
              for wi, ri, op in zip(weights, rhos, ops))
    slacks = 2.0 * oracle.distance_to(x).distance * residual(T, x) - lhs
    return _report("combination residual bound (weighted constituents)", slacks, 1e-10)


def check_composition_bound(
    ops: list[Operator],
    points,
    oracle: FixSetOracle,
) -> InequalityReport:
    """Check sum_i rho_i ||Q_{i-1}(x) - Q_i(x)||^2 <= 2 d(x, Fix T) ||x - T(x)||
    where Q_0 = Id, Q_i = T_i ... T_1, T is the full composition and rho_i the
    SQNE modulus T_i certifies."""
    rhos = _moduli(ops)
    T = compose(ops)
    x = as_point(points, T.dim)
    lhs = 0.0
    q_prev = x
    for op, rho in zip(ops, rhos):
        q = op(q_prev)
        lhs = lhs + rho * row_norm(q_prev - q) ** 2
        q_prev = q
    slacks = 2.0 * oracle.distance_to(x).distance * residual(T, x) - lhs
    return _report("composition residual bound (partial stages)", slacks, 1e-10)


def _fixed_point(op: Operator, x_star) -> np.ndarray:
    x_star = as_vector(x_star, op.dim)
    star_res = residual(op, x_star)
    if star_res >= 1e-9:
        raise UsageError(f"x_star is not a fixed point (residual {star_res:.3e})")
    return x_star


def _moduli(ops: list[Operator]) -> list[float]:
    """Each operator's certified SQNE modulus rho."""
    for i, op in enumerate(ops):
        if op.meta.rho is None:
            raise UsageError(f"operator {i} ({op.label}) carries no SQNE modulus")
    return [op.meta.rho for op in ops]


# ---------------------------------------------------------------------------
# Operator certificates (sampled)
# ---------------------------------------------------------------------------

NONEXPANSIVE_TOL = 1e-12
CERTIFICATE_TOL = 1e-10


def _pairs(op: Operator, n_pairs: int, seed: int, radius: float):
    """Pairs (x, y) of consecutive draws in B(0, radius), and their images under T."""
    pts = sample_region(Region(np.zeros(op.dim), radius), 2 * n_pairs, seed)
    tpts = op(pts)
    return pts[0::2], pts[1::2], tpts[0::2], tpts[1::2]


def check_nonexpansiveness(op: Operator, n_pairs: int = 1000, seed: int = 0,
                           radius: float = 10.0) -> InequalityReport:
    """Sampled certificate ||T(x)-T(y)|| <= ||x-y|| on random pairs in a ball."""
    x, y, tx, ty = _pairs(op, n_pairs, seed, radius)
    slacks = row_norm(x - y) - row_norm(tx - ty)
    return _report(f"nonexpansiveness certificate [{op.label}]", slacks,
                   NONEXPANSIVE_TOL)


def check_averagedness(op: Operator, n_pairs: int = 500, seed: int = 0,
                       radius: float = 10.0) -> InequalityReport:
    """Sampled certificate for meta.alpha:
    ||Tx-Ty||^2 + ((1-a)/a)||(Id-T)x-(Id-T)y||^2 <= ||x-y||^2."""
    if op.meta.alpha is None:
        raise UsageError(f"operator {op.label} declares no averagedness constant")
    a = op.meta.alpha
    x, y, tx, ty = _pairs(op, n_pairs, seed, radius)
    lhs = row_norm(tx - ty) ** 2 + (1.0 - a) / a * row_norm((x - tx) - (y - ty)) ** 2
    slacks = row_norm(x - y) ** 2 - lhs
    return _report(f"averagedness certificate [{op.label}]", slacks, CERTIFICATE_TOL)


def check_sqne(op: Operator, oracle: FixSetOracle, n_points: int = 500, seed: int = 0,
               radius: float = 10.0) -> InequalityReport:
    """Sampled certificate for meta.rho against the nearest point x* of Fix T,
    as ``oracle`` declares it: ||Tx - x*||^2 + rho ||x - Tx||^2 <= ||x - x*||^2."""
    if op.meta.rho is None:
        raise UsageError(f"operator {op.label} declares no SQNE modulus")
    rho = op.meta.rho
    x = sample_region(Region(np.zeros(op.dim), radius), n_points, seed)
    x_star = oracle.distance_to(x).witness
    tx = op(x)
    lhs = row_norm(tx - x_star) ** 2 + rho * row_norm(x - tx) ** 2
    slacks = row_norm(x - x_star) ** 2 - lhs
    return _report(f"SQNE certificate [{op.label}]", slacks, CERTIFICATE_TOL)


# ---------------------------------------------------------------------------
# Core identities
# ---------------------------------------------------------------------------

def affine_combination_identity_gap(alpha: float, u, v) -> float:
    """Relative gap in
    ||(1-a)u + av||^2 + a(1-a)||u-v||^2 = (1-a)||u||^2 + a||v||^2."""
    u = as_vector(u)
    v = as_vector(v, u.shape[0])
    return float(_affine_gaps(float(alpha), u, v))


def _affine_gaps(alpha, u: np.ndarray, v: np.ndarray):
    """The relative gap for a float ``alpha`` and vectors ``u``, ``v``, or per
    row for ``alpha`` ``(n,)`` and ``u``, ``v`` ``(n, d)``; a row rounds exactly
    as the single call."""
    a = np.asarray(alpha)[..., None]
    lhs = _sq_norm((1.0 - a) * u + a * v) + alpha * (1.0 - alpha) * _sq_norm(u - v)
    rhs = (1.0 - alpha) * _sq_norm(u) + alpha * _sq_norm(v)
    return abs(lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))


def _sq_norm(w: np.ndarray):
    """``row_norm(w)`` squared as ``n * n``: a float's ``n ** 2`` is libm's pow,
    which can round differently from numpy's square."""
    n = row_norm(w)
    return n * n


def distance_sq_gradient_gap(set_: PrimitiveSet, x, step: float = 1e-5) -> float:
    """Relative gap between the central-difference gradient of d^2(., C) and
    the closed form 2(x - P_C x); the 2 dim shifted points are one batch."""
    x = as_vector(x, set_.dim)
    analytic = 2.0 * (x - set_.project(x))
    shifts = step * np.eye(x.shape[0])
    dists = set_.distance(np.concatenate([x + shifts, x - shifts]))
    fd = (dists[:x.shape[0]] ** 2 - dists[x.shape[0]:] ** 2) / (2.0 * step)
    return row_norm(fd - analytic) / max(1.0, row_norm(analytic))


IDENTITY_REL_TOL = 1e-12
GRADIENT_REL_TOL = 1e-6


def random_primitive_set(rng: "np.random.Generator", dim: int) -> PrimitiveSet:
    """One random primitive set of a random variant, for identity sweeps."""
    kind = rng.integers(0, 5)
    if kind == 0:
        return HalfSpace(rng.standard_normal(dim) + 0.1, float(rng.standard_normal()))
    if kind == 1:
        return Hyperplane(rng.standard_normal(dim) + 0.1, float(rng.standard_normal()))
    if kind == 2:
        k = int(rng.integers(0, dim))
        return AffineSubspace(rng.standard_normal((dim, k)), rng.standard_normal(dim))
    if kind == 3:
        lo = rng.standard_normal(dim)
        return Box(lo, lo + rng.random(dim) * 2.0)
    return Ball(rng.standard_normal(dim), float(rng.random() + 0.5))


def _core_identity_gaps(n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Relative gaps of the identity sweep in draw order: ``n_samples``
    affine-combination triples, then ``max(n_samples // 10, 1)`` gradients.

    The triples are drawn one at a time and evaluated as one batch per dimension.
    """
    rng = np.random.default_rng(seed)
    by_dim: dict[int, list] = {}
    for k in range(n_samples):
        dim = int(rng.integers(1, 9))
        alpha = float(rng.uniform(-2.0, 2.0))
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        by_dim.setdefault(dim, []).append((k, alpha, u, v))
    affine = np.empty(n_samples)
    for triples in by_dim.values():
        rows, alpha, u, v = (np.array(c) for c in zip(*triples))
        affine[rows] = _affine_gaps(alpha, u * 2.0, v * 2.0)
    gradient = []
    for _ in range(max(n_samples // 10, 1)):
        dim = int(rng.integers(2, 6))
        set_ = random_primitive_set(rng, dim)
        gradient.append(distance_sq_gradient_gap(set_, rng.standard_normal(dim) * 3.0))
    return affine, np.array(gradient)


def check_core_identities(n_samples: int = 1000, seed: int = 0) -> InequalityReport:
    """Sweep the affine-combination identity (relative tol 1e-12) and the
    distance-squared gradient identity (relative tol 1e-6, finite differences
    at step 1e-5) on random data.

    The two parts have different tolerances, so the report's slack is the
    worst remaining headroom (part tolerance minus observed relative error)
    and the report tolerance is 0: passed still means worst_slack >= -tol.
    """
    affine, gradient = _core_identity_gaps(n_samples, seed)
    headrooms = np.concatenate([IDENTITY_REL_TOL - affine, GRADIENT_REL_TOL - gradient])
    return _report("affine-combination and distance-gradient identities", headrooms, 0.0)


def hoelder_exponent_domination_constant(b: float, theta: float, gamma: float) -> float:
    """Smallest M with a^theta <= M a^gamma on [0, b] when 0 < gamma <= theta."""
    if not 0.0 < gamma <= theta:
        raise UsageError("need 0 < gamma <= theta")
    if not b > 0.0:
        raise UsageError("need b > 0")
    return float(b ** (theta - gamma))
