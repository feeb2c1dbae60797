"""Scenario configs: JSON schema validation and object construction.

A scenario file fully describes one run: the operator tree, the fixed-set
oracle, the relaxation schedule, the integrator, the start point, and which
artifacts/checks to produce. Validation happens before any computation and
failures carry the offending field path (e.g. ``operator.children.weights``).
"""

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ConstructionError, UsageError
from .fixset import ExactSet, FixSetOracle, Intersection, SinglePoint
from .flow import (
    MAX_STEPS,
    Constant,
    IntegratorConfig,
    LambdaSchedule,
    PiecewiseConstant,
    Sinusoid,
)
from .operators import (
    Indicator,
    L1Norm,
    Operator,
    Quadratic,
    SimpleFunction,
    compose,
    convex_combination,
    douglas_rachford,
    forward_backward,
    identity,
    projector,
    reflect,
    relax,
)
from .regularity import Region
from .sets import AffineSubspace, Ball, Box, HalfSpace, Hyperplane, PrimitiveSet

SCHEMA_VERSION = 1
OUTPUT_KINDS = ("trajectory_csv", "ratefit_json", "regularity_json", "report_json")
CHECK_KINDS = ("avg_inequality", "descent", "rate_bound")


@dataclass
class Scenario:
    """A validated, fully built scenario ready to run."""

    name: str
    dim: int
    operator: Operator
    schedule: LambdaSchedule
    integrator: IntegratorConfig
    x0: np.ndarray
    oracle: Optional[FixSetOracle] = None
    outputs: tuple[str, ...] = ()
    checks: tuple[str, ...] = ()
    rate_fit: Optional[dict] = None
    regularity: Optional[dict] = None
    paper_ref: str = ""
    raw: dict = field(default_factory=dict)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}")


def _need(node: dict, key: str, path: str):
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    if key not in node:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return node[key]


def _finite(value) -> bool:
    """True for a JSON number within the finite float range (JSON also parses
    1e400 to inf, and NaN, Infinity and integers of any size)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(value, path: str) -> float:
    if not _finite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _count(value, path: str, low: int) -> int:
    """An integer in [low, MAX_STEPS], the work budget; checked before any allocation."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= MAX_STEPS:
        raise ConfigError(path, f"expected an integer in [{low}, {MAX_STEPS}], got {value!r}")
    return value


def _vector(value, path: str, dim: Optional[int] = None) -> np.ndarray:
    if not isinstance(value, list) or not all(_finite(v) for v in value):
        raise ConfigError(path, "expected a list of finite numbers")
    arr = np.asarray(value, dtype=float)
    if dim is not None and arr.size != dim:
        raise ConfigError(path, f"expected {dim} entries, got {arr.size}")
    return arr


@contextmanager
def _wrap(path: str):
    """Re-raise library construction/usage errors as config errors at ``path``."""
    try:
        yield
    except (ConstructionError, UsageError) as exc:
        raise ConfigError(path, str(exc)) from exc


def build_set(node, path: str, dim: int) -> PrimitiveSet:
    kind = _need(node, "kind", path)
    with _wrap(path):
        if kind == "halfspace":
            return HalfSpace(_vector(_need(node, "normal", path), f"{path}.normal", dim),
                             _number(_need(node, "offset", path), f"{path}.offset"))
        if kind == "hyperplane":
            return Hyperplane(_vector(_need(node, "normal", path), f"{path}.normal", dim),
                              _number(_need(node, "offset", path), f"{path}.offset"))
        if kind == "box":
            return Box(_vector(_need(node, "lower", path), f"{path}.lower", dim),
                       _vector(_need(node, "upper", path), f"{path}.upper", dim))
        if kind == "ball":
            return Ball(_vector(_need(node, "center", path), f"{path}.center", dim),
                        _number(_need(node, "radius", path), f"{path}.radius"))
        if kind == "affine":
            vecs = _need(node, "basis", path)
            if not isinstance(vecs, list):
                raise ConfigError(f"{path}.basis", "expected a list of spanning vectors")
            cols = [
                _vector(v, f"{path}.basis[{i}]", dim) for i, v in enumerate(vecs)
            ]
            basis = np.stack(cols, axis=1) if cols else np.zeros((dim, 0))
            return AffineSubspace(basis,
                                  _vector(_need(node, "offset", path), f"{path}.offset", dim))
    raise ConfigError(f"{path}.kind", f"unknown set kind {kind!r}")


def build_function(node, path: str, dim: int) -> SimpleFunction:
    kind = _need(node, "kind", path)
    with _wrap(path):
        if kind == "indicator":
            return Indicator(build_set(_need(node, "set", path), f"{path}.set", dim))
        if kind == "l1":
            return L1Norm(_number(node.get("weight", 1.0), f"{path}.weight"))
        if kind == "quadratic":
            Q = _matrix(_need(node, "Q", path), f"{path}.Q", dim)
            return Quadratic(Q, _vector(_need(node, "c", path), f"{path}.c", dim))
    raise ConfigError(f"{path}.kind", f"unknown function kind {kind!r}")


def _matrix(value, path: str, dim: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(path, f"expected a {dim}x{dim} matrix as nested lists")
    rows = [_vector(row, f"{path}[{i}]", dim) for i, row in enumerate(value)]
    return np.stack(rows, axis=0)


def build_operator(node, path: str, dim: int) -> Operator:
    kind = _need(node, "kind", path)
    with _wrap(path):
        if kind == "identity":
            return identity(dim)
        if kind == "project":
            return projector(build_set(_need(node, "set", path), f"{path}.set", dim))
        if kind == "reflect":
            return reflect(build_set(_need(node, "set", path), f"{path}.set", dim))
        if kind == "douglas_rachford":
            return douglas_rachford(
                build_set(_need(node, "set_l", path), f"{path}.set_l", dim),
                build_set(_need(node, "set_j", path), f"{path}.set_j", dim),
            )
        if kind == "forward_backward":
            return forward_backward(
                build_function(_need(node, "g", path), f"{path}.g", dim),
                _matrix(_need(node, "Q", path), f"{path}.Q", dim),
                _vector(_need(node, "c", path), f"{path}.c", dim),
                _number(_need(node, "lipschitz", path), f"{path}.lipschitz"),
                _number(_need(node, "step", path), f"{path}.step"),
            )
        if kind == "compose":
            children = _need(node, "children", path)
            if not isinstance(children, list) or not children:
                raise ConfigError(f"{path}.children", "expected a nonempty list")
            ops = [build_operator(ch, f"{path}.children[{i}]", dim)
                   for i, ch in enumerate(children)]
            return compose(ops)
        if kind == "combine":
            children = _need(node, "children", path)
            if not isinstance(children, list) or not children:
                raise ConfigError(f"{path}.children", "expected a nonempty list")
            ops, weights = [], []
            for i, ch in enumerate(children):
                cpath = f"{path}.children[{i}]"
                weights.append(_number(_need(ch, "weight", cpath), f"{cpath}.weight"))
                ops.append(build_operator(_need(ch, "op", cpath), f"{cpath}.op", dim))
            if abs(sum(weights) - 1.0) > 1e-12:
                raise ConfigError(f"{path}.children.weights",
                                  f"weights must sum to 1 within 1e-12, got {sum(weights)!r}")
            if any(w <= 0.0 for w in weights):
                raise ConfigError(f"{path}.children.weights",
                                  "weights must be strictly positive")
            return convex_combination(ops, weights)
        if kind == "relax":
            child = build_operator(_need(node, "child", path), f"{path}.child", dim)
            return relax(child, _number(_need(node, "lam", path), f"{path}.lam"))
    raise ConfigError(f"{path}.kind", f"unknown operator kind {kind!r}")


def build_oracle(node, path: str, dim: int,
                 fix_tol: Optional[float] = None,
                 fix_max_iter: Optional[int] = None) -> FixSetOracle:
    kind = _need(node, "kind", path)
    with _wrap(path):
        if kind == "exact":
            return ExactSet(build_set(_need(node, "set", path), f"{path}.set", dim))
        if kind == "point":
            return SinglePoint(_vector(_need(node, "point", path), f"{path}.point", dim))
        if kind == "intersection":
            raw_sets = _need(node, "sets", path)
            if not isinstance(raw_sets, list) or not raw_sets:
                raise ConfigError(f"{path}.sets", "expected a nonempty list")
            sets = [build_set(s, f"{path}.sets[{i}]", dim) for i, s in enumerate(raw_sets)]
            # an override replaces the field and is validated like it
            tol = _number(node.get("tol", 1e-12) if fix_tol is None else fix_tol,
                          f"{path}.tol")
            max_iter = _count(node.get("max_iter", 100_000) if fix_max_iter is None
                              else fix_max_iter, f"{path}.max_iter", 1)
            return Intersection(sets, tol=tol, max_iter=max_iter)
    raise ConfigError(f"{path}.kind", f"unknown oracle kind {kind!r}")


def build_schedule(node, path: str) -> LambdaSchedule:
    kind = _need(node, "kind", path)
    with _wrap(path):
        if kind == "constant":
            return Constant(_number(_need(node, "value", path), f"{path}.value"))
        if kind == "piecewise":
            return PiecewiseConstant(
                _vector(_need(node, "times", path), f"{path}.times"),
                _vector(_need(node, "values", path), f"{path}.values"),
            )
        if kind == "sinusoid":
            return Sinusoid(
                _number(_need(node, "offset", path), f"{path}.offset"),
                _number(_need(node, "amplitude", path), f"{path}.amplitude"),
                _number(_need(node, "omega", path), f"{path}.omega"),
            )
    raise ConfigError(f"{path}.kind", f"unknown schedule kind {kind!r}")


def build_integrator(node, path: str) -> IntegratorConfig:
    method = _need(node, "method", path)
    t_end = _number(_need(node, "t_end", path), f"{path}.t_end")
    kwargs = {}
    if "rel_tol" in node:
        kwargs["rel_tol"] = _number(node["rel_tol"], f"{path}.rel_tol")
    if "abs_tol" in node:
        kwargs["abs_tol"] = _number(node["abs_tol"], f"{path}.abs_tol")
    if "h" in node:
        kwargs["h"] = _number(node["h"], f"{path}.h")
    if "sample_stride" in node:
        kwargs["sample_stride"] = int(_number(node["sample_stride"], f"{path}.sample_stride"))
    if "sample_dt" in node:
        dt = _number(node["sample_dt"], f"{path}.sample_dt")
        if not dt > 0.0:
            raise ConfigError(f"{path}.sample_dt", "must be positive")
        if not 0.0 < t_end / dt < MAX_STEPS:
            raise ConfigError(f"{path}.sample_dt", f"t_end / sample_dt must lie in (0, "
                              f"{MAX_STEPS}), the work budget; got {t_end / dt:.3g}")
        n = int(round(t_end / dt))
        if abs(n * dt - t_end) > 1e-9:
            raise ConfigError(f"{path}.sample_dt", "must divide t_end evenly")
        kwargs["sample_times"] = tuple(np.linspace(0.0, t_end, n + 1))
    if "sample_times" in node:
        kwargs["sample_times"] = tuple(
            _vector(node["sample_times"], f"{path}.sample_times"))
    with _wrap(path):
        return IntegratorConfig(method=method, t_end=t_end, **kwargs)


def sample_count(value, path: str) -> int:
    """A regularity-estimate sample count: an integer in [100, MAX_STEPS]."""
    return _count(value, path, 100)


def build_x0(node, path: str, dim: int) -> np.ndarray:
    if isinstance(node, list):
        return _vector(node, path, dim)
    if isinstance(node, dict) and "random" in node:
        spec = node["random"]
        seed = spec.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"{path}.random.seed",
                              "every random element needs an explicit integer seed")
        radius = _number(_need(spec, "radius", f"{path}.random"), f"{path}.random.radius")
        if not radius > 0.0:
            raise ConfigError(f"{path}.random.radius", "must be positive")
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(dim)
        g /= max(np.linalg.norm(g), 1e-300)
        return radius * rng.random() ** (1.0 / dim) * g
    raise ConfigError(path, "expected a coordinate list or {\"random\": {seed, radius}}")


def build_scenario(cfg: dict, fix_tol: Optional[float] = None,
                   fix_max_iter: Optional[int] = None) -> Scenario:
    """Validate a parsed config dict and construct every object it describes."""
    if not isinstance(cfg, dict):
        raise ConfigError("$", "config must be a JSON object")
    schema = cfg.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected schema {SCHEMA_VERSION}, got {schema!r}")
    name = _need(cfg, "name", "$")
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "expected a nonempty string")
    dim = _count(_need(cfg, "dimension", "$"), "dimension", 1)

    operator = build_operator(_need(cfg, "operator", "$"), "operator", dim)
    schedule = build_schedule(_need(cfg, "schedule", "$"), "schedule")
    integrator = build_integrator(_need(cfg, "integrator", "$"), "integrator")
    x0 = build_x0(_need(cfg, "x0", "$"), "x0", dim)

    oracle = None
    if "fix_oracle" in cfg:
        oracle = build_oracle(cfg["fix_oracle"], "fix_oracle", dim,
                              fix_tol=fix_tol, fix_max_iter=fix_max_iter)

    outputs = cfg.get("outputs", [])
    if not isinstance(outputs, list) or any(o not in OUTPUT_KINDS for o in outputs):
        raise ConfigError("outputs", f"entries must be among {OUTPUT_KINDS}")

    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or any(c not in CHECK_KINDS for c in checks):
        raise ConfigError("checks", f"entries must be among {CHECK_KINDS}")

    rate_fit = cfg.get("rate_fit")
    if rate_fit is not None:
        if not isinstance(rate_fit, dict):
            raise ConfigError("rate_fit", "expected an object")
        metric = rate_fit.get("metric", "dist_fix")
        if metric not in ("residual", "dist_fix", "dist_to_limit"):
            raise ConfigError("rate_fit.metric", f"unknown metric {metric!r}")
        model = rate_fit.get("model", "auto")
        if model not in ("auto", "exponential", "powerlaw"):
            raise ConfigError("rate_fit.model", f"unknown model {model!r}")
        rate_fit = {"metric": metric, "model": model}

    regularity = cfg.get("regularity")
    if regularity is not None:
        if not isinstance(regularity, dict):
            raise ConfigError("regularity", "expected an object")
        mode = regularity.get("mode", "linear")
        if mode not in ("linear", "hoelder"):
            raise ConfigError("regularity.mode", f"unknown mode {mode!r}")
        n_samples = sample_count(regularity.get("n_samples", 1000), "regularity.n_samples")
        seed = regularity.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("regularity.seed",
                              "every random element needs an explicit integer seed")
        region_node = _need(regularity, "region", "regularity")
        center = _vector(_need(region_node, "center", "regularity.region"),
                         "regularity.region.center", dim)
        radius = _number(_need(region_node, "radius", "regularity.region"),
                         "regularity.region.radius")
        with _wrap("regularity.region"):
            region = Region(center, radius)
        regularity = {"mode": mode, "n_samples": n_samples, "seed": seed,
                      "region": region}

    if regularity is not None and oracle is None:
        raise ConfigError("regularity", "estimation requires a fix_oracle")
    if "rate_bound" in checks and regularity is None:
        raise ConfigError("checks", "rate_bound requires a regularity block")
    if checks and oracle is None:
        raise ConfigError("checks", "trajectory checks require a fix_oracle")

    paper_ref = cfg.get("paper_ref", "")
    if not isinstance(paper_ref, str):
        raise ConfigError("paper_ref", "expected a string")

    return Scenario(
        name=name, dim=dim, operator=operator, schedule=schedule,
        integrator=integrator, x0=x0, oracle=oracle,
        outputs=tuple(outputs), checks=tuple(checks),
        rate_fit=rate_fit, regularity=regularity, paper_ref=paper_ref, raw=cfg,
    )
