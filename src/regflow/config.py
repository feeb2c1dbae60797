"""Scenario configs: JSON schema validation and object construction.

A scenario file fully describes one run: the operator tree, the fixed-set
oracle, the relaxation schedule, the integrator, the start point, and which
artifacts/checks to produce. Validation happens before any computation and
failures carry the offending field path (e.g. ``operator.children.weights``).

Each node kind is declared once, in a table (``_SETS``, ``_OPERATORS``, ...)
that maps it to its constructor and its fields in argument order. A field is
``(key, parse)``, or ``(key, parse, default)`` when optional, and every parser
is called as ``parse(value, path, dim)``.
"""

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ConstructionError, UsageError
from .fixset import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ExactSet,
    FixSetOracle,
    Intersection,
    SinglePoint,
)
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


def _number(value, path: str, dim=None) -> float:
    if not _finite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _positive(value, path: str, dim=None) -> float:
    value = _number(value, path)
    if not value > 0.0:
        raise ConfigError(path, "must be positive")
    return value


def _count(value, path: str, dim=None, low: int = 1) -> int:
    """An integer in [low, MAX_STEPS], the work budget; checked before any allocation."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= MAX_STEPS:
        raise ConfigError(path, f"expected an integer in [{low}, {MAX_STEPS}], got {value!r}")
    return value


def check_seed(value, path: str, dim=None) -> int:
    """A random seed: a non-negative integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, "every random element needs an explicit integer seed")
    if value < 0:
        raise ConfigError(path, f"expected a non-negative seed, got {value!r}")
    return value


def _choice(*options):
    """Parser for an enum field; its error names the field's last key."""
    def parse(value, path: str, dim=None):
        if value not in options:
            raise ConfigError(path, f"unknown {path.rsplit('.', 1)[-1]} {value!r}")
        return value
    return parse


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


def _read(make, fields, node, path: str, dim):
    """Parse ``fields`` of the object ``node`` in order and pass them to ``make``."""
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    with _wrap(path):
        values = [parse(node.get(key, *default) if default else _need(node, key, path),
                        f"{path}.{key}", dim)
                  for key, parse, *default in fields]
        return make(*values)


def _build(kinds: dict, what: str, node, path: str, dim):
    """Build ``node`` from the entry of ``kinds`` that its ``kind`` names.

    An entry is ``(make, fields)``, or ``make(dim)`` for a kind without fields.
    """
    kind = _need(node, "kind", path)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind", f"unknown {what} kind {kind!r}")
    entry = kinds[kind]
    return _read(*entry, node, path, dim) if isinstance(entry, tuple) else entry(dim)


def build_set(node, path: str, dim: int) -> PrimitiveSet:
    return _build(_SETS, "set", node, path, dim)


def build_function(node, path: str, dim: int) -> SimpleFunction:
    return _build(_FUNCTIONS, "function", node, path, dim)


def _matrix(value, path: str, dim: int) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(path, f"expected a {dim}x{dim} matrix as nested lists")
    rows = [_vector(row, f"{path}[{i}]", dim) for i, row in enumerate(value)]
    return np.stack(rows, axis=0)


def _basis(value, path: str, dim: int) -> np.ndarray:
    """Spanning vectors as the columns of a (dim, k) matrix; k may be 0."""
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list of spanning vectors")
    cols = [_vector(v, f"{path}[{i}]", dim) for i, v in enumerate(value)]
    return np.stack(cols, axis=1) if cols else np.zeros((dim, 0))


def _nonempty(parse):
    """Parser for a nonempty list whose items ``parse`` reads at ``path[i]``."""
    def parse_list(value, path: str, dim):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a nonempty list")
        return [parse(item, f"{path}[{i}]", dim) for i, item in enumerate(value)]
    return parse_list


def build_operator(node, path: str, dim: int) -> Operator:
    return _build(_OPERATORS, "operator", node, path, dim)


def build_oracle(node, path: str, dim: int) -> FixSetOracle:
    return _build(_ORACLES, "oracle", node, path, dim)


def build_schedule(node, path: str) -> LambdaSchedule:
    return _build(_SCHEDULES, "schedule", node, path, None)


_WEIGHTED_OP = (("weight", _number), ("op", build_operator))


def _weighted_ops(value, path: str, dim: int):
    """combine's children as (ops, weights); the weights must arrive normalized."""
    read = _nonempty(lambda node, p, d: _read(lambda *pair: pair, _WEIGHTED_OP, node, p, d))
    weights, ops = zip(*read(value, path, dim))
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ConfigError(f"{path}.weights",
                          f"weights must sum to 1 within 1e-12, got {sum(weights)!r}")
    if any(w <= 0.0 for w in weights):
        raise ConfigError(f"{path}.weights", "weights must be strictly positive")
    return ops, weights


_SETS = {
    "halfspace": (HalfSpace, (("normal", _vector), ("offset", _number))),
    "hyperplane": (Hyperplane, (("normal", _vector), ("offset", _number))),
    "box": (Box, (("lower", _vector), ("upper", _vector))),
    "ball": (Ball, (("center", _vector), ("radius", _number))),
    "affine": (AffineSubspace, (("basis", _basis), ("offset", _vector))),
}

_FUNCTIONS = {
    "indicator": (Indicator, (("set", build_set),)),
    "l1": (L1Norm, (("weight", _number, 1.0),)),
    "quadratic": (Quadratic, (("Q", _matrix), ("c", _vector))),
}

_OPERATORS = {
    "identity": identity,
    "project": (projector, (("set", build_set),)),
    "reflect": (reflect, (("set", build_set),)),
    "douglas_rachford": (douglas_rachford, (("set_l", build_set), ("set_j", build_set))),
    "forward_backward": (forward_backward, (("g", build_function), ("Q", _matrix),
                                            ("c", _vector), ("lipschitz", _number),
                                            ("step", _number))),
    "compose": (compose, (("children", _nonempty(build_operator)),)),
    "combine": (lambda pair: convex_combination(*pair), (("children", _weighted_ops),)),
    "relax": (relax, (("child", build_operator), ("lam", _number))),
}

_ORACLES = {
    "exact": (ExactSet, (("set", build_set),)),
    "point": (SinglePoint, (("point", _vector),)),
    "intersection": (Intersection, (("sets", _nonempty(build_set)),
                                    ("tol", _number, DEFAULT_TOL),
                                    ("max_iter", _count, DEFAULT_MAX_ITER))),
}

_SCHEDULES = {
    "constant": (Constant, (("value", _number),)),
    "piecewise": (PiecewiseConstant, (("times", _vector), ("values", _vector))),
    "sinusoid": (Sinusoid, (("offset", _number), ("amplitude", _number),
                            ("omega", _number))),
}

def sample_count(value, path: str, dim=None) -> int:
    """A regularity-estimate sample count: an integer in [100, MAX_STEPS]."""
    return _count(value, path, low=100)


# plain objects, read into dicts by build_scenario; their keys are the
# parameter names of the estimator and of the rate fit
_RATE_FIT = (("metric", _choice("residual", "dist_fix", "dist_to_limit"), "dist_fix"),
             ("model", _choice("auto", "exponential", "powerlaw"), "auto"))
_REGION = (("center", _vector), ("radius", _number))
_REGULARITY = (("mode", _choice("linear", "hoelder"), "linear"),
               ("n_samples", sample_count, 1000),
               ("seed", check_seed, None),
               ("region", lambda node, path, dim: _read(Region, _REGION, node, path, dim)))
_RANDOM_X0 = (("seed", check_seed, None), ("radius", _positive))


def build_integrator(node, path: str) -> IntegratorConfig:
    method = _need(node, "method", path)
    t_end = _number(_need(node, "t_end", path), f"{path}.t_end")
    kwargs = {key: _number(node[key], f"{path}.{key}")
              for key in ("rel_tol", "abs_tol", "h") if key in node}
    if "sample_stride" in node:
        kwargs["sample_stride"] = _count(node["sample_stride"], f"{path}.sample_stride")
    if "sample_dt" in node:
        dt = _positive(node["sample_dt"], f"{path}.sample_dt")
        if not 0.0 < t_end / dt < MAX_STEPS:
            raise ConfigError(f"{path}.sample_dt", f"t_end / sample_dt must lie in (0, "
                              f"{MAX_STEPS}), the work budget; got {t_end / dt:.3g}")
        n = int(round(t_end / dt))
        if abs(n * dt - t_end) > 1e-9:
            raise ConfigError(f"{path}.sample_dt", "must divide t_end evenly")
        kwargs["sample_times"] = np.linspace(0.0, t_end, n + 1)
    if "sample_times" in node:
        kwargs["sample_times"] = _vector(node["sample_times"], f"{path}.sample_times")
    with _wrap(path):
        return IntegratorConfig(method=method, t_end=t_end, **kwargs)


def build_x0(node, path: str, dim: int) -> np.ndarray:
    if isinstance(node, list):
        return _vector(node, path, dim)
    if isinstance(node, dict) and "random" in node:
        # uniform in the centered ball of the given radius
        seed, radius = _read(lambda *values: values, _RANDOM_X0, node["random"],
                             f"{path}.random", dim)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(dim)
        g /= max(np.linalg.norm(g), 1e-300)
        return radius * rng.random() ** (1.0 / dim) * g
    raise ConfigError(path, "expected a coordinate list or {\"random\": {seed, radius}}")


def _block(cfg: dict, key: str, fields, dim: int) -> Optional[dict]:
    """The optional plain object ``cfg[key]`` read into a dict of its fields."""
    node = cfg.get(key)
    if node is None:
        return None
    if not isinstance(node, dict):
        raise ConfigError(key, "expected an object")
    return _read(lambda *values: dict(zip((f[0] for f in fields), values)),
                 fields, node, key, dim)


def build_scenario(cfg: dict) -> Scenario:
    """Validate a parsed config dict and construct every object it describes."""
    if not isinstance(cfg, dict):
        raise ConfigError("$", "config must be a JSON object")
    schema = cfg.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected schema {SCHEMA_VERSION}, got {schema!r}")
    name = _need(cfg, "name", "$")
    if not isinstance(name, str) or not name:
        raise ConfigError("name", "expected a nonempty string")
    # artifacts are <out-dir>/<name>_<suffix>, and file names stop at 255 bytes
    if "/" in name or "\\" in name or not name.isprintable() or len(name.encode()) > 200:
        raise ConfigError("name", "expected a plain file name (artifacts are <name>_*): "
                          "printable, at most 200 UTF-8 bytes, with no '/' or '\\'")
    dim = _count(_need(cfg, "dimension", "$"), "dimension")

    operator = build_operator(_need(cfg, "operator", "$"), "operator", dim)
    schedule = build_schedule(_need(cfg, "schedule", "$"), "schedule")
    integrator = build_integrator(_need(cfg, "integrator", "$"), "integrator")
    x0 = build_x0(_need(cfg, "x0", "$"), "x0", dim)

    oracle = None
    if "fix_oracle" in cfg:
        oracle = build_oracle(cfg["fix_oracle"], "fix_oracle", dim)

    outputs = cfg.get("outputs", [])
    if not isinstance(outputs, list) or any(o not in OUTPUT_KINDS for o in outputs):
        raise ConfigError("outputs", f"entries must be among {OUTPUT_KINDS}")

    checks = cfg.get("checks", [])
    if not isinstance(checks, list) or any(c not in CHECK_KINDS for c in checks):
        raise ConfigError("checks", f"entries must be among {CHECK_KINDS}")

    rate_fit = _block(cfg, "rate_fit", _RATE_FIT, dim)
    regularity = _block(cfg, "regularity", _REGULARITY, dim)

    if regularity is not None and oracle is None:
        raise ConfigError("regularity", "estimation requires a fix_oracle")
    if rate_fit is not None and rate_fit["metric"] == "dist_fix" and oracle is None:
        raise ConfigError("rate_fit", "a dist_fix fit requires a fix_oracle")
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
        rate_fit=rate_fit, regularity=regularity, paper_ref=paper_ref,
    )
