"""Operator abstraction, proximal maps, and the combinators used throughout.

Every constructor here yields a nonexpansive self-map of R^n whose ``fn`` maps
a point ``(d,)`` or each row of a batch ``(n, d)``; ``Operator.__call__``
validates once, combinators call their children's raw ``fn``. Metadata records
an averagedness constant alpha, and with it the strong-quasinonexpansiveness
modulus rho it implies, only when the construction certifies one; combinators
that cannot certify a modulus leave it unset rather than fabricate a value.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConstructionError, UsageError
from .sets import PrimitiveSet, matvec
from .validation import as_matrix, as_point, as_vector


@dataclass(frozen=True)
class OperatorMeta:
    """What is certified about an operator.

    alpha in (0,1) means T = (1-alpha)Id + alpha R with R nonexpansive; such a
    T has SQNE modulus rho = (1-alpha)/alpha.
    """

    label: str = ""
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ConstructionError(f"alpha must lie in (0,1), got {self.alpha}")

    @property
    def rho(self) -> Optional[float]:
        """The SQNE modulus (1-alpha)/alpha that alpha certifies, or None without alpha."""
        return None if self.alpha is None else (1.0 - self.alpha) / self.alpha


@dataclass(frozen=True, eq=False)
class Operator:
    """A deterministic self-map of R^dim with metadata; it carries no Fix-set oracle."""

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    meta: OperatorMeta = field(default_factory=OperatorMeta)

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(as_point(x, self.dim)), dtype=float)

    @property
    def label(self) -> str:
        return self.meta.label or "operator"


# ---------------------------------------------------------------------------
# Simple functions with closed-form proximal maps
# ---------------------------------------------------------------------------

class SimpleFunction:
    """Proper lsc convex function with a closed-form proximal map (row-wise ``prox``)."""

    dim: Optional[int] = None  # None = any dimension

    def prox(self, x, step: float) -> np.ndarray:
        raise NotImplementedError


class Indicator(SimpleFunction):
    """Indicator of a primitive set; its prox is the projection, step-independent."""

    def __init__(self, set_: PrimitiveSet):
        self.set = set_
        self.dim = set_.dim

    def prox(self, x, step: float) -> np.ndarray:
        return self.set._project(x)


class L1Norm(SimpleFunction):
    """weight * ||x||_1; prox is coordinatewise soft thresholding."""

    def __init__(self, weight: float = 1.0):
        if weight < 0.0:
            raise ConstructionError("l1 weight must be nonnegative")
        self.weight = float(weight)

    def prox(self, x, step: float) -> np.ndarray:
        thr = step * self.weight
        return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


class Quadratic(SimpleFunction):
    """f(x) = 1/2 x'Qx - c'x for symmetric PSD Q; prox solves (I + tQ)z = x + tc."""

    def __init__(self, Q, c):
        self.c = as_vector(c, name="c")
        self.Q = as_matrix(Q, "Q")
        self.dim = self.c.shape[0]
        if self.Q.shape != (self.dim, self.dim):
            raise ConstructionError(f"Q must be {self.dim}x{self.dim}")
        if not np.allclose(self.Q, self.Q.T, atol=1e-12):
            raise ConstructionError("Q must be symmetric")
        eigs = np.linalg.eigvalsh(self.Q)
        if eigs[0] < -1e-10:
            raise ConstructionError(f"Q must be PSD (min eigenvalue {eigs[0]:.3e})")
        self.max_eig = float(eigs[-1])

    def prox(self, x, step: float) -> np.ndarray:
        A = np.eye(self.dim) + step * self.Q
        return np.linalg.solve(A, (x + step * self.c)[..., None])[..., 0]


def prox(fn: SimpleFunction, step: float, x) -> np.ndarray:
    """argmin_z { step*fn(z) + 1/2 ||z - x||^2 }."""
    if not step > 0.0:
        raise UsageError(f"prox step must be positive, got {step}")
    return fn.prox(as_point(x, fn.dim), float(step))


# ---------------------------------------------------------------------------
# Operator constructors and combinators
# ---------------------------------------------------------------------------

def identity(dim: int) -> Operator:
    return Operator(lambda x: x, dim, OperatorMeta(label="Id"))


def projector(set_: PrimitiveSet) -> Operator:
    """Nearest-point projector; firmly nonexpansive, i.e. 1/2-averaged and 1-SQNE."""
    meta = OperatorMeta(label=f"P[{set_.describe()}]", alpha=0.5)
    return Operator(set_._project, set_.dim, meta)


def reflect(set_: PrimitiveSet) -> Operator:
    """x -> 2 P(x) - x. Nonexpansive but not averaged; fixed points are the set itself."""

    def fn(x):
        return 2.0 * set_._project(x) - x

    meta = OperatorMeta(label=f"R[{set_.describe()}]")
    return Operator(fn, set_.dim, meta)


def douglas_rachford(set_l: PrimitiveSet, set_j: PrimitiveSet) -> Operator:
    """x -> x + P_j(2 P_l x - x) - P_l x, the half-averaged reflect-reflect map.

    The fixed-point set is not derived from the two sets: it can be larger
    than their intersection, so the oracle passed with it must name it.
    """
    if set_l.dim != set_j.dim:
        raise UsageError("Douglas-Rachford sets must share one dimension")

    def fn(x):
        pl = set_l._project(x)
        return x + set_j._project(2.0 * pl - x) - pl

    meta = OperatorMeta(label=f"DR[{set_l.describe()}, {set_j.describe()}]", alpha=0.5)
    return Operator(fn, set_l.dim, meta)


def forward_backward(g: SimpleFunction, Q, c, lipschitz: float, step: float) -> Operator:
    """x -> prox_{step*g}(x - step*(Qx - c)) for the smooth part 1/2 x'Qx - c'x.

    ``lipschitz`` must bound the largest eigenvalue of Q; the admissible step
    range (0, 2/lipschitz) is what certifies alpha = 2/(4 - step*lipschitz).
    The fixed-point set (the constrained minimizers) is never inferred.
    """
    smooth = Quadratic(Q, c)
    Q, c, dim = smooth.Q, smooth.c, smooth.dim
    if not lipschitz > 0.0:
        raise ConstructionError("lipschitz bound must be positive")
    if smooth.max_eig > lipschitz * (1.0 + 1e-12) + 1e-12:
        raise ConstructionError(
            f"lipschitz={lipschitz} does not bound the largest eigenvalue "
            f"{smooth.max_eig:.6g}"
        )
    if not 0.0 < step < 2.0 / lipschitz:
        raise ConstructionError(
            f"step must lie in (0, {2.0 / lipschitz:.6g}) for the operator to be averaged"
        )
    if g.dim is not None and g.dim != dim:
        raise UsageError(f"g has dimension {g.dim}, smooth part has {dim}")

    def fn(x):
        return g.prox(x - step * (matvec(Q, x) - c), step)

    alpha = 2.0 / (4.0 - step * lipschitz)
    meta = OperatorMeta(label="forward_backward", alpha=alpha)
    return Operator(fn, dim, meta)


def convex_combination(ops: list[Operator], weights) -> Operator:
    """x -> sum_i w_i T_i(x). Weights must arrive normalized; no silent rescale."""
    if not ops:
        raise UsageError("convex_combination needs at least one operator")
    weights = [float(w) for w in weights]
    if len(weights) != len(ops):
        raise UsageError(f"{len(ops)} operators but {len(weights)} weights")
    if any(w <= 0.0 for w in weights):
        raise UsageError("weights must be strictly positive")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise UsageError(f"weights must sum to 1 within 1e-12, got {sum(weights)!r}")
    dim = ops[0].dim
    if any(op.dim != dim for op in ops):
        raise UsageError("all operators must share one dimension")

    def fn(x):
        out = np.zeros_like(x)
        for wi, op in zip(weights, ops):
            out = out + wi * op.fn(x)
        return out

    meta = OperatorMeta(label="combination[" + ", ".join(op.label for op in ops) + "]")
    return Operator(fn, dim, meta)


def compose(ops: list[Operator]) -> Operator:
    """x -> T_n(...T_2(T_1(x))...) with ops[0] applied first."""
    if not ops:
        raise UsageError("compose needs at least one operator")
    dim = ops[0].dim
    if any(op.dim != dim for op in ops):
        raise UsageError("all operators must share one dimension")

    def fn(x):
        for op in ops:
            x = op.fn(x)
        return x

    meta = OperatorMeta(label="composition[" + ", ".join(op.label for op in ops) + "]")
    return Operator(fn, dim, meta)


def relax(op: Operator, lam: float) -> Operator:
    """x -> (1-lam) x + lam T(x) for lam in [0,1].

    For nonexpansive T and 0 < lam < 1 the result is lam-averaged by
    definition, so meta.alpha is set; the endpoints certify nothing new.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"relaxation parameter must lie in [0,1], got {lam}")

    def fn(x):
        return (1.0 - lam) * x + lam * op.fn(x)

    alpha = lam if 0.0 < lam < 1.0 else None
    meta = OperatorMeta(label=f"relax[{op.label}, {lam:g}]", alpha=alpha)
    return Operator(fn, op.dim, meta)
