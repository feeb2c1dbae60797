"""Primitive convex sets with exact closed-form nearest-point projections.

Every set exposes ``project``, ``distance`` and ``contains``, row-wise on a
point ``(d,)`` or a batch ``(n, d)``. ``project`` validates once and calls the
raw kernel ``_project``, which operators and oracles call on validated arrays.
Kernels sum along the last axis instead of calling BLAS, so a batch row rounds
exactly like the same point alone.
"""

import numpy as np

from .errors import ConstructionError
from .validation import as_matrix, as_point, as_vector

# Rank decisions when orthonormalizing affine bases.
RANK_TOL = 1e-12


def row_norm(v: np.ndarray):
    """Euclidean norm along the last axis: a float for a point, ``(n,)`` for a batch."""
    norms = np.sqrt(np.add.reduce(v * v, axis=-1))  # as np.linalg.norm, less overhead
    return float(norms) if norms.ndim == 0 else norms


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` for each row of ``x``."""
    return np.add.reduce(x[..., None, :] * m, axis=-1)


class PrimitiveSet:
    """A closed convex subset of R^n with an exact nearest-point projector.

    Subclasses implement ``_project`` and re-bind ``project`` in their own
    namespace, so per-class tracing (``perfbench/spans.py``) can wrap it.
    """

    dim: int

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``, row-wise for a batch."""
        return self._project(as_point(x, self.dim))

    def _project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x):
        """Euclidean distance from ``x`` to the set (``project`` validates ``x``)."""
        return row_norm(np.asarray(x, dtype=float) - self.project(x))

    def contains(self, x, tol: float = 1e-12):
        return self.distance(x) <= tol

    def describe(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class _Linear(PrimitiveSet):
    """A set bounded by the hyperplane {x : <a, x> = b}, a nonzero."""

    def __init__(self, normal, offset: float):
        self.normal = as_vector(normal, name="normal")
        with np.errstate(over="ignore", under="ignore"):
            self._nsq = float(self.normal @ self.normal)
        # projections divide by ||a||^2: it must be a normal float, not 0, subnormal or inf
        if not np.finfo(float).tiny <= self._nsq < np.inf:
            raise ConstructionError(f"{type(self).__name__} normal must be nonzero with a "
                                    f"squared norm in the float range, got {self._nsq:g}")
        self.offset = float(offset)
        self.dim = self.normal.shape[0]

    def _excess(self, x):
        """(<a, x> - b) / ||a||^2 per row, shaped to broadcast against ``x``."""
        dot = np.add.reduce(x * self.normal, axis=-1)[..., None]
        return (dot - self.offset) / self._nsq


class HalfSpace(_Linear):
    """{x : <a, x> <= b} for a nonzero normal a."""

    project = PrimitiveSet.project

    def _project(self, x):
        excess = self._excess(x)
        return np.where(excess > 0.0, x - excess * self.normal, x)


class Hyperplane(_Linear):
    """{x : <a, x> = b} for a nonzero normal a."""

    project = PrimitiveSet.project

    def _project(self, x):
        return x - self._excess(x) * self.normal


class AffineSubspace(PrimitiveSet):
    """offset + span(columns of basis); basis may have zero columns (a single point).

    The basis is orthonormalized once at construction (SVD, rank tolerance
    ``RANK_TOL``), so projection is a single matrix-vector pass and exactly
    idempotent up to roundoff.
    """

    def __init__(self, basis, offset):
        self.offset = as_vector(offset, name="offset")
        self.dim = self.offset.shape[0]
        basis = as_matrix(np.asarray(basis, dtype=float).reshape(self.dim, -1), "basis")
        if basis.shape[0] != self.dim:
            raise ConstructionError(
                f"basis has {basis.shape[0]} rows, offset has dimension {self.dim}"
            )
        if basis.shape[1] == 0:
            self.onb = np.zeros((self.dim, 0))
        else:
            u, s, _ = np.linalg.svd(basis, full_matrices=False)
            keep = s > RANK_TOL * max(s[0], 1.0)
            self.onb = u[:, keep]
        self.rank = self.onb.shape[1]

    project = PrimitiveSet.project

    def _project(self, x):
        return self.offset + matvec(self.onb, matvec(self.onb.T, x - self.offset))


class Box(PrimitiveSet):
    """{x : lower <= x <= upper} componentwise."""

    def __init__(self, lower, upper):
        self.lower = as_vector(lower, name="lower")
        self.upper = as_vector(upper, dim=self.lower.shape[0], name="upper")
        if np.any(self.lower > self.upper):
            raise ConstructionError("box requires lower <= upper componentwise")
        self.dim = self.lower.shape[0]

    project = PrimitiveSet.project

    def _project(self, x):
        return np.minimum(np.maximum(x, self.lower), self.upper)


class Ball(PrimitiveSet):
    """{x : ||x - center|| <= radius} with radius > 0."""

    def __init__(self, center, radius: float):
        self.center = as_vector(center, name="center")
        self.radius = float(radius)
        if not self.radius > 0.0:
            raise ConstructionError("ball radius must be positive")
        self.dim = self.center.shape[0]

    project = PrimitiveSet.project

    def _project(self, x):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            d = x - self.center
            nrm = row_norm(d[..., None, :])  # shaped (..., 1)
            scale = self.radius / np.maximum(nrm, self.radius)
            out = np.where(nrm <= self.radius, x, self.center + scale * d)
            huge = np.isinf(nrm[..., 0])
            if huge.any():
                # ||d||^2 overflowed on finite inputs: take the direction of d, or of
                # x/2 - center/2 where d itself overflowed, scaled by a power of two
                # that brings its largest entry into [0.5, 1)
                big = d[huge]
                over = ~np.isfinite(big).all(axis=-1)
                big[over] = x[huge][over] / 2 - self.center / 2
                big = big * np.ldexp(1.0, -np.frexp(np.abs(big).max(axis=-1))[1])[:, None]
                out[huge] = self.center + self.radius / row_norm(big)[:, None] * big
        return out


def is_affine(s: PrimitiveSet) -> bool:
    """True for sets whose intersection admits an exact linear-algebra projection."""
    return isinstance(s, (Hyperplane, AffineSubspace))
