"""Primitive convex sets with exact closed-form nearest-point projections.

Every set exposes ``project``, ``distance`` and ``contains``, row-wise on a
point ``(d,)`` or a batch ``(n, d)``. ``project`` validates once and calls the
raw kernel ``_project``, which operators and oracles call on validated arrays.
Kernels sum along the last axis instead of calling BLAS, so a batch row rounds
exactly like the same point alone. Every such sum (``row_norm``, ``matvec``,
the half-space and hyperplane dot products) is ``row_sum``, which returns
``np.add.reduce(v, axis=-1)`` bit for bit. numpy (2.x) reduces a row of fewer
than 8 entries left to right from 0.0, ``((0.0 + v0) + v1) + ...``, and longer
rows in pairwise blocks; ``row_sum`` does the short-row sum of a large batch as
array adds over its columns and leaves everything else, a point included, to
``np.add.reduce``.

A point ``(d,)`` of fewer than 8 entries is where numpy's per-call cost is the
whole cost. ``validation.short_row`` picks it out by shape alone; a batch, one
row ``(1, d)`` included, keeps the numpy kernels. Each set kind has a row
kernel, ``_row_project(row: list[float]) -> list[float] | None``: ``_project``
calls it on such a point, and the Fix-set oracles (``regflow.fixset``) call it
on lists directly, so a query turns its point into floats once. ``matvec`` and
``gap_norm`` (``short_gap_norm`` on two lists) have the same short paths. They
do numpy's operations in Python floats, in numpy's order: elementwise products
and differences, sums from 0.0 left to right (``_dot``), one correctly rounded
square root, and the box clip as ``np.maximum`` then ``np.minimum`` (a tie
gives the bound, a nan stays). The result is numpy's bit for bit, with the
same type and shape, and a fresh array. These paths never call builtin ``sum``
(compensated from Python 3.12), ``math.fsum``, ``math.hypot``, ``math.dist``,
``math.sumprod`` or ``**``. A row kernel returns None where only numpy answers,
a ball row whose norm overflows, and ``_project`` then takes the numpy kernel
``_array_project`` and its rescue; so does ``gap_norm`` for such a row.
"""

import math

import numpy as np

from .errors import ConstructionError
from .validation import SHORT_ROW, as_matrix, as_point, as_vector, short_row

# Rank decisions when orthonormalizing affine bases.
RANK_TOL = 1e-12
# Batches of at least this many rows are summed by columns in ``row_sum``. Below
# it one reduction call costs less than d array adds (numpy 2.4.6, x86-64: a
# (1, 2) row 2.0 us against 4.3 us).
COLUMN_ROWS = 128


def row_sum(v: np.ndarray):
    """``np.add.reduce(v, axis=-1)`` of a float array, bit for bit, same type and shape.

    A batch of at least ``COLUMN_ROWS`` rows of fewer than 8 entries is summed
    as numpy sums such a row, left to right from 0.0 (so a row of -0.0 sums to
    +0.0), but column by column over all rows at once: one array add per entry.
    A point, a smaller batch (where one reduction call costs less than ``d``
    array adds) and any other row length go to ``np.add.reduce`` itself.
    """
    d = v.shape[-1]
    if v.ndim < 2 or not 0 < d < SHORT_ROW or v.size < COLUMN_ROWS * d:
        return np.add.reduce(v, axis=-1)
    cols = v.T  # cols[k] is entry k of every row, transposed for 3-D and up
    total = 0.0 + cols[0]
    for k in range(1, d):
        total += cols[k]
    return total.T


def row_norm(v: np.ndarray):
    """Euclidean norm along the last axis: a float for a point, ``(n,)`` for a batch.
    For a real 2-D ``v`` it equals ``np.linalg.norm(v, axis=1)`` bit for bit."""
    norms = np.sqrt(row_sum(v * v))  # np.linalg.norm's arithmetic, less overhead
    return float(norms) if norms.ndim == 0 else norms


def _dot(u, v) -> float:
    """Sum of ``u[k] * v[k]`` from 0.0 in entry order: numpy's sum of a short row."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def gap_norm(x: np.ndarray, w: np.ndarray):
    """``row_norm(x - w)`` with no warning: inf where the distance leaves the float
    range, and finite wherever it does not. A row whose squares overflow is
    measured again, scaled by a power of two; every other row is ``row_norm``'s."""
    xs, ws = short_row(x), short_row(w)
    if xs is not None and ws is not None and x.shape == w.shape:
        return short_gap_norm(xs, ws)
    return _array_gap_norm(x, w)


def short_gap_norm(a: list, b: list) -> float:
    """``gap_norm`` of two short rows of Python floats, as a float."""
    total = 0.0  # _dot of the gaps with themselves, without the list
    for u, v in zip(a, b):
        gap = u - v
        total += gap * gap
    norm = math.sqrt(total)
    if norm == math.inf:  # the squares overflowed: numpy's path and its rescue
        return _array_gap_norm(np.array(a), np.array(b))
    return norm


def _array_gap_norm(x: np.ndarray, w: np.ndarray):
    """``gap_norm``'s numpy path; its errstate covers this path only, since
    Python floats neither warn nor raise."""
    with np.errstate(over="ignore", under="ignore"):
        d = x - w
        rows = np.atleast_2d(d)  # a point as one row
        norms = row_norm(rows)
        huge = np.isinf(norms)
        if huge.any():
            norms[huge] = _scaled_norm(rows[huge])
    return float(norms[0]) if d.ndim == 1 else norms


def _scaled_norm(d: np.ndarray):
    """The norm of each row of ``d`` from the row scaled by a power of two that
    brings its largest entry into [0.5, 1), so no square overflows."""
    e = np.frexp(np.abs(d).max(axis=-1))[1]
    return np.ldexp(row_norm(np.ldexp(d, -e[..., None])), e)


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` for each row of ``x``."""
    row = short_row(x)
    if row is None:
        return row_sum(x[..., None, :] * m)
    return np.array([_dot(row, r) for r in m.tolist()])


class PrimitiveSet:
    """A closed convex subset of R^n with an exact nearest-point projector.

    Subclasses implement the numpy kernel ``_array_project`` and, for one
    short row of Python floats, ``_row_project``; they re-bind ``project`` in
    their own namespace, so per-class tracing (``perfbench/spans.py``) can wrap it.
    """

    dim: int

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``, row-wise for a batch."""
        return self._project(as_point(x, self.dim))

    def _project(self, x: np.ndarray) -> np.ndarray:
        """The raw kernel on a validated ``x``: a short point (``short_row``) goes
        to ``_row_project``, anything else, or a row it declines, to numpy."""
        row = short_row(x)
        if row is not None:
            out = self._row_project(row)
            if out is not None:
                return np.array(out)
        return self._array_project(x)

    def _row_project(self, row: list[float]) -> list[float] | None:
        """Nearest point of one short row, numpy's bit for bit, or None where
        only numpy's path answers. The result may be ``row`` itself: callers
        never mutate either."""
        return None

    def _array_project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x):
        """Euclidean distance from ``x`` to the set (``project`` validates ``x``);
        inf when it exceeds the float range."""
        w = self.project(x)
        return gap_norm(np.asarray(x, dtype=float), w)

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
        self._a = self.normal.tolist()

    def _excess(self, x):
        """(<a, x> - b) / ||a||^2 per row, shaped to broadcast against ``x``."""
        dot = row_sum(x * self.normal)[..., None]
        return (dot - self.offset) / self._nsq

    def _row_excess(self, row) -> float:
        """``_excess`` of a short row of Python floats."""
        return (_dot(row, self._a) - self.offset) / self._nsq

    def _row_step(self, row, excess: float) -> list:
        """``x - excess * a`` on a short row of Python floats."""
        return [v - excess * a for v, a in zip(row, self._a)]


class HalfSpace(_Linear):
    """{x : <a, x> <= b} for a nonzero normal a."""

    project = PrimitiveSet.project

    def _row_project(self, row):
        excess = self._row_excess(row)
        return self._row_step(row, excess) if excess > 0.0 else row

    def _array_project(self, x):
        with np.errstate(over="ignore", invalid="ignore"):  # <a, x> may overflow
            excess = self._excess(x)
            return np.where(excess > 0.0, x - excess * self.normal, x)


class Hyperplane(_Linear):
    """{x : <a, x> = b} for a nonzero normal a."""

    project = PrimitiveSet.project

    def _row_project(self, row):
        return self._row_step(row, self._row_excess(row))

    def _array_project(self, x):
        with np.errstate(over="ignore", invalid="ignore"):  # <a, x> may overflow
            return x - self._excess(x) * self.normal


class AffineSubspace(PrimitiveSet):
    """offset + span(columns of basis); basis is a (dim, k) matrix, k = 0 for a
    single point, or one spanning vector.

    The basis is orthonormalized once at construction (SVD, rank tolerance
    ``RANK_TOL``), so projection is a single matrix-vector pass and exactly
    idempotent up to roundoff.
    """

    def __init__(self, basis, offset):
        self.offset = as_vector(offset, name="offset")
        self.dim = self.offset.shape[0]
        basis = np.asarray(basis, dtype=float)
        shape = basis.shape
        if basis.ndim == 1:  # one spanning vector
            basis = basis[:, None]
        if basis.ndim != 2 or basis.shape[0] != self.dim:
            raise ConstructionError(
                f"basis must be a ({self.dim}, k) matrix of k spanning columns or one "
                f"vector of {self.dim} entries, as offset has {self.dim}; got shape {shape}")
        basis = as_matrix(basis, "basis")
        if basis.shape[1] == 0:
            self.onb = np.zeros((self.dim, 0))
        else:
            u, s, _ = np.linalg.svd(basis, full_matrices=False)
            keep = s > RANK_TOL * max(s[0], 1.0)
            self.onb = u[:, keep]
        self._o, self._onb, self._onb_t = (
            self.offset.tolist(), self.onb.tolist(), self.onb.T.tolist())

    project = PrimitiveSet.project

    def _row_project(self, row):
        # matvec's sums on the row: coefficients in the basis, then back (k = 0
        # sums nothing, 0.0, as numpy's empty sum)
        diff = [v - o for v, o in zip(row, self._o)]
        coef = [_dot(diff, q) for q in self._onb_t]
        return [o + _dot(coef, r) for o, r in zip(self._o, self._onb)]

    def _array_project(self, x):
        return self.offset + matvec(self.onb, matvec(self.onb.T, x - self.offset))


class Box(PrimitiveSet):
    """{x : lower <= x <= upper} componentwise."""

    def __init__(self, lower, upper):
        self.lower = as_vector(lower, name="lower")
        self.upper = as_vector(upper, dim=self.lower.shape[0], name="upper")
        if np.any(self.lower > self.upper):
            raise ConstructionError("box requires lower <= upper componentwise")
        self.dim = self.lower.shape[0]
        self._lo, self._hi = self.lower.tolist(), self.upper.tolist()

    project = PrimitiveSet.project

    def _row_project(self, row):
        out = []
        for v, lo, hi in zip(row, self._lo, self._hi):
            # np.maximum, then np.minimum: a nan stays, a tie gives the bound
            if v <= lo:
                v = lo
            if v >= hi:
                v = hi
            out.append(v)
        return out

    def _array_project(self, x):
        return np.minimum(np.maximum(x, self.lower), self.upper)


class Ball(PrimitiveSet):
    """{x : ||x - center|| <= radius} with radius > 0."""

    def __init__(self, center, radius: float):
        self.center = as_vector(center, name="center")
        self.radius = float(radius)
        if not self.radius > 0.0:
            raise ConstructionError("ball radius must be positive")
        self.dim = self.center.shape[0]
        self._c = self.center.tolist()

    project = PrimitiveSet.project

    def _row_project(self, row):
        d = [v - c for v, c in zip(row, self._c)]
        nrm = math.sqrt(_dot(d, d))
        if nrm <= self.radius:
            return row
        if nrm == math.inf:  # an overflowing norm takes numpy's rescue
            return None
        scale = self.radius / nrm  # nan for a nan row, as numpy's
        return [c + scale * g for c, g in zip(self._c, d)]

    def _array_project(self, x):
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
