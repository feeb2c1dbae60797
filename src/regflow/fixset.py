"""Fixed-point-set oracles and distance computation d(x, Fix T).

The distance to a fixed-point set is the quantity every rate theorem here is
phrased in, so oracles return a ``DistanceResult`` carrying the witness point
and a measured certificate of how well the witness satisfies the constraints,
not just a number. Oracles answer a point ``(d,)`` or, row-wise, a batch
``(n, d)``, validated once on entry. An intersection of sets is answered in
closed form where it has one (boxes intersect in a box, one clip; affine sets
in an affine set, one matrix product) and by Dykstra's algorithm otherwise.

``run`` asks one point at a time, once per recorded sample. A short point
(``validation.short_row``: a point ``(d,)`` of fewer than 8 entries) is
answered in Python floats on the sets' row kernels (``_row_project``, see
``regflow.sets``), in numpy's order, so the result equals the same row of a
batch query bit for bit, as floats and a ``(d,)`` witness. A batch, one row
``(1, d)`` included, takes the numpy path. ``ExactSet`` clips twice and
measures two gaps, ``SinglePoint`` one gap, the affine solve takes the
factored ``M x + shift`` and its certificate from the row kernels, and Dykstra
cycles on lists with the numpy loop's stopping rule and errors, measuring its
certificate through each set's public ``distance``. Where a row kernel
declines a point (an overflowing ball norm), or a witness is not finite, the
query takes the numpy path from the start.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConstructionError, ConvergenceError, UsageError
from .sets import (Box, Hyperplane, PrimitiveSet, _dot, gap_norm, is_affine, matvec, row_norm,
                   short_gap_norm)
from .validation import as_point, as_vector, short_row

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
# The least Intersection tol: below it Dykstra stalls at roundoff until max_iter.
_MIN_TOL = 1000 * np.finfo(float).eps


@dataclass(frozen=True)
class DistanceResult:
    """Distance to a target set, with the nearest point found.

    ``witness`` lies in the target set up to ``certified_tol`` (measured, not
    assumed) and ``distance`` is exactly ``||x - witness||`` as computed. For a
    batch ``(n, d)`` each field carries a leading ``n`` axis.
    """

    distance: float | np.ndarray
    witness: np.ndarray
    certified_tol: float | np.ndarray


def residual(op, x):
    """||x - T(x)|| row-wise, the quantity whose vanishing certifies a fixed point."""
    x = as_point(x, op.dim)
    return gap_norm(x, op.fn(x))


def _violation(sets: list[PrimitiveSet], witness: np.ndarray):
    """max_i d(witness, C_i), measured through each set's public distance."""
    worst = reduce(np.maximum, (s.distance(witness) for s in sets))
    return float(worst) if np.ndim(worst) == 0 else worst


def _maximum(a: float, b: float) -> float:
    """``np.maximum`` of two floats: a nan wins, a tie gives ``b``."""
    return a if a > b or a != a else b


def _row_violation(sets: list[PrimitiveSet], witness: list) -> float | None:
    """``_violation`` of a finite short row from the row kernels, or None where
    a set's kernel declines it."""
    worst = None
    for s in sets:
        w = s._row_project(witness)
        if w is None:
            return None
        gap = short_gap_norm(witness, w)
        worst = gap if worst is None else _maximum(worst, gap)
    return worst


def _row_result(row: list, witness: list, certified: float) -> DistanceResult:
    """The answer for a short point (``row`` as floats) in a point's types."""
    return DistanceResult(short_gap_norm(row, witness), np.array(witness), certified)


class _FactoredAffine(tuple):
    """Affine sets with the projector onto their intersection factored once:
    the minimum-norm correction x - R^+(Rx - r) = Mx + shift of the stacked
    system R z = r, exact even when its rows are dependent."""

    def __new__(cls, sets):
        self = super().__new__(cls, sets)
        rows, rhs = [], []
        for s in self:
            if isinstance(s, Hyperplane):
                rows.append(s.normal[None, :])
                rhs.append([s.offset])
            else:  # AffineSubspace: x in set  <=>  (I - QQ^T)(x - offset) = 0
                comp = np.eye(s.dim) - s.onb @ s.onb.T
                rows.append(comp)
                rhs.append(comp @ s.offset)
        R, r = np.vstack(rows), np.concatenate(rhs)
        pinv = np.linalg.pinv(R, rcond=1e-13)
        self.matrix = np.eye(R.shape[1]) - pinv @ R
        self.shift = pinv @ r
        self._rows, self._shifts = self.matrix.tolist(), self.shift.tolist()
        return self


def _box_intersection(boxes: list[Box]) -> Box:
    """The intersection of boxes, itself a box: per coordinate the largest lower
    and the smallest upper bound. Raises ConstructionError naming the first
    coordinate where the two cross, which makes the intersection empty."""
    lower = reduce(np.maximum, (b.lower for b in boxes))
    upper = reduce(np.minimum, (b.upper for b in boxes))
    crossed = np.flatnonzero(lower > upper)
    if crossed.size:
        k = crossed[0]
        raise ConstructionError(
            f"intersection is empty: on coordinate {k} the largest lower bound "
            f"{float(lower[k])!r} exceeds the smallest upper bound {float(upper[k])!r}")
    return Box(lower, upper)


def affine_intersection_project(sets: list[PrimitiveSet], x) -> DistanceResult:
    """Exact nearest point of an intersection of hyperplanes/affine subspaces.

    ``sets`` are factored unless an ``Intersection`` passes them pre-factored;
    the query itself is one matrix product.
    """
    if not isinstance(sets, _FactoredAffine):
        if not sets or not all(is_affine(s) for s in sets):
            raise UsageError("affine_intersection_project requires affine sets only")
        sets = _FactoredAffine(sets)
    x = as_point(x, sets[0].dim)
    row = short_row(x)
    if row is not None:  # matvec's sums, then the shift; a non-finite witness takes
        # the numpy path, whose public distance rejects it
        witness = [_dot(row, m) + c for m, c in zip(sets._rows, sets._shifts)]
        if all(map(math.isfinite, witness)):
            certified = _row_violation(sets, witness)
            if certified is not None:
                return _row_result(row, witness, certified)
    witness = matvec(sets.matrix, x) + sets.shift
    return DistanceResult(gap_norm(x, witness), witness, _violation(sets, witness))


def dykstra_project(
    sets: list[PrimitiveSet],
    x,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DistanceResult:
    """Project ``x`` (a point or each row of a batch) onto the intersection of
    ``sets`` by Dykstra's algorithm.

    Plain alternating projections only find *some* feasible point; the
    correction terms below are what make the limit the nearest point, which is
    what the distance function needs. A row stops when the cycle-to-cycle
    movement of its iterate drops below ``tol`` and then its worst constraint
    violation, measured only on such rows, is below ``tol`` too; that violation
    is the row's ``certified_tol``. A movement that overflows reads inf, "still
    moving", with no warning, and the distance is ``gap_norm``'s. The whole
    loop runs in that one ``np.errstate(over="ignore")``, so an overflow inside
    a set's projection gives no overflow warning either. An iterate it turns
    nan, or that stays inf for a cycle, moves by nan, neither moving nor
    stopped: on the first cycle where no row stops, such a row is rejected
    (UsageError naming it), so no such row is returned and the query does not
    run on to ``max_iter``. Raises
    ConvergenceError naming the first failing row, carrying the best iterates
    (their violation measured at the end), if ``max_iter`` cycles are exhausted
    first. A short point cycles on lists of floats (``_dykstra_row``), with the
    same results and errors.
    """
    if not sets:
        raise UsageError("need at least one set")
    if not tol > 0.0:
        raise UsageError("tol must be positive")
    if max_iter < 1:
        raise UsageError(f"max_iter must be at least 1, got {max_iter}")
    dim = sets[0].dim
    for s in sets:
        if s.dim != dim:
            raise UsageError("all sets must share one ambient dimension")
    x = as_point(x, dim)
    row = short_row(x)
    answer = None if row is None else _dykstra_row(sets, row, tol, max_iter)
    if answer is not None:
        z, certified, met = answer
        result = _row_result(row, z, certified)
        if not met:
            raise ConvergenceError(_unmet(tol, max_iter, 0, certified), result=result)
        return result

    z = np.atleast_2d(x)
    out, rows = z.copy(), np.arange(z.shape[0])  # rows: those still cycling
    certified = np.empty(z.shape[0])
    increments = [np.zeros(z.shape) for _ in sets]
    # a cycle's movement may overflow to inf on finite rows: that row still moves.
    # One scope per query, so projections inside the loop are silenced too.
    with np.errstate(over="ignore"):
        for _ in range(max_iter):
            if not rows.size:
                break
            z_prev = z
            for i, s in enumerate(sets):
                shifted = z + increments[i]
                z = s._project(shifted)
                increments[i] = shifted - z
            movement = row_norm(z - z_prev)
            moving = movement >= tol
            if moving.all():
                continue
            done = movement < tol
            if not done.any():  # neither moving nor stopped: a nan movement
                raise UsageError(_NAN_MOVEMENT.format(rows[np.argmin(moving)]))
            # the violation is measured only on rows that stopped moving
            violation = _violation(sets, z[done])
            met = violation < tol
            if met.any():
                done[done] = met
                out[rows[done]] = z[done]
                certified[rows[done]] = violation[met]
                keep = ~done
                rows, z = rows[keep], z[keep]
                increments = [inc[keep] for inc in increments]
    if rows.size:  # out of cycles: these rows' violation is measured here
        out[rows] = z
        certified[rows] = _violation(sets, z)
    if x.ndim == 1:
        out, certified = out[0], float(certified[0])
    result = DistanceResult(gap_norm(x, out), out, certified)
    if rows.size:
        violation = np.atleast_1d(result.certified_tol)[rows[0]]
        raise ConvergenceError(_unmet(tol, max_iter, rows[0], violation), result=result)
    return result


_NAN_MOVEMENT = ("Dykstra iterate at row {} must be finite (no NaN/Inf): a projection "
                 "left the float range")


def _unmet(tol: float, max_iter: int, row: int, violation: float) -> str:
    return (f"Dykstra did not meet tol={tol:g} within {max_iter} cycles at row {row} "
            f"(violation {violation:.3e})")


def _dykstra_row(sets: list[PrimitiveSet], row: list, tol: float, max_iter: int):
    """``dykstra_project``'s loop on one short row of Python floats, step for step
    in the numpy loop's arithmetic, stopping rule and nan-movement error.
    Returns (witness, certified_tol, met), or None as soon as a set's row
    kernel declines a row: the query then starts again on the numpy loop. The
    violation is measured through each set's public ``distance``."""
    z = row
    increments = [[0.0] * len(row) for _ in sets]
    for _ in range(max_iter):
        z_prev = z
        for i, s in enumerate(sets):
            shifted = [a + b for a, b in zip(z, increments[i])]
            z = s._row_project(shifted)
            if z is None:
                return None
            increments[i] = [a - b for a, b in zip(shifted, z)]
        steps = [a - b for a, b in zip(z, z_prev)]
        movement = math.sqrt(_dot(steps, steps))  # row_norm's: inf on overflow
        if movement >= tol:
            continue
        if not movement < tol:
            raise UsageError(_NAN_MOVEMENT.format(0))
        violation = _point_violation(sets, z)
        if violation < tol:
            return z, violation, True
    return z, _point_violation(sets, z), False


def _point_violation(sets: list[PrimitiveSet], z: list) -> float:
    """``_violation`` of one row through each set's public ``distance``, reduced
    in floats."""
    point = np.array(z)
    return reduce(_maximum, (s.distance(point) for s in sets))


class FixSetOracle:
    """Computes d(x, F) for a declared fixed-point set F, row-wise on a batch."""

    dim: int

    def distance_to(self, x) -> DistanceResult:
        raise NotImplementedError


class ExactSet(FixSetOracle):
    """Fix T known to be a primitive set with a closed-form projector."""

    def __init__(self, set_: PrimitiveSet):
        self.set = set_
        self.dim = set_.dim

    def distance_to(self, x) -> DistanceResult:
        x = as_point(x, self.dim)
        row = short_row(x)
        if row is not None:  # a row the kernel declines, or not finite, takes numpy's path
            w = self.set._row_project(row)
            if w is not None and all(map(math.isfinite, w)):
                ww = self.set._row_project(w)
                if ww is not None:
                    return _row_result(row, w, short_gap_norm(w, ww))
        w = self.set._project(x)
        if not np.isfinite(w).all():
            raise UsageError("the nearest point must be finite (no NaN/Inf): the "
                             "projection left the float range")
        return DistanceResult(gap_norm(x, w), w, gap_norm(w, self.set._project(w)))


class SinglePoint(FixSetOracle):
    """Fix T known to be a single point.

    The witness is a fresh copy of the point (one per row of a batch), so its
    certificate is exactly 0: ``0.0`` for a point, zeros ``(n,)`` for a batch.
    """

    def __init__(self, point):
        self.point = as_vector(point, name="point")
        self.dim = self.point.shape[0]
        self._p = self.point.tolist()

    def distance_to(self, x) -> DistanceResult:
        x = as_point(x, self.dim)
        row = short_row(x)
        if row is not None:
            return _row_result(row, self._p, 0.0)
        w = np.empty_like(x)
        w[...] = self.point
        return DistanceResult(gap_norm(x, w), w, 0.0 if x.ndim == 1 else np.zeros(x.shape[0]))


class Intersection(FixSetOracle):
    """Fix T = intersection of primitive sets (the composite-operator case).

    Boxes intersect in one box, built at construction (an empty one is rejected
    there, naming the coordinate) and queried as an ``ExactSet``: one clip per
    row. Its distance, witness and certificate are what Dykstra returns on the
    same boxes, bit for bit, except that a zero taken from a -0.0 bound may
    differ in sign.
    All-affine collections factor their exact projector once. Anything else
    runs Dykstra with this oracle's ``tol`` and ``max_iter``, which matter for
    it alone. Nonemptiness of a collection that is not all boxes is asserted
    at construction by projecting the origin, so query cost stays predictable.
    """

    def __init__(self, sets: list[PrimitiveSet], tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER):
        if not sets:
            raise ConstructionError("intersection needs at least one set")
        dim = sets[0].dim
        if any(s.dim != dim for s in sets):
            raise ConstructionError("intersection members must share one dimension")
        if not tol >= _MIN_TOL:
            raise ConstructionError(f"tol must be positive and at least {_MIN_TOL:.3g} "
                                    f"(1000 ulps of 1), got {tol!r}")
        if max_iter < 1:
            raise ConstructionError(f"max_iter must be at least 1, got {max_iter}")
        self.sets = list(sets)
        self.dim = dim
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self._affine = (_FactoredAffine(self.sets)
                        if all(is_affine(s) for s in self.sets) else None)
        self._box = (ExactSet(_box_intersection(self.sets))
                     if all(isinstance(s, Box) for s in self.sets) else None)
        if self._box is not None:  # emptiness is already decided, exactly
            return
        try:
            probe = self.distance_to(np.zeros(dim))
        except ConvergenceError as exc:
            raise ConstructionError(
                "intersection appears empty or the oracle failed from the origin: "
                f"{exc}"
            ) from exc
        if probe.certified_tol >= tol:
            raise ConstructionError(
                f"intersection appears empty: witness violation "
                f"{probe.certified_tol:.3e} >= tol {tol:g}"
            )

    def distance_to(self, x) -> DistanceResult:
        if self._box is not None:
            # Dykstra's first shift, x + 0, turns -0.0 into +0.0 and the witness
            # keeps it; the distance is the same either way. The box validates x.
            return self._box.distance_to(np.asarray(x, dtype=float) + 0.0)
        if self._affine is not None:
            return affine_intersection_project(self._affine, x)
        return dykstra_project(self.sets, x, tol=self.tol, max_iter=self.max_iter)
