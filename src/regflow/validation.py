"""Input validation helpers, and the rule that sends a short point to the
kernels' Python-float paths."""

import math

import numpy as np

from .errors import UsageError

_FLOAT = np.dtype(float)
# numpy (2.x) adds a row of fewer than this many entries left to right from 0.0,
# which a Python loop can repeat bit for bit; longer rows it sums pairwise.
SHORT_ROW = 8


def short_row(x) -> list[float] | None:
    """``x``'s entries as Python floats when ``x`` is a float64 point ``(d,)`` with
    0 < d < ``SHORT_ROW``; otherwise None, and the caller keeps its numpy path
    (see ``regflow.sets`` for the rules the Python-float path keeps).
    """
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.ndim != 1:
        return None
    return x.tolist() if 0 < x.shape[0] < SHORT_ROW else None


def _checked(x, dim: int | None, name: str, ndims: tuple, shape: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)  # as np.atleast_1d, less overhead
    if arr.ndim not in ndims:
        raise UsageError(f"{name} must be {shape}, got shape {arr.shape}")
    row = short_row(arr)
    if not (np.isfinite(arr).all() if row is None else all(map(math.isfinite, row))):
        raise UsageError(f"{name} must be finite (no NaN/Inf)")
    if dim is not None and arr.shape[-1] != dim:
        raise UsageError(f"{name} has dimension {arr.shape[-1]}, expected {dim}")
    return arr


def as_vector(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 vector, optionally checking its length."""
    return _checked(x, dim, name, (1,), "a 1-D vector")


def as_point(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    """Coerce a query to a finite float64 point ``(d,)`` or batch ``(n, d)``."""
    return _checked(x, dim, name, (1, 2), "a point (d,) or a batch (n, d)")


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a finite 2-D float64 array."""
    return _checked(m, None, name, (2,), "2-D")
