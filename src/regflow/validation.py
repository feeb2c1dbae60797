"""Input validation helpers."""

import numpy as np

from .errors import UsageError


def _checked(x, dim: int | None, name: str, ndims: tuple, shape: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)  # as np.atleast_1d, less overhead
    if arr.ndim not in ndims:
        raise UsageError(f"{name} must be {shape}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
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
