"""Point validation: the accepted inputs, the arrays returned and the error
messages, checked against the np.atleast_1d / np.all(np.isfinite) rule."""

import numpy as np
import pytest

from regflow.errors import UsageError
from regflow.validation import as_matrix, as_point, as_vector


def reference(x, dim, name, ndims, shape):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim not in ndims:
        raise UsageError(f"{name} must be {shape}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{name} must be finite (no NaN/Inf)")
    if dim is not None and arr.shape[-1] != dim:
        raise UsageError(f"{name} has dimension {arr.shape[-1]}, expected {dim}")
    return arr


CHECKERS = {
    "as_vector": (lambda x, dim: as_vector(x, dim, name="v"),
                  lambda x, dim: reference(x, dim, "v", (1,), "a 1-D vector")),
    "as_point": (lambda x, dim: as_point(x, dim, name="p"),
                 lambda x, dim: reference(x, dim, "p", (1, 2),
                                          "a point (d,) or a batch (n, d)")),
    "as_matrix": (lambda x, dim: as_matrix(x, name="m"),
                  lambda x, dim: reference(x, None, "m", (2,), "2-D")),
}

INPUTS = {
    "python scalar": 2.5,
    "0-d array": np.array(-1.0),
    "int list": [1, 2],
    "vector": np.array([1.0, -2.0]),
    "batch": np.arange(6.0).reshape(3, 2),
    "nested list": [[1.0, 2.0], [3.0, 4.0]],
    "3-D": np.zeros((2, 2, 2)),
    "nan": [1.0, np.nan],
    "inf": np.array([[1.0, np.inf]]),
    "0-d nan": np.array(np.nan),
    "wrong dimension": [1.0, 2.0, 3.0],
    "empty": [],
}


def outcome(check, x, dim):
    try:
        return check(x, dim)
    except UsageError as exc:
        return str(exc)


@pytest.mark.parametrize("checker", CHECKERS)
@pytest.mark.parametrize("label", INPUTS)
@pytest.mark.parametrize("dim", [None, 1, 2])
def test_same_array_or_message_as_reference(checker, label, dim):
    new, old = CHECKERS[checker]
    got, want = outcome(new, INPUTS[label], dim), outcome(old, INPUTS[label], dim)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_float_array_is_returned_without_copy():
    x = np.array([1.0, 2.0])
    assert as_point(x, 2) is x and as_vector(x) is x
    batch = np.ones((3, 2))
    assert as_point(batch, 2) is batch and as_matrix(batch) is batch
