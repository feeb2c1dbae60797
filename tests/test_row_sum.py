"""``row_sum`` is ``np.add.reduce(v, axis=-1)`` bit for bit, and the kernels and
oracles built on it (``row_norm``, Dykstra) answer a batch row like a point;
a single short row's Python-float path answers like numpy's."""

import numpy as np
import pytest

import regflow as rf
from regflow.errors import UsageError
from regflow.flow import MAX_STEPS
from regflow.scenarios import BUNDLED, load_scenario
from regflow.sets import COLUMN_ROWS, gap_norm, matvec, row_norm, row_sum
from regflow.validation import as_point, short_row

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])


def values(shape, seed):
    """Random entries over 60 decades with signed zeros, infinities, nans and
    entries near the float limit sprinkled in."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    pick = rng.random(shape) < 0.15
    v[pick] = rng.choice(SPECIAL, int(pick.sum()))
    return v


def layouts(v):
    """C order, F order, every axis reversed, and a strided last axis."""
    wide = np.repeat(v, 2, axis=-1)
    return {"C": np.ascontiguousarray(v), "F": np.asfortranarray(v),
            "reversed": np.ascontiguousarray(v)[(slice(None, None, -1),) * v.ndim],
            "strided": wide[..., ::2]}


def assert_same(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


SHAPES = [(), (1,), (5,), (COLUMN_ROWS - 1,), (COLUMN_ROWS,), (300,), (4, 40), (2, 3)]


@pytest.mark.parametrize("d", range(17))
@pytest.mark.parametrize("lead", SHAPES, ids=str)
def test_row_sum_is_add_reduce(d, lead):
    v = values(lead + (d,), seed=d)
    with np.errstate(over="ignore", invalid="ignore"):
        for w in layouts(v).values():
            assert_same(row_sum(w), np.add.reduce(w, axis=-1))


@pytest.mark.parametrize("n", [1, 2 * COLUMN_ROWS])
def test_signed_zeros(n):
    neg = np.full((n, 3), -0.0)
    assert_same(row_sum(neg), np.add.reduce(neg, axis=-1))
    assert not np.signbit(row_sum(neg)).any()  # a row of -0.0 sums to +0.0
    assert_same(row_sum(neg[0]), np.float64(0.0))
    mixed = np.tile([-0.0, 0.0, -0.0], (n, 1))
    assert_same(row_sum(mixed), np.add.reduce(mixed, axis=-1))


@pytest.mark.parametrize("n", [1, 2 * COLUMN_ROWS])
def test_overflow_inf_and_nan(n):
    rows = np.array([[1e308, 1e308, -1e308],    # overflows on the way: inf
                     [1e308, -1e308, 1e308],    # finite throughout
                     [np.inf, -np.inf, 1.0],    # nan
                     [np.nan, 1.0, 2.0],
                     [-np.inf, 1e308, 1e308]])
    v = np.tile(rows, (n, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same(row_sum(v), np.add.reduce(v, axis=-1))
        for r in rows:
            assert_same(row_sum(r), np.add.reduce(r, axis=-1))
        assert row_sum(rows[0]) == np.inf and row_sum(rows[1]) == 1e308


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("n", [0, 1, 50, COLUMN_ROWS, 1000])
def test_row_norm_is_linalg_norm(d, n):
    g = np.random.default_rng(d * n).standard_normal((n, d)) * 10.0 ** (d - 5)
    for w in layouts(g).values():
        want = np.linalg.norm(w, axis=1)
        got = row_norm(w)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", range(1, 8))
def test_a_row_sums_alike_alone_and_in_any_batch(d):
    # a point takes scalar adds, a small batch add.reduce and a large one array
    # adds: all three must round each row the same way (a nan's sign aside)
    def bits(v):
        v = np.asarray(v, dtype=float)
        return np.where(np.isnan(v), np.nan, v).view(np.int64)

    big = values((2 * COLUMN_ROWS, d), seed=100 + d)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = bits(row_sum(big))
        alone = bits([row_sum(r) for r in big])
        small = bits([row_sum(big[i:i + 1])[0] for i in range(len(big))])
        head = bits(row_sum(big[:COLUMN_ROWS - 1]))
    np.testing.assert_array_equal(alone, whole)
    np.testing.assert_array_equal(small, whole)
    np.testing.assert_array_equal(head, whole[:COLUMN_ROWS - 1])


def assert_batch_is_rows(sets, pts, tol=1e-12, max_iter=1000):
    """A Dykstra batch equals one query per row, bit for bit, failures included."""
    def outcome(x):
        try:
            return rf.dykstra_project(sets, x, tol=tol, max_iter=max_iter), None
        except rf.ConvergenceError as exc:
            return exc.result, str(exc)

    batch, message = outcome(pts)
    single = [outcome(x) for x in pts]
    np.testing.assert_array_equal(batch.distance, [r.distance for r, _ in single])
    np.testing.assert_array_equal(batch.witness, [r.witness for r, _ in single])
    np.testing.assert_array_equal(batch.certified_tol, [r.certified_tol for r, _ in single])
    failing = [i for i, (_, m) in enumerate(single) if m is not None]
    if failing:
        assert message is not None and f"cycles at row {failing[0]} " in message
    else:
        assert message is None
    return batch


def test_dykstra_rows_that_all_stop_on_one_cycle():
    # orthogonal lines: every row lands on the origin in cycle 1 and stops in cycle 2
    sets = [rf.Hyperplane([0.0, 1.0], 0.0), rf.Hyperplane([1.0, 0.0], 0.0)]
    pts = rf.sample_region(rf.Region(np.zeros(2), 5.0), 2 * COLUMN_ROWS, 0)
    batch = assert_batch_is_rows(sets, pts)
    np.testing.assert_array_equal(batch.witness, 0.0)
    assert_batch_is_rows(sets, pts[:1])


def test_dykstra_rows_that_stop_on_different_cycles():
    # a box and an off-centre ball: rows inside both stop in cycle 1, the rest later
    sets = [rf.Box([-1.0, -1.0], [1.0, 1.0]), rf.Ball([0.5, 0.3], 1.0)]
    pts = rf.sample_region(rf.Region(np.zeros(2), 3.0), 2 * COLUMN_ROWS, 1)
    inside = np.all([s.contains(pts) for s in sets], axis=0)
    assert inside.any() and not inside.all()
    assert_batch_is_rows(sets, pts)
    for name in ("dr_two_halfspaces", "cyclic_three_boxes"):
        oracle = load_scenario(name).oracle
        assert_batch_is_rows(oracle.sets, pts, oracle.tol, oracle.max_iter)


@pytest.mark.parametrize("max_iter", [1, 2, 30])
def test_dykstra_error_names_the_first_failing_row(max_iter):
    # ball tangent to a line: the origin and rows above the ball settle, (1, 0.5) crawls
    sets = [rf.Ball([0.0, 1.0], 1.0), rf.Hyperplane([0.0, 1.0], 0.0)]
    pts = np.array([[0.0, 0.0], [0.0, 5.0], [1.0, 0.5], [2.0, 3.0], [0.0, 0.0]])
    with pytest.raises(rf.ConvergenceError):
        rf.dykstra_project(sets, pts, max_iter=max_iter)
    assert_batch_is_rows(sets, pts, max_iter=max_iter)
    assert_batch_is_rows(sets, np.tile(pts, (COLUMN_ROWS, 1)), max_iter=max_iter)


def short_kernels(d):
    """Every kernel with a short-row path, as a function of x, for dimension d."""
    rng = np.random.default_rng(d)
    a, c = rng.standard_normal(d), rng.standard_normal(d)
    m = rng.standard_normal((3, d))
    return {"halfspace": rf.HalfSpace(a, 0.0)._project,  # excess 0 at a row of zeros
            "hyperplane": rf.Hyperplane(a, -0.2)._project,
            "ball": rf.Ball(c, 0.7)._project,
            "matvec": lambda x: matvec(m, x),
            "gap_norm": lambda x: gap_norm(x, np.resize(c, x.shape))}


def short_rows(d):
    """Random rows with specials (see ``values``), signed zeros, subnormals, rows
    whose products or squares overflow, nan and inf rows, and a row where a
    compensated sum would differ from numpy's left-to-right one."""
    rows = list(values((40, d), seed=200 + d))
    rows += [np.full(d, -0.0), np.resize([0.0, -0.0], d), np.resize([5e-324, -1e-310], d),
             np.resize([1e200, -3.0], d), np.full(d, -1e200), np.resize([np.nan, 1.0], d),
             np.resize([1.0, np.inf], d)]
    if d >= 3:
        rows.append(np.resize([1e16, 1.0, -1e16], d))
    return rows


def nan_bits(v):
    v = np.asarray(v, dtype=float)
    return np.where(np.isnan(v), np.nan, v).view(np.int64)


@pytest.mark.parametrize("d", range(9))
def test_short_row_is_one_row_of_fewer_than_8(d):
    v = np.arange(float(d))
    want = v.tolist() if 0 < d < 8 else None
    assert short_row(v) == want and short_row(v[None]) is None
    for other in (np.tile(v, (2, 1)), v[None, None], np.zeros((0, d)), v.astype(np.float32),
                  v.tolist()):
        assert short_row(other) is None


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("kernel", ["halfspace", "hyperplane", "ball", "matvec", "gap_norm"])
def test_short_row_answers_like_a_batch_row(kernel, d):
    # a point (d,) and a one-row batch (1, d) take the Python-float path below
    # d = 8, a two-row batch numpy's: the row reads the same on all three
    f = short_kernels(d)[kernel]
    rows = short_rows(d)
    with np.errstate(all="ignore"):
        for r, other in zip(rows, rows[1:] + rows[:1]):
            want = f(np.vstack([r, other]))[0]
            x, x1 = r.copy(), r[None].copy()
            point, one = f(x), f(x1)
            if kernel == "gap_norm":
                assert type(point) is float
                assert isinstance(one, np.ndarray) and one.shape == (1,)
            else:
                assert point.shape == np.shape(want) and one.shape == (1,) + np.shape(want)
                assert not np.shares_memory(point, x) and not np.shares_memory(one, x1)
            assert np.asarray(one).dtype == np.float64
            np.testing.assert_array_equal(nan_bits(point), nan_bits(want))
            np.testing.assert_array_equal(nan_bits(one[0]), nan_bits(want))


def test_short_sums_run_left_to_right():
    # compensated summation gives 1.0 here, numpy's left-to-right order 0.0
    x = np.array([1e16, 1.0, -1e16])
    ones = np.ones(3)
    assert matvec(ones[None], x)[0] == 0.0
    np.testing.assert_array_equal(rf.HalfSpace(ones, 0.5).project(x), x)
    np.testing.assert_array_equal(rf.Hyperplane(ones, 0.0).project(x), x)


def test_overflowing_half_space_step_stays_inf_and_nan():
    # the right-hand side of a run from [1e200, ...] turns [-inf, nan] and is rejected
    h = rf.HalfSpace([1e150, 0.0], 0.0)
    for x in (np.array([1e200, 1.0]), np.array([[1e200, 1.0]])):
        np.testing.assert_array_equal(h._project(x).ravel(), [-np.inf, np.nan])


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_as_point_rejects_a_non_finite_short_row(d, bad):
    for k in range(d):
        x = np.resize([5e-324, -0.0, 1e308], d)
        x[k] = bad
        for q in (x, x[None], x.tolist()):
            with pytest.raises(UsageError, match=r"^x must be finite \(no NaN/Inf\)$"):
                as_point(q, d)
    x = np.resize([5e-324, -0.0, 1e308], d)
    np.testing.assert_array_equal(as_point(x[None], d), x[None])


def row_sets(d):
    """One set of each kind with a row kernel in dimension d: affine subspaces of
    dimension 0, 1 and d, and a box with flat and signed-zero bounds."""
    rng = np.random.default_rng(300 + d)
    a, c = rng.standard_normal(d), rng.standard_normal(d)
    return {"halfspace": rf.HalfSpace(a, 0.0), "hyperplane": rf.Hyperplane(a, -0.2),
            "ball": rf.Ball(c, 0.7),
            "box": rf.Box(np.resize([-0.0, 0.0, -1.0, 0.5, 0.0], d),
                          np.resize([0.0, -0.0, 2.0, 0.5, 1.0], d)),
            "affine_k0": rf.AffineSubspace(np.zeros((d, 0)), c),
            "affine_k1": rf.AffineSubspace(a, c),
            "affine_kd": rf.AffineSubspace(rng.standard_normal((d, d)), c)}


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("kind", list(row_sets(1)))
def test_row_kernel_answers_like_a_batch_row(kind, d):
    # _row_project of a row is the same row inside a two-row numpy batch, bit for
    # bit, nan signs included; it declines (None) only where numpy rescues a
    # ball's overflowing norm
    s = row_sets(d)[kind]
    rows = short_rows(d)
    rows += [np.resize([0.0, -0.0, 0.5, -1.0, 2.0], d), np.resize([-0.0, 0.0, 0.5, 2.0], d)]
    with np.errstate(all="ignore"):
        for r, other in zip(rows, rows[1:] + rows[:1]):
            want = s._project(np.vstack([r, other]))[0]
            row = r.tolist()
            got = s._row_project(row)
            np.testing.assert_array_equal(np.array(row).view(np.int64), r.view(np.int64))
            if got is None:
                assert kind == "ball" and np.isinf(row_norm(r - s.center))
                continue
            assert type(got) is list and len(got) == d
            assert all(type(v) is float for v in got)
            np.testing.assert_array_equal(np.array(got).view(np.int64), want.view(np.int64))


def test_box_row_ties_give_the_bound():
    # on a tie np.maximum and np.minimum return their second operand, the bound,
    # where Python's max and min return their first, the entry
    box = rf.Box([-0.0, 0.0, -1.0], [1.0, -0.0, 0.0])
    row = [0.0, 0.0, -0.0]
    got = box._row_project(row)
    want = box._project(np.array([row, row]))[0]
    np.testing.assert_array_equal(np.array(got).view(np.int64), want.view(np.int64))
    assert np.signbit(got).tolist() == [True, True, False]
    builtin = [min(max(v, lo), hi) for v, lo, hi in zip(row, box.lower, box.upper)]
    assert np.signbit(builtin).tolist() == [False, False, True]


def test_box_row_keeps_the_half_space_steps_nan():
    # HalfSpace([1e150, 0], 0) steps [1e200, 1] to [-inf, nan]; the clip keeps
    # the nan, as numpy's does, so Dykstra sees a nan movement
    step = rf.HalfSpace([1e150, 0.0], 0.0)._row_project([1e200, 1.0])
    assert step[0] == -np.inf and np.isnan(step[1])
    box = rf.Box([-1.0, -1.0], [1.0, 1.0])
    got = box._row_project(step)
    want = box._project(np.array([step, step]))[0]
    assert got[0] == -1.0 and np.isnan(got[1])
    np.testing.assert_array_equal(np.array(got).view(np.int64), want.view(np.int64))


def test_ball_row_declines_an_overflowing_norm():
    ball = rf.Ball([0.0, 0.0], 1.0)
    assert ball._row_project([1e200, 1e200]) is None
    np.testing.assert_array_equal(ball._project(np.array([1e200, 1e200])),
                                  ball._project(np.array([[1e200, 1e200]] * 2))[0])


def assert_same_result(got, want):
    for g, w in zip((got.distance, got.witness, got.certified_tol),
                    (want.distance, want.witness, want.certified_tol)):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        np.testing.assert_array_equal(np.asarray(g).view(np.int64),
                                      np.asarray(w).view(np.int64))


def as_row_result(batch, i):
    """Row i of a batch answer, in a point answer's types."""
    return rf.DistanceResult(float(batch.distance[i]), batch.witness[i],
                             float(batch.certified_tol[i]))


@pytest.mark.parametrize("name", BUNDLED)
def test_oracle_rows_answer_like_the_batch_on_the_scenarios_own_states(name):
    # the per-sample queries of `run`: each state alone, as a point and as a
    # one-row batch, equals its row of one batched query, in bits and types
    sc = load_scenario(name)
    states = rf.integrate_flow(sc.operator, sc.x0, sc.schedule, sc.integrator).states()
    batch = sc.oracle.distance_to(states)
    for i, x in enumerate(states):
        assert_same_result(sc.oracle.distance_to(x), as_row_result(batch, i))
        one = sc.oracle.distance_to(x[None])
        assert_same_result(one, rf.DistanceResult(batch.distance[i:i + 1],
                                                  batch.witness[i:i + 1],
                                                  batch.certified_tol[i:i + 1]))


def test_dykstra_row_nan_movement_is_the_batch_rows_error():
    sets = [rf.HalfSpace([1e150, 0.0], 0.0), rf.Box([-1.0, -1.0], [1.0, 1.0])]
    messages = []
    for x in ([1e200, 1.0], [[1e200, 1.0]], [[1e200, 1.0], [1e200, 1.0]]):
        with np.errstate(invalid="ignore"), pytest.raises(UsageError) as exc:
            rf.dykstra_project(sets, x, max_iter=MAX_STEPS)
        messages.append(str(exc.value))
    assert messages == [messages[-1]] * 3
    assert messages[0].startswith("Dykstra iterate at row 0 must be finite")


def test_dykstra_row_out_of_cycles_is_the_batch_rows_error():
    # a ball tangent to a line: from (1, 0.5) the iterates crawl past max_iter
    sets = [rf.Ball([0.0, 1.0], 1.0), rf.Hyperplane([0.0, 1.0], 0.0)]
    failures = []
    for x in ([1.0, 0.5], [[1.0, 0.5], [1.0, 0.5]]):
        with pytest.raises(rf.ConvergenceError) as exc:
            rf.dykstra_project(sets, x, max_iter=30)
        failures.append(exc.value)
    point, batch = failures
    assert str(point) == str(batch)
    assert str(point).startswith("Dykstra did not meet tol=1e-12 within 30 cycles at row 0")
    assert_same_result(point.result, as_row_result(batch.result, 0))


def test_dykstra_row_restarts_on_numpy_when_a_ball_overflows(monkeypatch):
    ball, box = rf.Ball([0.0, 0.0], 1.0), rf.Box([-1.0, -1.0], [1.0, 1.0])
    calls = []
    kernel = ball._array_project
    monkeypatch.setattr(ball, "_array_project", lambda z: calls.append(z.shape) or kernel(z))
    x = [1e200, 0.0]
    point = rf.dykstra_project([ball, box], x)
    assert calls and calls[0] == (1, 2)  # the row went to numpy's loop
    batch = rf.dykstra_project([ball, box], [x, x])
    assert_same_result(point, as_row_result(batch, 0))
    assert point.distance == 1e200 - 1.0 and point.certified_tol < 1e-12


def row_oracles(d):
    """An oracle of each kind in dimension d: a point, an exact set of each kind,
    an affine, a box and a Dykstra intersection."""
    rng = np.random.default_rng(400 + d)
    a, b, c = rng.standard_normal((3, d))
    oracles = {"point": rf.SinglePoint(c)}
    oracles.update({f"exact_{kind}": rf.ExactSet(s) for kind, s in row_sets(d).items()})
    oracles["affine"] = rf.Intersection([rf.Hyperplane(a, 0.3), rf.AffineSubspace(b, c)])
    oracles["box"] = rf.Intersection([rf.Box(np.full(d, -1.0), np.full(d, 2.0)),
                                      rf.Box(np.full(d, -0.0), np.full(d, 3.0))])
    oracles["dykstra"] = rf.Intersection(
        [rf.HalfSpace(a, 0.5), rf.Ball(np.zeros(d), 2.0), rf.Box(np.full(d, -1.5), np.full(d, 1.5))],
        max_iter=200)
    return oracles


def outcome(oracle, x):
    """The answer, or the error's message and the result it carries."""
    try:
        return oracle.distance_to(x), None
    except (rf.ConvergenceError, UsageError) as exc:
        return getattr(exc, "result", None), f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("kind", list(row_oracles(1)))
def test_oracle_row_answers_like_a_batch_row_on_hostile_rows(kind, d):
    # finite rows with signed zeros, subnormals, 1e200 and 1e308 entries and a
    # row whose compensated sum differs: a point and a one-row batch answer as
    # the row inside a two-row batch, errors and their results included
    oracle = row_oracles(d)[kind]
    rows = [r for r in short_rows(d) if np.isfinite(r).all()]
    with np.errstate(all="ignore"):
        for r in rows:
            batch, message = outcome(oracle, np.vstack([r, r]))
            for x in (r.copy(), r[None].copy()):
                got, got_message = outcome(oracle, x)
                assert got_message == message
                if batch is None:
                    assert got is None
                    continue
                want = as_row_result(batch, 0) if x.ndim == 1 else rf.DistanceResult(
                    batch.distance[:1], batch.witness[:1], batch.certified_tol[:1])
                assert_same_result(got, want)
