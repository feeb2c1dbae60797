"""Acceptance battery: one test per criterion, each printing a verdict line.

Every tolerance and runtime budget is pinned here; the independent oracles
(grid maximization, closed forms, hand-built analytic projections) live inside
the tests so the checks stay decoupled from the library paths they validate.
"""

import time

import numpy as np

import regflow as rf
from regflow.cli import main
from regflow.scenarios import CONTINUOUS, load_scenario


def _verdict(num, ok, text):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def _run(scenario):
    return rf.integrate_flow(scenario.operator, scenario.x0, scenario.schedule,
                             scenario.integrator, oracle=scenario.oracle)


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_km_euler_bit_identity():
    from regflow.scenarios import DISCRETE

    all_ok = True
    for name in DISCRETE:
        sc = load_scenario(name)
        start = time.perf_counter()
        K = 50
        cfg = rf.IntegratorConfig("euler_unit", float(K))
        eu = rf.integrate_flow(sc.operator, sc.x0, sc.schedule, cfg, oracle=sc.oracle)
        km = rf.km_iterate(sc.operator, sc.x0, sc.schedule, K, oracle=sc.oracle)
        elapsed = time.perf_counter() - start
        identical = len(eu.samples) == len(km.samples) == K + 1 and all(
            a.t == b.t and np.array_equal(a.x, b.x)
            and a.residual == b.residual and a.speed == b.speed
            and a.dist_fix == b.dist_fix
            for a, b in zip(eu.samples, km.samples)
        )
        all_ok &= identical and elapsed < 1.0
    _verdict(1, all_ok, "unit-step Euler and the relaxed iteration are "
                        "bit-identical at t = 0..50 on every bundled scenario (<1 s each)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_affine_combination_identity_sweep():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(1, 9))
        alpha = float(rng.uniform(-2.0, 2.0))
        u = rng.standard_normal(dim) * 3.0
        v = rng.standard_normal(dim) * 3.0
        worst = max(worst, rf.affine_combination_identity_gap(alpha, u, v))
    elapsed = time.perf_counter() - start
    _verdict(2, worst <= 1e-12 and elapsed < 1.0,
             f"10^4 affine-combination identity triples, worst relative gap "
             f"{worst:.2e} <= 1e-12 (<1 s)")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_distance_sq_gradient_sweep():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        set_ = rf.random_primitive_set(rng, dim)
        x = rng.standard_normal(dim) * 3.0
        worst = max(worst, rf.distance_sq_gradient_gap(set_, x))
    elapsed = time.perf_counter() - start
    _verdict(3, worst <= 1e-6 and elapsed < 5.0,
             f"10^3 finite-difference gradients of d^2 match 2(x - Px), worst "
             f"relative gap {worst:.2e} <= 1e-6 (<5 s)")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_trajectory_inequalities_on_corpus():
    start = time.perf_counter()
    dt = 0.01
    all_ok = True
    details = []
    for name in CONTINUOUS:
        sc = load_scenario(name)
        traj = _run(sc)
        x_star = sc.oracle.distance_to(sc.x0).witness
        rep_avg = rf.check_avg_inequality(traj, sc.operator, x_star)
        rep_desc = rf.check_descent(traj, sc.operator, sc.oracle, x_star,
                                    tol=10.0 * dt)
        ok = rep_avg.worst_slack >= -10.0 * dt and rep_desc.worst_slack >= -10.0 * dt
        all_ok &= ok
        details.append(f"{name}: {min(rep_avg.worst_slack, rep_desc.worst_slack):.2e}")
    elapsed = time.perf_counter() - start
    _verdict(4, all_ok and elapsed < 30.0,
             "contraction and descent inequalities hold on the corpus at "
             f"dt=0.01 with slack >= -0.1 ({'; '.join(details)}; {elapsed:.1f} s)")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_combination_composition_sweeps():
    start = time.perf_counter()
    pts = rf.sample_region(rf.Region(np.zeros(2), 10.0), 500, 505)
    worst = np.inf

    l1, l2 = rf.Hyperplane([0.0, 1.0], 0.0), rf.Hyperplane([1.0, 0.0], 0.0)
    axes = rf.Intersection([l1, l2])
    ps = [rf.projector(l1), rf.projector(l2)]
    worst = min(worst, rf.check_combination_bound(ps, [0.5, 0.5], pts, axes).worst_slack)
    worst = min(worst, rf.check_composition_bound(ps, pts, axes).worst_slack)

    b1, b2, b3 = (rf.Box([0.0, 0.0], [2.0, 2.0]), rf.Box([1.0, 0.5], [3.0, 3.0]),
                  rf.Box([0.5, 1.0], [2.5, 2.5]))
    boxes = rf.Intersection([b1, b2, b3])
    bps = [rf.projector(b) for b in (b1, b2, b3)]
    w = [1 / 3, 1 / 3, 1 - 2 / 3]
    worst = min(worst, rf.check_combination_bound(bps, w, pts, boxes).worst_slack)
    worst = min(worst, rf.check_composition_bound(bps, pts, boxes).worst_slack)

    h1, h2 = rf.HalfSpace([1.0, 0.0], 0.0), rf.HalfSpace([0.0, 1.0], 0.0)
    orthant = rf.Intersection([h1, h2])
    drs = [rf.douglas_rachford(h1, h2), rf.douglas_rachford(h2, h1)]
    worst = min(worst, rf.check_combination_bound(drs, [0.5, 0.5], pts, orthant).worst_slack)
    worst = min(worst, rf.check_composition_bound(drs, pts, orthant).worst_slack)

    elapsed = time.perf_counter() - start
    _verdict(5, worst >= -1e-10 and elapsed < 10.0,
             f"combination/composition residual bounds over 500-point sweeps, "
             f"worst slack {worst:.2e} >= -1e-10 (<10 s)")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_comparison_lemma_grid():
    start = time.perf_counter()
    grid_ok = True
    for alpha in np.linspace(0.5, 4.0, 5):
        for gamma in np.linspace(0.2, 0.8, 5):
            for u0 in (0.1, 1.0, 10.0):
                rep = rf.verify_comparison_lemmas(float(alpha), float(gamma), float(u0))
                grid_ok &= rep.passed

    t, u = rf.integrate_scalar_decay(1.0, 2.0, 1.0, 20.0)
    closed_form_dev = float(np.abs(u - 1.0 / (1.0 + t)).max())
    m = rf.powerlaw_comparison_constant(1.0, 0.5)
    pos = t > 0
    bound_ok = bool(np.all(u[pos] <= m * t[pos] ** (-1.0)))
    elapsed = time.perf_counter() - start
    ok = grid_ok and closed_form_dev <= 1e-9 and m == 1.0 and bound_ok and elapsed < 10.0
    _verdict(6, ok,
             f"decay comparison lemmas pass on the 5x5x3 grid; gamma=1/2 case "
             f"matches 1/(1+t) to {closed_form_dev:.2e} and respects t^-1 with "
             f"M={m:g} ({elapsed:.1f} s)")


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_exponential_regime_pipeline():
    start = time.perf_counter()
    sc = load_scenario("two_lines_60deg")

    # (a) sampled kappa vs an exhaustive grid oracle on the same region
    reg = sc.regularity
    est = rf.estimate_operator_regularity(sc.operator, sc.oracle, reg["region"],
                                          reg["n_samples"], reg["mode"], reg["seed"])
    xs = np.linspace(-10.0, 10.0, 401)
    X, Y = np.meshgrid(xs, xs)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= 10.0]
    u = np.array([0.5, np.sin(np.pi / 3)])   # direction of the 60-degree line
    p1 = pts.copy()
    p1[:, 1] = 0.0                            # project onto the x-axis
    tx = (p1 @ u)[:, None] * u[None, :]       # then onto the 60-degree line
    res = np.linalg.norm(pts - tx, axis=1)
    d = np.linalg.norm(pts, axis=1)
    keep = res > 1e-12
    grid_kappa = float(np.max(d[keep] / res[keep]))
    kappa_ok = abs(est.kappa - grid_kappa) / grid_kappa <= 0.05

    # (b) the three displayed inequalities at every sample
    traj = _run(sc)
    bc = rf.check_linear_rate_bound(traj, est.kappa,
                                    tol=1e-9)
    bounds_ok = bc.passed and bc.worst_margin >= -1e-9

    # (c) fitted exponential rate dominates the theorem rate
    fit = rf.fit_decay(traj, "dist_fix", "exponential")
    rate_ok = fit.rate >= sc.schedule.inf_value / (2.0 * est.kappa ** 2)

    elapsed = time.perf_counter() - start
    ok = kappa_ok and bounds_ok and rate_ok and elapsed < 60.0
    _verdict(7, ok,
             f"exponential regime: kappa_hat {est.kappa:.6f} within 5% of grid "
             f"oracle {grid_kappa:.6f}; bound margins >= {bc.worst_margin:.2e}; "
             f"fit rate {fit.rate:.3f} >= {sc.schedule.inf_value / (2 * est.kappa ** 2):.3f} "
             f"({elapsed:.1f} s)")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_powerlaw_regime_pipeline():
    start = time.perf_counter()
    sc = load_scenario("tangent_ball_line")

    reg = sc.regularity
    est = rf.estimate_operator_regularity(sc.operator, sc.oracle, reg["region"],
                                          reg["n_samples"], reg["mode"], reg["seed"])
    gamma_ok = 0.4 <= est.gamma <= 0.6

    traj = _run(sc)
    exp_fit, pow_fit, chosen = rf.select_model(traj, "dist_fix")
    model_ok = chosen == "powerlaw"

    bc = rf.check_hoelder_rate_bound(traj, est.kappa, est.gamma,
                                     tol=1e-6, t_min=1.0,
                                     x_bar=sc.oracle.point)
    bound_ok = bc.passed and bc.worst_margin >= -1e-6

    elapsed = time.perf_counter() - start
    ok = gamma_ok and model_ok and bound_ok and elapsed < 60.0
    _verdict(8, ok,
             f"power-law regime: gamma_hat {est.gamma:.3f} in [0.4, 0.6]; "
             f"select_model chose {chosen}; bound margins >= {bc.worst_margin:.2e} "
             f"for t >= 1 ({elapsed:.1f} s)")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_discrete_rate_mirror():
    start = time.perf_counter()
    lin = load_scenario("two_lines_60deg_km")
    traj_lin = rf.km_iterate(lin.operator, lin.x0, lin.schedule, 50, lin.oracle)
    exp_l, pow_l, chosen_l = rf.select_model(traj_lin, "dist_fix")

    tan = load_scenario("tangent_ball_line_km")
    traj_tan = rf.km_iterate(tan.operator, tan.x0, tan.schedule, 300, tan.oracle)
    exp_t, pow_t, chosen_t = rf.select_model(traj_tan, "dist_fix")

    elapsed = time.perf_counter() - start
    ok = (chosen_l == "exponential" and exp_l.rss_per_point < pow_l.rss_per_point
          and chosen_t == "powerlaw" and pow_t.rss_per_point < exp_t.rss_per_point
          and elapsed < 30.0)
    _verdict(9, ok,
             "iteration mirrors the flow: exponential wins on the polyhedral "
             f"instance (rss/pt {exp_l.rss_per_point:.2e} < {pow_l.rss_per_point:.2e}), "
             f"power law wins on the tangent instance (rss/pt {pow_t.rss_per_point:.2e} "
             f"< {exp_t.rss_per_point:.2e}) ({elapsed:.1f} s)")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_dykstra_oracle():
    start = time.perf_counter()
    res = rf.dykstra_project([rf.HalfSpace([1.0, 0.0], 0.0),
                              rf.HalfSpace([0.0, 1.0], 0.0)], [1.0, 1.0])
    orthant_ok = bool(np.linalg.norm(res.witness - np.zeros(2)) <= 1e-10)

    tol = 1e-12
    h1 = rf.Hyperplane([1.0, 2.0], 1.0)
    h2 = rf.Hyperplane([3.0, -1.0], 0.5)
    rng = np.random.default_rng(1010)
    agree_ok = True
    for _ in range(20):
        x = rng.standard_normal(2) * 5.0
        dy = rf.dykstra_project([h1, h2], x, tol=tol)
        ex = rf.affine_intersection_project([h1, h2], x)
        agree_ok &= abs(dy.distance - ex.distance) <= 10.0 * tol * max(1.0, ex.distance)
    elapsed = time.perf_counter() - start
    ok = orthant_ok and agree_ok and elapsed < 1.0
    _verdict(10, ok,
             "Dykstra returns the orthant projection to 1e-10 and matches the "
             "exact affine solve within 10*tol (<1 s)")


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_negative_control(capsys):
    start = time.perf_counter()
    code = main(["verify", "--corrupt"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    named = "corrupted_expansive" in out and "nonexpansiveness" in out
    ok = code == 1 and named and elapsed < 1.0
    with capsys.disabled():
        _verdict(11, ok,
                 f"deliberately expansive operator fails its certificate and "
                 f"verify exits 1 naming it ({elapsed:.2f} s)")
