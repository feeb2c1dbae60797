"""Scenario-driven command line front end.

Commands:
    regflow run <config>      build and run one scenario, write its artifacts
    regflow verify [--seed N] run the whole verification battery
    regflow rate <csv>        fit decay models to a trajectory CSV
    regflow reg <config>      estimate regularity constants for a config

Exit codes: 0 pass, 1 check failure, 2 config error, 3 numeric error.
Artifacts are byte-identical across runs for identical inputs (sorted JSON
keys, locale-independent floats, no timestamps).
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import Scenario, build_scenario, check_seed, sample_count
from .errors import (
    ConfigError,
    ConstructionError,
    ConvergenceError,
    DegenerateEstimateError,
    FitError,
    IntegrationError,
    NumericRangeError,
    UsageError,
)
from .fixset import Intersection, SinglePoint
from .flow import Trajectory, integrate_flow, km_iterate
from .operators import Operator, OperatorMeta, douglas_rachford, projector
from .rates import (
    check_hoelder_rate_bound,
    check_linear_rate_bound,
    fit_decay,
    select_model,
    verify_comparison_lemmas,
)
from .regularity import (
    Region,
    check_avg_inequality,
    check_averagedness,
    check_combination_bound,
    check_composition_bound,
    check_core_identities,
    check_descent,
    check_nonexpansiveness,
    check_sqne,
    estimate_operator_regularity,
    sample_region,
)
from .scenarios import (
    BUNDLED,
    CONTINUOUS,
    DISCRETE,
    certificate_operators,
    load_scenario,
    resolve_config_source,
)
from .sets import Hyperplane, row_norm

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CONFIG_ERRORS = (ConfigError, UsageError, ConstructionError)
_NUMERIC_ERRORS = (ConvergenceError, IntegrationError, FitError, DegenerateEstimateError,
                   NumericRangeError)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(flag_value) -> Path:
    d = Path(flag_value or os.environ.get("REGFLOW_OUT_DIR", "."))
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {str(d)!r} as the output directory: "
                         f"{exc.strerror or exc}") from None
    return d


def _print_check(tag: str, passed: bool, value: float, value_name: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict}  {tag}  {value_name}={value:.6e}")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

# Trajectory checks shared by `run` and `verify`: each maps (scenario,
# trajectory, x*), x* the fixed point nearest x0, to an InequalityReport.
_TRAJECTORY_CHECKS = {
    "avg_inequality": lambda sc, traj, x_star: check_avg_inequality(
        traj, sc.operator, x_star),
    "descent": lambda sc, traj, x_star: check_descent(
        traj, sc.operator, sc.oracle, x_star),
}


def run_scenario(scenario: Scenario, out_dir: Path) -> int:
    """Run one validated scenario: integrate, estimate, fit, check, write.

    A numeric failure writes the report so far, marked partial, and exits 3.
    """
    report: dict = {"schema": 1, "name": scenario.name,
                    "paper_ref": scenario.paper_ref, "checks": []}
    try:
        return _run_stages(scenario, out_dir, report)
    except _NUMERIC_ERRORS as exc:
        report.update(partial=True, error=str(exc), passed=False)
        if "report_json" in scenario.outputs:
            _write_json(out_dir / f"{scenario.name}_report.json", report)
        print(f"ERROR  {scenario.name}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _fit_doc(traj: Trajectory, metric: str, model: str) -> dict:
    """The rate-fit document: both models and the choice for "auto", else one fit."""
    if model == "auto":
        exp_fit, pow_fit, chosen = select_model(traj, metric)
        return {"metric": metric, "chosen": chosen,
                "exponential": exp_fit.to_dict(), "powerlaw": pow_fit.to_dict()}
    fit = fit_decay(traj, metric, model)
    return {"metric": metric, "chosen": model,
            model: None if fit is None else fit.to_dict()}


def _run_stages(scenario: Scenario, out_dir: Path, report: dict) -> int:
    ops = scenario.outputs
    name = scenario.name
    try:
        traj = integrate_flow(scenario.operator, scenario.x0, scenario.schedule,
                              scenario.integrator, oracle=scenario.oracle)
    except IntegrationError as exc:
        if exc.partial is not None and "trajectory_csv" in ops:
            exc.partial.to_csv(out_dir / f"{name}_trajectory.csv")
        raise
    if "trajectory_csv" in ops:
        traj.to_csv(out_dir / f"{name}_trajectory.csv")

    estimate = None
    if scenario.regularity is not None:
        reg = scenario.regularity
        estimate = estimate_operator_regularity(
            scenario.operator, scenario.oracle, reg["region"],
            n_samples=reg["n_samples"], mode=reg["mode"], seed=reg["seed"],
        )
        if "regularity_json" in ops:
            _write_json(out_dir / f"{name}_regularity.json", estimate.to_dict())

    if scenario.rate_fit is not None:
        fit_doc = _fit_doc(traj, scenario.rate_fit["metric"], scenario.rate_fit["model"])
        if "ratefit_json" in ops:
            _write_json(out_dir / f"{name}_ratefit.json", fit_doc)
        report["rate_fit"] = fit_doc

    if scenario.checks:
        x_star = scenario.oracle.distance_to(scenario.x0).witness
        for check in scenario.checks:
            if check != "rate_bound":
                rep = _TRAJECTORY_CHECKS[check](scenario, traj, x_star)
                report["checks"].append(rep.to_dict())
                _print_check(f"{name}: {rep.name}", rep.passed, rep.worst_slack,
                             "worst_slack")
                continue
            region = scenario.regularity["region"]
            dists = row_norm(traj.states() - region.center[None, :])
            contained = bool(dists.max() <= region.radius + 1e-9)
            report["checks"].append({"name": "estimate region contains trajectory",
                                     "passed": contained})
            if not contained:  # a passing gate prints nothing
                _print_check(f"{name}: estimate region contains trajectory", False,
                             dists.max(), "max_distance")
            x_bar = traj.limit_estimate
            if x_bar is None and isinstance(scenario.oracle, SinglePoint):
                x_bar = scenario.oracle.point
            if estimate.mode == "linear":
                bc = check_linear_rate_bound(traj, estimate.kappa, x_bar=x_bar)
            else:
                bc = check_hoelder_rate_bound(traj, estimate.kappa, estimate.gamma,
                                              x_bar=x_bar)
            report["checks"].append(bc.to_dict())
            for bname, margin in bc.margins.items():
                _print_check(f"{name}: {bc.bound_name} [{bname}]",
                             margin >= -bc.tolerance, margin, "margin")

    all_passed = all(c["passed"] for c in report["checks"])
    report["passed"] = all_passed
    if "report_json" in ops:
        _write_json(out_dir / f"{name}_report.json", report)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _expansive_control(dim: int = 2) -> Operator:
    # deliberately breaks the nonexpansiveness certificate (negative control)
    return Operator(lambda x: 1.05 * x, dim,
                    OperatorMeta(label="corrupted_expansive"))


def verify_all(seed: int = 0, corrupt: bool = False) -> int:
    """Run the full verification battery over the bundled corpus.

    Operator certificates run first and gate everything else: if one fails
    (e.g. the deliberately expansive negative control), later trajectory
    checks would be meaningless, so the run stops there.
    """
    failures: list[str] = []

    def record(rep) -> None:
        _print_check(rep.name, rep.passed, rep.worst_slack, "worst_slack")
        if not rep.passed:
            failures.append(f"{rep.name} (worst_slack={rep.worst_slack:.3e})")

    continuous = {sname: load_scenario(sname) for sname in CONTINUOUS}
    corpus = certificate_operators(continuous)
    if corrupt:
        corpus = [(_expansive_control(), None)] + corpus
    for op, oracle in corpus:
        rep = check_nonexpansiveness(op, n_pairs=1000, seed=seed)
        record(rep)
        if rep.passed and op.meta.alpha is not None:
            record(check_averagedness(op, n_pairs=500, seed=seed))
        if rep.passed and op.meta.rho is not None and oracle is not None:
            record(check_sqne(op, oracle, n_points=500, seed=seed))
        if failures:
            print("\nFAILED certificates:\n  " + "\n  ".join(failures))
            return EXIT_CHECK_FAILED

    record(check_core_identities(2000, seed))

    alphas, gammas = np.linspace(0.5, 4.0, 5), np.linspace(0.2, 0.8, 5)
    for rep in verify_comparison_lemmas(alphas[:, None], gammas[None, :], 1.0):
        record(rep)

    # lemma sweeps over the bundled SQNE families (every member 1-SQNE); the
    # 90-degree axis pair is in no scenario
    pts = sample_region(Region(np.zeros(2), 10.0), 500, seed)
    l1, l2 = Hyperplane([0.0, 1.0], 0.0), Hyperplane([1.0, 0.0], 0.0)
    boxes = continuous["cyclic_three_boxes"].oracle
    halves = continuous["dr_two_halfspaces"].oracle
    h1, h2 = halves.sets
    third = 1.0 / 3.0
    for ops, weights, oracle in (
        ([projector(l1), projector(l2)], [0.5, 0.5], Intersection([l1, l2])),
        ([projector(b) for b in boxes.sets], [third, third, 1.0 - 2.0 * third], boxes),
        ([douglas_rachford(h1, h2), douglas_rachford(h2, h1)], [0.5, 0.5], halves),
    ):
        rhos = [1.0] * len(ops)
        record(check_combination_bound(ops, weights, rhos, pts, oracle))
        record(check_composition_bound(ops, rhos, pts, oracle))

    # trajectory inequality checks over the continuous corpus, one trajectory
    # alive at a time
    for sname, sc in continuous.items():
        traj = integrate_flow(sc.operator, sc.x0, sc.schedule, sc.integrator)
        x_star = sc.oracle.distance_to(sc.x0).witness
        for check in _TRAJECTORY_CHECKS.values():
            rep = check(sc, traj, x_star)
            record(dataclasses.replace(rep, name=f"{rep.name} [{sname}]"))
        del traj

    # unit-step Euler and km_iterate against the relaxed iteration written out here
    for sname in DISCRETE:
        sc = load_scenario(sname)
        K = min(int(round(sc.integrator.t_end)), 50)
        x, xs = sc.x0, [sc.x0]
        for k in range(K):
            lam = float(sc.schedule(float(k)))
            x = (1.0 - lam) * x + lam * sc.operator(x)
            xs.append(x)
        cfg = type(sc.integrator)(method="euler_unit", t_end=float(K))
        identical = all(
            np.array_equal(traj.times(), np.arange(K + 1.0))
            and np.array_equal(traj.states(), np.array(xs))
            for traj in (integrate_flow(sc.operator, sc.x0, sc.schedule, cfg),
                         km_iterate(sc.operator, sc.x0, sc.schedule, K)))
        tag = f"unit-step Euler / relaxed iteration bitwise agreement [{sname}]"
        print(f"{'PASS' if identical else 'FAIL'}  {tag}")
        if not identical:
            failures.append(tag)

    if failures:
        print("\nFAILED checks:\n  " + "\n  ".join(failures))
        return EXIT_CHECK_FAILED
    print("\nall checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regflow",
        description="Relaxed fixed-point flows: simulate, estimate regularity, "
                    "verify rate bounds.",
    )
    parser.add_argument("--version", action="version", version=f"regflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config (path or bundled name)")
    p_run.add_argument("config", help=f"config path or one of {', '.join(BUNDLED)}")
    p_run.add_argument("--out-dir", default=None,
                       help="artifact directory (default: $REGFLOW_OUT_DIR or .)")

    p_ver = sub.add_parser("verify", help="run the verification battery")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--corrupt", action="store_true",
                       help="inject a deliberately expansive operator (negative control)")

    p_rate = sub.add_parser("rate", help="fit decay models to a trajectory CSV")
    p_rate.add_argument("trajectory", help="trajectory CSV file")
    p_rate.add_argument("--model", choices=("exp", "pow", "auto"), default="auto")
    p_rate.add_argument("--metric", choices=("residual", "dist_fix"), default=None,
                        help="default: dist_fix when present, else residual")

    p_reg = sub.add_parser("reg", help="estimate regularity constants for a config")
    p_reg.add_argument("config", help=f"config path or one of {', '.join(BUNDLED)}")
    p_reg.add_argument("--mode", choices=("linear", "hoelder"), default=None)
    p_reg.add_argument("--samples", type=int, default=None)
    p_reg.add_argument("--seed", type=int, default=None)
    p_reg.add_argument("--out-dir", default=None)
    return parser


def _cmd_run(args) -> int:
    scenario = build_scenario(resolve_config_source(args.config))
    return run_scenario(scenario, _out_dir(args.out_dir))


def _cmd_rate(args) -> int:
    traj = Trajectory.from_csv(args.trajectory)
    metric = args.metric
    if metric is None:
        metric = "dist_fix" if np.isfinite(traj.metric("dist_fix")).all() else "residual"
    model = {"exp": "exponential", "pow": "powerlaw", "auto": "auto"}[args.model]
    print(json.dumps(_fit_doc(traj, metric, model), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_reg(args) -> int:
    scenario = build_scenario(resolve_config_source(args.config))
    if scenario.oracle is None:
        raise ConfigError("fix_oracle", "regularity estimation needs a fix_oracle")
    reg = scenario.regularity or {
        "mode": "linear", "n_samples": 1000, "seed": 0,
        "region": Region(np.zeros(scenario.dim), 10.0),
    }
    mode = args.mode or reg["mode"]
    n_samples = (reg["n_samples"] if args.samples is None
                 else sample_count(args.samples, "--samples"))
    seed = reg["seed"] if args.seed is None else check_seed(args.seed, "--seed")
    out_dir = _out_dir(args.out_dir)
    est = estimate_operator_regularity(scenario.operator, scenario.oracle,
                                       reg["region"], n_samples=n_samples,
                                       mode=mode, seed=seed)
    doc = est.to_dict()
    print(json.dumps(doc, indent=2, sort_keys=True))
    _write_json(out_dir / f"{scenario.name}_regularity.json", doc)
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "verify": lambda args: verify_all(seed=check_seed(args.seed, "--seed"),
                                      corrupt=args.corrupt),
    "rate": _cmd_rate,
    "reg": _cmd_reg,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
