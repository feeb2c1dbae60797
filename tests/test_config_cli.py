import copy
import json
import tempfile
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import regflow as rf
import regflow.cli
from regflow.cli import main
from regflow.config import build_scenario, load_config
from regflow.flow import MAX_STEPS, integrate_flow, km_iterate
from regflow.scenarios import BUNDLED, CONTINUOUS, certificate_operators, scenario_config


def minimal_config(**overrides):
    cfg = {
        "schema": 1,
        "name": "mini",
        "dimension": 2,
        "operator": {"kind": "project",
                     "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
        "schedule": {"kind": "constant", "value": 1.0},
        "integrator": {"method": "rk45", "t_end": 1.0, "sample_dt": 0.1},
        "x0": [2.0, 2.0],
    }
    cfg.update(overrides)
    return cfg


def without(key):
    """``minimal_config()`` with the top-level field ``key`` left out."""
    cfg = minimal_config()
    del cfg[key]
    return cfg


class TestConfigValidation:
    def test_minimal_builds(self):
        sc = build_scenario(minimal_config())
        assert sc.dim == 2 and sc.operator.dim == 2

    def test_all_bundled_configs_build(self):
        for name in BUNDLED:
            sc = build_scenario(scenario_config(name))
            assert sc.name == name
            assert sc.operator.dim == sc.dim

    def test_weight_sum_error_names_field_path(self):
        cfg = minimal_config(operator={
            "kind": "combine",
            "children": [
                {"weight": 0.45, "op": {"kind": "identity"}},
                {"weight": 0.45, "op": {"kind": "identity"}},
            ],
        })
        with pytest.raises(rf.ConfigError) as exc:
            build_scenario(cfg)
        assert exc.value.path == "operator.children.weights"

    def test_nested_operator_error_path(self):
        cfg = minimal_config(operator={
            "kind": "compose",
            "children": [
                {"kind": "project", "set": {"kind": "ball", "center": [0.0, 0.0],
                                            "radius": -1.0}},
            ],
        })
        with pytest.raises(rf.ConfigError) as exc:
            build_scenario(cfg)
        assert "operator.children[0]" in exc.value.path

    def test_schema_version_checked(self):
        with pytest.raises(rf.ConfigError):
            build_scenario(minimal_config(schema=2))
        with pytest.raises(rf.ConfigError):
            build_scenario({k: v for k, v in minimal_config().items() if k != "schema"})

    def test_missing_required_field(self):
        cfg = minimal_config()
        del cfg["operator"]
        with pytest.raises(rf.ConfigError) as exc:
            build_scenario(cfg)
        assert "operator" in exc.value.path

    def test_random_x0_requires_seed(self):
        cfg = minimal_config(x0={"random": {"radius": 1.0}})
        with pytest.raises(rf.ConfigError) as exc:
            build_scenario(cfg)
        assert "seed" in exc.value.path
        cfg = minimal_config(x0={"random": {"seed": 3, "radius": 1.0}})
        sc = build_scenario(cfg)
        assert np.linalg.norm(sc.x0) <= 1.0

    @pytest.mark.parametrize("literal", ["1e400", "NaN", "Infinity"])
    def test_non_finite_numbers_rejected(self, literal):
        # json parses all three (1e400 to inf); t_end = inf would never finish
        cfg = json.loads(json.dumps(minimal_config()).replace('"t_end": 1.0',
                                                              f'"t_end": {literal}'))
        with pytest.raises(rf.ConfigError) as exc:
            build_scenario(cfg)
        assert exc.value.path == "integrator.t_end"
        cfg = json.loads(json.dumps(minimal_config()).replace("[2.0, 2.0]",
                                                              f"[2.0, {literal}]"))
        with pytest.raises(rf.ConfigError) as exc:
            build_scenario(cfg)
        assert exc.value.path == "x0"

    def test_dimension_mismatch_in_x0(self):
        with pytest.raises(rf.ConfigError):
            build_scenario(minimal_config(x0=[1.0, 2.0, 3.0]))

    def test_checks_require_oracle(self):
        with pytest.raises(rf.ConfigError):
            build_scenario(minimal_config(checks=["avg_inequality"]))

    def test_rate_bound_requires_regularity(self):
        cfg = minimal_config(
            fix_oracle={"kind": "exact",
                        "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
            checks=["rate_bound"],
        )
        with pytest.raises(rf.ConfigError):
            build_scenario(cfg)

    @pytest.mark.parametrize("schedule", [
        {"kind": "constant", "value": 0.0},
        {"kind": "sinusoid", "offset": 0.5, "amplitude": 0.5, "omega": 1.0},
        {"kind": "piecewise", "times": [0.0, 5.0], "values": [1.0, 0.0]},
    ], ids=["constant", "sinusoid", "piecewise"])
    def test_rate_bound_requires_positive_inf_lambda(self, schedule):
        # the exponential and power-law bounds both need inf lambda > 0
        cfg = scenario_config("two_lines_60deg")
        cfg["schedule"] = schedule
        with pytest.raises(rf.ConfigError, match="rate_bound needs inf lambda > 0") as exc:
            build_scenario(cfg)
        assert exc.value.path == "checks"
        cfg["checks"] = ["avg_inequality", "descent"]
        build_scenario(cfg)

    @pytest.mark.parametrize("block", [{"metric": "dist_fix", "model": "exponential"}, {}])
    def test_dist_fix_rate_fit_requires_oracle(self, block):
        # without an oracle every dist_fix sample is missing, which a fit read as
        # "already converged"; an empty block defaults to dist_fix
        with pytest.raises(rf.ConfigError) as exc:
            build_scenario(minimal_config(rate_fit=block))
        assert exc.value.path == "rate_fit" and "fix_oracle" in str(exc.value)
        build_scenario(minimal_config(rate_fit={"metric": "residual"}))

    def test_unknown_kinds_rejected(self):
        with pytest.raises(rf.ConfigError):
            build_scenario(minimal_config(operator={"kind": "mystery"}))
        with pytest.raises(rf.ConfigError):
            build_scenario(minimal_config(schedule={"kind": "mystery", "value": 1.0}))


class TestCLIRun:
    def test_run_bundled_km_scenario(self, tmp_path):
        code = main(["run", "dr_two_halfspaces_km", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "dr_two_halfspaces_km_trajectory.csv").exists()
        assert (tmp_path / "dr_two_halfspaces_km_ratefit.json").exists()
        report = json.loads((tmp_path / "dr_two_halfspaces_km_report.json").read_text())
        assert report["passed"] is True
        assert report["paper_ref"]
        assert all(c["passed"] for c in report["checks"])

    def test_run_config_file(self, tmp_path):
        cfg = minimal_config(outputs=["trajectory_csv"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", str(path), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "mini_trajectory.csv").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = minimal_config(operator={
            "kind": "combine",
            "children": [{"weight": 0.45, "op": {"kind": "identity"}},
                         {"weight": 0.45, "op": {"kind": "identity"}}],
        })
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_numeric_failure_exits_3(self, tmp_path):
        # identity operator: the fit metric is identically zero
        cfg = minimal_config(operator={"kind": "identity"},
                             rate_fit={"metric": "residual", "model": "auto"},
                             outputs=["ratefit_json"])
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 3

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REGFLOW_OUT_DIR", str(tmp_path / "envout"))
        code = main(["run", "dr_two_halfspaces_km"])
        assert code == 0
        assert (tmp_path / "envout" / "dr_two_halfspaces_km_report.json").exists()

    def test_failing_check_exits_1_and_report_says_so(self, tmp_path):
        # regularity region too small to contain the trajectory: the
        # containment gate in the rate_bound check must fail the run
        cfg = json.loads(json.dumps(scenario_config("two_lines_60deg")))
        cfg["name"] = "two_lines_bad_region"
        cfg["regularity"]["region"]["radius"] = 1.0
        cfg["regularity"]["n_samples"] = 200
        cfg["integrator"]["sample_dt"] = 0.1
        path = tmp_path / "bad_region.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
        report = json.loads(
            (tmp_path / "two_lines_bad_region_report.json").read_text())
        assert report["passed"] is False
        gate = [c for c in report["checks"]
                if c.get("name") == "estimate region contains trajectory"]
        assert gate and gate[0]["passed"] is False

    def test_failing_containment_gate_is_printed(self, tmp_path, capsys):
        # the gate is a check like the others: its failure shows on stdout too
        cfg = json.loads(json.dumps(scenario_config("two_lines_60deg")))
        cfg["name"] = "two_lines_bad_region"
        cfg["regularity"]["region"]["radius"] = 1.0
        cfg["regularity"]["n_samples"] = 200
        cfg["integrator"]["sample_dt"] = 0.1
        path = tmp_path / "bad_region.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 1
        gate = [line for line in capsys.readouterr().out.splitlines()
                if "estimate region contains trajectory" in line]
        assert len(gate) == 1
        assert gate[0].startswith("FAIL  two_lines_bad_region: estimate region contains "
                                  "trajectory  max_distance=")
        assert float(gate[0].rsplit("=", 1)[1]) > 1.0

    @pytest.mark.parametrize("command, cfg, field", [
        ("reg", minimal_config(), "fix_oracle"),
        ("run", [minimal_config()], "$"),
        ("run", minimal_config(checks=["speed"]), "checks"),
        ("run", minimal_config(regularity={"seed": 0, "region": {
            "center": [0.0, 0.0], "radius": 5.0}}), "regularity"),
        ("run", minimal_config(integrator={"method": "rk45", "t_end": 1.0,
                                           "sample_dt": 0.3}), "integrator.sample_dt"),
        ("run", minimal_config(x0="origin"), "x0"),
        ("run", minimal_config(x0={"random": {"seed": 0, "radius": 0}}),
         "x0.random.radius"),
        ("run", minimal_config(rate_fit={"metric": "speed"}), "rate_fit.metric"),
        ("run", minimal_config(operator={"kind": "compose", "children": []}),
         "operator.children"),
        ("run", minimal_config(operator={"kind": "combine", "children": [
            {"weight": 1.5, "op": {"kind": "identity"}},
            {"weight": -0.5, "op": {"kind": "identity"}}]}), "operator.children.weights"),
        ("run", minimal_config(fix_oracle={"kind": "exact", "set": {
            "kind": "affine", "basis": 1.0, "offset": [0.0, 0.0]}}), "fix_oracle.set.basis"),
        ("run", minimal_config(integrator=[]), "integrator"),
        ("run", minimal_config(integrator={"method": "rk45", "t_end": 1.0, "sample_dt": 0.1,
                                           "sample_times": [0.0, 0.5, 1.0]}),
         "integrator.sample_times"),
        # unknown keys, which would otherwise be dropped without a word
        ("run", minimal_config(check=["descent"]), "check"),
        ("run", minimal_config(integrator={"method": "rk45", "t_end": 1.0,
                                           "sample_dtt": 0.1}), "integrator.sample_dtt"),
        ("reg", minimal_config(fix_oracle={"kind": "point", "point": [0.0, 0.0]},
                               regularity={"n_sample": 100, "seed": 0, "region": {
                                   "center": [0.0, 0.0], "radius": 1.0}}),
         "regularity.n_sample"),
        ("run", minimal_config(operator={"kind": "identity", "bogus": 1}), "operator.bogus"),
        ("run", minimal_config(operator={"kind": "combine", "children": [
            {"weight": 1.0, "op": {"kind": "identity"}, "wieght": 1.0}]}),
         "operator.children[0].wieght"),
        ("run", minimal_config(x0={"random": {"seed": 0, "radius": 1.0}, "seed": 0}),
         "x0.seed"),
        # a top-level field is named by its bare key, missing or wrong alike
        ("run", without("name"), "name"),
        ("run", minimal_config(name=""), "name"),
        ("run", without("operator"), "operator"),
        ("run", without("dimension"), "dimension"),
    ], ids=["reg_without_oracle", "not_an_object", "unknown_check",
            "regularity_without_oracle", "uneven_sample_dt", "string_x0", "zero_radius",
            "unknown_metric", "childless_compose", "negative_weight", "scalar_basis",
            "list_integrator", "sample_dt_and_sample_times", "misspelled_checks",
            "misspelled_integrator_key", "misspelled_regularity_key",
            "key_of_a_fieldless_kind", "misspelled_weight", "key_beside_random",
            "missing_name", "blank_name", "missing_operator", "missing_dimension"])
    def test_config_error_exits_2_naming_the_field(self, tmp_path, capsys, command, cfg,
                                                   field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("integrator", [
        {"method": "rk45", "t_end": 1e12, "sample_dt": 1.0},   # 1e12 sample times
        {"method": "euler", "t_end": 1e9, "h": 1e-3},          # 1e12 steps
        {"method": "euler_unit", "t_end": 1e7},
        {"method": "rk45", "t_end": -5.0, "sample_dt": 0.1},   # negative grid size
    ])
    def test_work_beyond_budget_exits_2(self, tmp_path, capsys, integrator):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(minimal_config(integrator=integrator)))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "integrator" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("tol", "1e400"), ("max_iter", "0")])
    @pytest.mark.parametrize("scenario", ["dr_two_halfspaces_km", "two_lines_60deg_km"])
    def test_fix_oracle_field_out_of_range_exits_2(self, tmp_path, capsys, scenario,
                                                   field, value):
        # Dykstra and the all-affine solve alike: the field is rejected, not the sets
        cfg = scenario_config(scenario)
        cfg["fix_oracle"][field] = "VALUE"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"VALUE"', value))  # JSON reads 1e400 as inf
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert f"fix_oracle.{field}" in capsys.readouterr().err

    def test_empty_box_intersection_exits_2_at_once(self, tmp_path, capsys):
        boxes = [{"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                 {"kind": "box", "lower": [0.0, 2.0], "upper": [3.0, 3.0]}]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(minimal_config(
            fix_oracle={"kind": "intersection", "sets": boxes})))
        start = time.perf_counter()
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert "fix_oracle" in err and "empty: on coordinate 1" in err
        assert "Traceback" not in err

    def test_fix_max_iter_beyond_budget_rejected_at_parse_time(self, tmp_path, capsys):
        # ball tangent to a line: Dykstra at tol 1e-300 would cycle until max_iter
        cfg = scenario_config("tangent_ball_line")
        cfg["fix_oracle"] = {"kind": "intersection", "tol": 1e-300, "max_iter": 1e15,
                             "sets": [{"kind": "ball", "center": [0.0, 1.0], "radius": 1.0},
                                      {"kind": "hyperplane", "normal": [0.0, 1.0],
                                       "offset": 0.0}]}
        with pytest.raises(rf.ConfigError) as exc:
            build_scenario(cfg)
        assert exc.value.path == "fix_oracle.max_iter"
        path = tmp_path / "tangent.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "fix_oracle.max_iter" in capsys.readouterr().err

    def test_dimension_beyond_budget_exits_2(self, tmp_path, capsys):
        # a coordinate x0, not a random one: were the dimension unchecked, the x0
        # length check would still exit 2 (naming x0) without allocating 8 GB
        cfg = minimal_config(dimension=1_000_000_000, operator={"kind": "identity"})
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "dimension:" in capsys.readouterr().err

    @pytest.mark.parametrize("random", [5, [1], "x"])
    def test_non_object_random_x0_exits_2(self, tmp_path, capsys, random):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(x0={"random": random})))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "x0.random: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("stride", [1.5, 2.7])
    def test_fractional_sample_stride_exits_2(self, tmp_path, capsys, stride):
        integrator = {"method": "euler", "t_end": 1.0, "h": 0.1, "sample_stride": stride}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(integrator=integrator)))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "integrator.sample_stride:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        ("run", "sub/dir"), ("run", "../escaped"), ("reg", "../escaped"),
        ("run", "a\x00b"), ("run", "\ud800"), pytest.param("run", "n" * 250, id="run-long"),
    ])
    def test_name_that_is_not_a_plain_file_name_writes_nothing(self, tmp_path, capsys,
                                                                command, name):
        # never an absolute name here: a regression would write at the filesystem root
        cfg = minimal_config(name=name, fix_oracle={
            "kind": "exact",
            "set": {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "name: expected a plain file name" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [path]

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = scenario_config("two_lines_60deg")
        cfg["regularity"]["seed"] = -1
        for field, bad in (("x0.random.seed", minimal_config(
                x0={"random": {"seed": -1, "radius": 1.0}})), ("regularity.seed", cfg)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(bad))
            assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
            assert f"{field}: expected a non-negative seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "reg"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_that_is_not_a_directory_exits_2(self, tmp_path, capsys, command,
                                                       below):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        argv = [command, "two_lines_60deg_km", "--out-dir", str(afile / below)]
        assert main(argv + (["--samples", "200"] if command == "reg" else [])) == 2
        assert "as the output directory" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [afile] and afile.read_text() == "keep"

    def test_out_dir_env_that_is_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        monkeypatch.setenv("REGFLOW_OUT_DIR", str(afile / "sub"))
        assert main(["run", "two_lines_60deg_km"]) == 2
        assert "as the output directory" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [afile]

    def test_rate_bound_with_zero_inf_lambda_runs_nothing(self, tmp_path, capsys):
        cfg = scenario_config("two_lines_60deg")
        cfg["schedule"] = {"kind": "constant", "value": 0.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: checks: rate_bound needs inf lambda > 0, "
                                "and the schedule's infimum is 0\n")
        assert not (tmp_path / "out").exists()

    def test_hoelder_rate_bound_branch(self, tmp_path, capsys):
        assert main(["run", "tangent_ball_line", "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "tangent_ball_line_report.json").read_text())
        bound = [c for c in report["checks"]
                 if c.get("bound_name") == "power-law rate under Hoelder regularity"]
        assert len(bound) == 1 and bound[0]["passed"] is True
        assert "power-law rate under Hoelder regularity [distance_bound]" in \
            capsys.readouterr().out

    def test_rank_deficient_hoelder_fit_exits_3(self, tmp_path, capsys):
        # a region centred at 2**63 puts every log residual at about the same
        # value: the log-log fit has rank 1, which is no estimate
        cfg = scenario_config("tangent_ball_line")
        cfg["regularity"]["region"]["center"][0] = 2.0 ** 63
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == \
            "ERROR  tangent_ball_line: log-log fit is rank deficient\n"
        report = json.loads((tmp_path / "out" / "tangent_ball_line_report.json").read_text())
        assert report["partial"] is True

    def test_hoelder_bound_overflow_exits_3(self, tmp_path, capsys):
        # the estimate gives gamma a hair below 1, where the bound constant overflows
        half = {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 0.5}
        cfg = minimal_config(
            operator={"kind": "relax", "lam": 0.5,
                      "child": {"kind": "project", "set": half}},
            fix_oracle={"kind": "exact", "set": half},
            schedule={"kind": "constant", "value": 0.5},
            integrator={"method": "rk45", "t_end": 120.0, "sample_dt": 0.5},
            x0=[1.0, 1.5], checks=["rate_bound"], outputs=["report_json"],
            regularity={"mode": "hoelder", "seed": 0,
                        "region": {"center": [0.0, 0.0], "radius": 2.0}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        assert "M0 overflows at kappa=" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "mini_report.json").read_text())
        assert report["partial"] is True and "gamma=0.99999" in report["error"]

    @pytest.mark.parametrize("name", ["tangent_ball_line", "two_lines_60deg"])
    def test_rate_bound_limit_point_without_limit_estimate(self, tmp_path, capsys, name):
        # stopped at t = 2 the final residual is above 1e-9, so there is no limit
        # estimate: a point oracle's point stands in, an intersection has none
        cfg = scenario_config(name)
        cfg["integrator"]["t_end"] = 2.0
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main(["run", str(path), "--out-dir", str(out)])
        written = sorted(p.name.removeprefix(f"{name}_") for p in out.iterdir())
        if name == "tangent_ball_line":
            assert code == 0
            assert written == ["ratefit.json", "regularity.json", "report.json",
                               "trajectory.csv"]
            assert "Hoelder regularity [trajectory_bound]" in capsys.readouterr().out
        else:
            assert code == 2
            assert written == ["ratefit.json", "regularity.json", "trajectory.csv"]
            assert "trajectory has no limit_estimate" in capsys.readouterr().err

    @pytest.mark.parametrize("normal", [[1e200, 0.0], [1e-200, 0.0], [1e155, 1e155]])
    def test_normal_outside_float_range_exits_2(self, tmp_path, capsys, normal):
        # with ||a||^2 = inf, x0 = [5, 1] passed as a fixed point outside the set
        half = {"kind": "halfspace", "normal": normal, "offset": 0.0}
        cfg = minimal_config(operator={"kind": "project", "set": half},
                             fix_oracle={"kind": "exact", "set": half},
                             integrator={"method": "euler_unit", "t_end": 20.0},
                             x0=[5.0, 1.0], checks=["avg_inequality"],
                             outputs=["report_json"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "operator.set: HalfSpace normal" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [path]

    def test_rk45_right_hand_side_rejects_non_finite_state(self, tmp_path, capsys):
        # the first stages overflow to inf/nan; each stage's T(x) validates x
        half = {"kind": "halfspace", "normal": [1e150, 0.0], "offset": 0.0}
        cfg = minimal_config(operator={"kind": "project", "set": half},
                             x0=[1e200, 1e200])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and "x must be finite" in err and "Traceback" not in err
        assert elapsed < 10.0

    def test_rk45_field_overflow_exits_2_without_warning(self, tmp_path, capsys):
        # T(x) - x = -2e308 overflows in the field; the next stage's T(x)
        # rejects the state, and no numpy warning reaches stderr first
        half = {"kind": "halfspace", "normal": [1.0], "offset": 0.0}
        cfg = minimal_config(dimension=1, operator={"kind": "reflect", "set": half},
                             integrator={"method": "rk45", "t_end": 1.0}, x0=[1e308])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "x must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("integrator", [
        {"method": "euler_unit", "t_end": 50.0},
        {"method": "euler", "t_end": 5.0, "h": 0.5},
        {"method": "rk4", "t_end": 5.0, "h": 0.5},
    ], ids=["euler_unit", "euler", "rk4"])
    def test_fixed_step_overflow_exits_2_without_warning(self, tmp_path, capsys,
                                                         integrator):
        # the reflection through the far half-space overflows in the first step;
        # the next T(x) rejects the state, and no numpy warning reaches stderr first
        cfg = scenario_config("dr_two_halfspaces_km")
        cfg["operator"]["set_l"]["offset"] = -1e308
        cfg["integrator"] = integrator
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: x must be finite (no NaN/Inf)\n"

    def test_rk45_far_plane_fails_the_initial_step(self, tmp_path, capsys):
        # x0 is finite but T(x0) - x0 ~ 1e150 overflows the step-size norms: h0 = 0
        plane = {"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 1e150}
        cfg = minimal_config(operator={"kind": "project", "set": plane},
                             integrator={"method": "rk45", "t_end": 1.0}, x0=[1.0, 1.0])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "initial step size is 0" in err and "Traceback" not in err

    def test_byte_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "dr_two_halfspaces_km", "--out-dir", str(a)]) == 0
        assert main(["run", "dr_two_halfspaces_km", "--out-dir", str(b)]) == 0
        for fname in ("dr_two_halfspaces_km_trajectory.csv",
                      "dr_two_halfspaces_km_ratefit.json",
                      "dr_two_halfspaces_km_report.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    @pytest.mark.parametrize("name", CONTINUOUS)
    def test_run_measures_each_state_once(self, name, monkeypatch, tmp_path, capsys):
        # the scenario oracle answers each trajectory state inside _finalize, one
        # row a query; outside it only the estimator's sample batch and x*: descent
        # reads the trajectory's dist_fix
        queries, states, stack = [], [], []

        def inside(label, fn):
            def wrapped(*args, **kwargs):
                stack.append(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapped

        def build(cfg):
            sc = build_scenario(cfg)
            query = sc.oracle.distance_to

            def counted(x):
                queries.append((stack[-1] if stack else None, np.atleast_2d(x).shape[0]))
                return query(x)

            sc.oracle.distance_to = counted
            return sc

        def integrate(*args, **kwargs):
            traj = integrate_flow(*args, **kwargs)
            states.append(traj.times().size)
            return traj

        monkeypatch.setattr(regflow.flow, "_finalize",
                            inside("finalize", regflow.flow._finalize))
        monkeypatch.setattr(regflow.cli, "estimate_operator_regularity",
                            inside("estimate", regflow.cli.estimate_operator_regularity))
        monkeypatch.setattr(regflow.cli, "build_scenario", build)
        monkeypatch.setattr(regflow.cli, "integrate_flow", integrate)
        assert main(["run", name, "--out-dir", str(tmp_path)]) == 0
        measured = [q for q in queries if q[0] == "finalize"]
        assert measured == [("finalize", 1)] * states[0]
        assert [q for q in queries if q[0] is None] == [(None, 1)]
        assert all(label == "estimate" and rows > 1 for label, rows in queries
                   if label not in ("finalize", None))


class TestCLIRate:
    def test_rate_on_exported_csv(self, tmp_path, capsys):
        assert main(["run", "two_lines_60deg_km", "--out-dir", str(tmp_path)]) == 0
        csv_path = tmp_path / "two_lines_60deg_km_trajectory.csv"
        capsys.readouterr()
        assert main(["rate", str(csv_path), "--model", "auto"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["chosen"] == "exponential"
        assert doc["exponential"]["rate"] == pytest.approx(np.log(4.0), rel=1e-6)

    def test_rate_single_model(self, tmp_path, capsys):
        assert main(["run", "two_lines_60deg_km", "--out-dir", str(tmp_path)]) == 0
        csv_path = tmp_path / "two_lines_60deg_km_trajectory.csv"
        capsys.readouterr()
        assert main(["rate", str(csv_path), "--model", "exp", "--metric", "residual"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["chosen"] == "exponential"
        assert doc["exponential"]["rate"] > 0

    def test_rate_constant_outside_float_range_exits_3(self, tmp_path, capsys):
        rows = "".join(f"{i * 1e300!r},0,{0.5 ** i!r},{0.5 ** i!r},0\n" for i in range(20))
        path = tmp_path / "traj.csv"
        path.write_text(self.HEADER + rows)
        assert main(["rate", str(path), "--model", "pow"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "powerlaw fit constant M" in captured.err

    @pytest.mark.parametrize("model", ["exp", "auto"])
    def test_rate_squared_times_outside_float_range_exits_3(self, tmp_path, capsys, model):
        rows = "".join(f"{i * 1e300!r},0,{0.5 ** i!r},{0.5 ** i!r},0\n" for i in range(20))
        path = tmp_path / "traj.csv"
        path.write_text(self.HEADER + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow and rank warnings too
            assert main(["rate", str(path), "--model", model]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exponential fit in window (3e+300, 1.9e+301): the squares" in captured.err

    @pytest.mark.parametrize("model", ["exp", "auto"])
    def test_rate_squared_times_underflowing_to_zero_exits_3(self, tmp_path, capfd, model):
        # unguarded, polyfit scales its design column by 0 and LAPACK prints and fails
        path = tmp_path / "traj.csv"
        path.write_text(TINY_TIMES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rate", str(path), "--model", model]) == 3
        captured = capfd.readouterr()  # the file descriptors: LAPACK writes there
        assert captured.out == ""
        assert captured.err == ("numeric error: exponential fit in window (3e-300, "
                                "1.9e-299): the squares of the fit variable leave the "
                                "float range\n")

    def test_rate_power_law_with_no_sample_at_its_start_exits_3(self, tmp_path, capsys):
        # every time lies below t = 1: the error names the times and the rule, not
        # an empty window
        path = tmp_path / "traj.csv"
        path.write_text(TINY_TIMES)
        assert main(["rate", str(path), "--model", "pow"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numeric error: no sample of 'dist_fix' in the data's times "
                                "(0.0, 1.9e-299) is above the floor 1e-13 at t >= 1, where "
                                "power-law fits start; need >= 10\n")

    @pytest.mark.parametrize("model", ["exp", "auto"])
    def test_rate_dist_fix_of_a_run_without_oracle_exits_2(self, tmp_path, capsys, model):
        rows = "".join(f"{i}.0,{0.5 ** i!r},{0.5 ** i!r},,0\n" for i in range(20))
        path = tmp_path / "traj.csv"
        path.write_text(self.HEADER + rows)
        assert main(["rate", str(path), "--model", model, "--metric", "dist_fix"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trajectory lacks dist_fix samples; rerun with an oracle" in captured.err

    def test_rate_missing_file_is_usage_error(self, tmp_path):
        assert main(["rate", str(tmp_path / "none.csv")]) == 2

    HEADER = "t,x_0,residual,dist_fix,speed\n"

    def _rate_on(self, tmp_path, capsys, text):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        code = main(["rate", str(path)])
        return code, capsys.readouterr().err

    def test_rate_empty_file_is_usage_error(self, tmp_path, capsys):
        code, err = self._rate_on(tmp_path, capsys, "")
        assert code == 2
        assert "traj.csv, line 1" in err

    def test_rate_non_numeric_cell_is_usage_error(self, tmp_path, capsys):
        code, err = self._rate_on(tmp_path, capsys,
                                  self.HEADER + "0,1.0,0.5,0.5,0.5\n1,abc,0.2,0.2,0.2\n")
        assert code == 2
        assert "traj.csv, line 3" in err and "abc" in err

    def test_rate_short_row_is_usage_error(self, tmp_path, capsys):
        code, err = self._rate_on(tmp_path, capsys, self.HEADER + "0,1.0,0.5\n")
        assert code == 2
        assert "traj.csv, line 2" in err

    def test_rate_header_only_is_usage_error(self, tmp_path, capsys):
        code, err = self._rate_on(tmp_path, capsys, self.HEADER)
        assert code == 2
        assert "traj.csv, line 1" in err

    def test_rate_nan_cell_is_usage_error(self, tmp_path, capsys):
        code, err = self._rate_on(tmp_path, capsys, self.HEADER + "nan,nan,nan,nan,nan\n")
        assert code == 2
        assert "traj.csv, line 2" in err and "nan" in err

    def test_rate_inf_cell_is_usage_error(self, tmp_path, capsys):
        code, err = self._rate_on(tmp_path, capsys,
                                  self.HEADER + "0,1.0,0.5,,0.5\n1,inf,0.2,,0.2\n")
        assert code == 2
        assert "traj.csv, line 3" in err and "inf" in err

    @pytest.mark.parametrize("extra", [",junk", ","])
    def test_rate_row_longer_than_header_is_usage_error(self, tmp_path, capsys, extra):
        rows = [f"{k},1.0,{0.5 ** k!r},{0.5 ** k!r},0.1" for k in range(20)]
        rows[3] += extra
        code, err = self._rate_on(tmp_path, capsys, self.HEADER + "\n".join(rows) + "\n")
        assert code == 2
        assert "traj.csv, line 5: expected 5 fields" in err and "got 6" in err

    def test_rate_time_going_back_is_usage_error(self, tmp_path, capsys):
        times = [*range(18), 19, 18]
        rows = "".join(f"{t},1.0,{0.5 ** t!r},{0.5 ** t!r},0.1\n" for t in times)
        code, err = self._rate_on(tmp_path, capsys, self.HEADER + rows)
        assert code == 2
        assert "traj.csv, line 21: time 18.0 is below the time before it, 19.0" in err

    def test_rate_single_time_is_numeric_error(self, tmp_path, capsys):
        rows = "".join(f"5,1.0,{0.5 ** k!r},{0.5 ** k!r},0.1\n" for k in range(12))
        code, err = self._rate_on(tmp_path, capsys, self.HEADER + rows)
        assert code == 3
        assert "two distinct times" in err

    _CELL = st.one_of(
        st.floats(-1e6, 1e6).map(repr),
        st.floats(1e-12, 10.0).map(repr),
        st.integers(-100, 100).map(str),
        st.sampled_from(["", "nan", "inf", "-inf", "1e400", "abc", " ", '"']),
    )

    @settings(max_examples=40, deadline=500,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.one_of(st.lists(_CELL, min_size=5, max_size=5),
                                   st.lists(_CELL, max_size=7)), max_size=20))
    def test_rate_fuzzed_csv_keeps_exit_contract(self, tmp_path, rows):
        path = tmp_path / "fuzz.csv"
        path.write_text(self.HEADER + "".join(",".join(r) + "\n" for r in rows))
        assert main(["rate", str(path)]) in (0, 1, 2, 3)


class TestCLIReg:
    def test_reg_bundled(self, tmp_path, capsys):
        code = main(["reg", "two_lines_60deg", "--samples", "1000", "--seed", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["mode"] == "linear"
        assert 1.3 < doc["kappa"] < 1.6
        assert (tmp_path / "two_lines_60deg_regularity.json").exists()

    def test_reg_mode_override(self, tmp_path, capsys):
        code = main(["reg", "tangent_ball_line", "--mode", "hoelder",
                     "--samples", "2000", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["mode"] == "hoelder"
        assert 0.3 < doc["gamma"] < 0.7

    def test_zero_samples_override_exits_2(self, tmp_path, capsys):
        assert main(["reg", "two_lines_60deg", "--samples", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_samples_beyond_budget_exit_2(self, tmp_path, capsys):
        assert main(["reg", "two_lines_60deg", "--samples", "1000000000",
                     "--out-dir", str(tmp_path)]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_bad_out_dir_exits_2_before_printing(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        assert main(["reg", "two_lines_60deg_km", "--samples", "200",
                     "--out-dir", str(afile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "as the output directory" in captured.err
        assert list(tmp_path.rglob("*")) == [afile]

    @pytest.mark.parametrize("radius, bad", [(1e159, 39), (1e200, 48)])
    def test_non_finite_residual_exits_3_without_warning(self, tmp_path, capfd, radius, bad):
        # <a, x> overflows on part of the region; at 1e200 no residual clears the
        # degeneracy floor, which is not why the estimate fails
        half = {"kind": "halfspace", "normal": [1e150, 0.0], "offset": 0.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(
            operator={"kind": "project", "set": half}, fix_oracle={"kind": "exact", "set": half},
            regularity={"n_samples": 100, "seed": 0,
                        "region": {"center": [0.0, 0.0], "radius": radius}})))
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["reg", str(path), "--out-dir", str(tmp_path)]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == (f"numeric error: {bad} of 100 samples have a non-finite "
                                "residual\n")

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert main(["reg", "two_lines_60deg", "--seed", "-1",
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "--seed: expected a non-negative seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestVerifyCLI:
    def test_corrupt_negative_control(self, capsys):
        code = main(["verify", "--corrupt"])
        assert code == 1
        out = capsys.readouterr().out
        assert "corrupted_expansive" in out
        assert "nonexpansiveness" in out

    def test_negative_seed_flag_exits_2(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert "--seed: expected a non-negative seed" in capsys.readouterr().err

    def test_certificate_corpus_builds(self):
        ops = certificate_operators()
        assert len(ops) >= 10
        for op, oracle in ops:
            assert op.dim == 2

    def test_certificate_corpus_is_the_continuous_scenarios(self):
        from regflow.scenarios import load_scenario

        continuous = {name: load_scenario(name) for name in CONTINUOUS}
        ops = certificate_operators(continuous)
        order = ["two_lines_60deg", "tangent_ball_line", "dr_two_halfspaces",
                 "box_qp_forward_backward", "cyclic_three_boxes"]
        assert len(ops) == 8 + len(order)
        for (op, oracle), name in zip(ops[8:], order):
            sc = continuous[name]
            assert op is sc.operator
            assert oracle is (None if name == "box_qp_forward_backward" else sc.oracle)
        sets = [s for name in ("two_lines_60deg", "dr_two_halfspaces", "cyclic_three_boxes")
                for s in continuous[name].oracle.sets]
        assert all(isinstance(continuous[name].oracle, rf.Intersection)
                   for name in ("two_lines_60deg", "dr_two_halfspaces", "cyclic_three_boxes"))
        projected = [oracle.set for _, oracle in ops[:8]]
        ball = projected.pop(2)
        assert all(p is s for p, s in zip(projected, sets, strict=True))
        assert isinstance(ball, rf.Ball)
        assert (ball.center.tolist(), ball.radius) == ([0.0, 1.0], 1.0)
        assert all(op.label == f"P[{oracle.set.describe()}]" for op, oracle in ops[:8])
        default = certificate_operators()
        assert [op.label for op, _ in default] == [op.label for op, _ in ops]
        assert [type(o) for _, o in default] == [type(o) for _, o in ops]

    def test_default_seed_passes_and_verdicts_seed_invariant(self, capsys):
        verdict_lines = []
        for seed in range(5):
            code = main(["verify", "--seed", str(seed)])
            assert code == 0
            out = capsys.readouterr().out
            verdicts = [line.split("  ")[0] + "  " + line.split("  ")[1]
                        for line in out.splitlines()
                        if line.startswith(("PASS", "FAIL"))]
            verdict_lines.append(verdicts)
        for other in verdict_lines[1:]:
            assert other == verdict_lines[0]

    def test_trajectory_checks_make_no_per_sample_oracle_query(self, monkeypatch, capsys):
        # the checks read states and residuals; check_descent queries Fix T itself
        oracles = []

        def spy(op, x0, schedule, config, oracle=None):
            oracles.append(oracle)
            return integrate_flow(op, x0, schedule, config, oracle)

        monkeypatch.setattr(regflow.cli, "integrate_flow", spy)
        assert main(["verify"]) == 0
        assert oracles and all(o is None for o in oracles)

    def test_one_continuous_trajectory_alive_at_a_time(self, monkeypatch, capsys):
        # each integration starts only after every earlier continuous trajectory died
        earlier, alive_at_call = [], []

        def spy(*args, **kwargs):
            alive_at_call.append(sum(ref() is not None for ref in earlier))
            traj = integrate_flow(*args, **kwargs)
            if traj.mode == "continuous":
                earlier.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(regflow.cli, "integrate_flow", spy)
        assert main(["verify"]) == 0
        assert len(earlier) == len(CONTINUOUS)
        assert alive_at_call == [0] * len(alive_at_call)

    def test_unit_step_agreement_compares_whole_trajectories(self, monkeypatch, capsys):
        def km_short(*args, **kwargs):
            traj = km_iterate(*args, **kwargs)
            columns = (traj.times(), traj.states(), traj.metric("residual"),
                       traj.metric("dist_fix"), traj.speeds())
            return rf.Trajectory(*(column[:-1] for column in columns), traj.mode,
                                 traj.schedule, traj.limit_estimate, traj.info)

        monkeypatch.setattr(regflow.cli, "km_iterate", km_short)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  unit-step Euler / relaxed iteration bitwise agreement" in out

    def test_unit_step_agreement_checks_the_relaxed_step_itself(self, monkeypatch,
                                                                capsys):
        # a relaxed step one ulp off moves both unit-step runs alike; the reference
        # iteration written in verify still tells them apart
        step = regflow.flow._relaxed_step
        monkeypatch.setattr(regflow.flow, "_relaxed_step",
                            lambda x, lam, tx: np.nextafter(step(x, lam, tx), np.inf))
        assert main(["verify"]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("PASS", "FAIL")) and "unit-step Euler" in line]
        assert len(lines) == 5 and all(line.startswith("FAIL  ") for line in lines)

    def test_run_and_verify_print_the_same_trajectory_checks(self, tmp_path, capsys):
        # run prints "PASS  <scenario>: <check>  worst_slack=..." and verify
        # "PASS  <check> [<scenario>]  worst_slack=..." for the same computation
        assert main(["verify", "--seed", "0"]) == 0
        verify_lines = capsys.readouterr().out.splitlines()
        for name in CONTINUOUS:
            assert main(["run", name, "--out-dir", str(tmp_path)]) == 0
            run_lines = [line for line in capsys.readouterr().out.splitlines()
                         if "  worst_slack=" in line]
            assert len(run_lines) == 2
            as_verify = [line.replace(f"  {name}: ", "  ", 1).replace(
                "  worst_slack=", f" [{name}]  worst_slack=") for line in run_lines]
            assert as_verify == [line for line in verify_lines
                                 if f" [{name}]  worst_slack=" in line]


def test_every_bundled_scenario_names_its_claim():
    for name in BUNDLED:
        assert scenario_config(name)["paper_ref"].strip()


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(rf.ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# config fuzzing: valid scenarios built kind by kind, then one field mutated
# ---------------------------------------------------------------------------

OP = object()  # marks a nested operator in an example below


def _template(value, op):
    """Strategy for a JSON template whose OP markers draw from ``op``."""
    if value is OP:
        return op
    if isinstance(value, st.SearchStrategy):
        return value
    if isinstance(value, dict):
        return st.fixed_dictionaries({k: _template(v, op) for k, v in value.items()})
    if isinstance(value, list):
        return st.tuples(*(_template(v, op) for v in value)).map(list)
    return st.just(value)


def _nodes(examples, op=None):
    """Strategy for a node of any kind in ``examples`` (kind -> field -> value)."""
    return st.one_of([_template({"kind": kind, **fields}, op)
                      for kind, fields in examples.items()])


# A valid dimension-2 value for every field of every kind in config's tables.
# Every set contains the origin, so every intersection is nonempty.
SET_EXAMPLES = {
    "halfspace": {"normal": [0.0, 1.0], "offset": 0.5},
    "hyperplane": {"normal": [1.0, 1.0], "offset": 0.0},
    "box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "ball": {"center": [0.0, 0.0], "radius": 1.0},
    "affine": {"basis": [[1.0, -1.0]], "offset": [0.0, 0.0]},
}
SETS = _nodes(SET_EXAMPLES)
FUNCTION_EXAMPLES = {
    "indicator": {"set": SETS},
    "l1": {"weight": 0.5},
    "quadratic": {"Q": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0]},
}
OPERATOR_EXAMPLES = {  # identity last: it makes the regularity estimate degenerate
    "project": {"set": SETS},
    "reflect": {"set": SETS},
    "douglas_rachford": {"set_l": SETS, "set_j": SETS},
    "forward_backward": {"g": _nodes(FUNCTION_EXAMPLES), "Q": [[2.0, 0.0], [0.0, 1.0]],
                         "c": [1.0, 0.0], "lipschitz": 2.0, "step": 0.5},
    "compose": {"children": [OP, OP]},
    "combine": {"children": [{"weight": 0.25, "op": OP}, {"weight": 0.75, "op": OP}]},
    "relax": {"child": OP, "lam": 0.5},
    "identity": {},
}
ORACLE_EXAMPLES = {
    "exact": {"set": SETS},
    "point": {"point": [0.0, 0.0]},
    "intersection": {"sets": [SETS, SETS], "tol": 1e-9, "max_iter": 1000},
}
SCHEDULE_EXAMPLES = {
    "constant": {"value": 1.0},
    "piecewise": {"times": [0.0, 0.5], "values": [1.0, 0.5]},
    "sinusoid": {"offset": 0.5, "amplitude": 0.25, "omega": 2.0},
}
NESTING = ("compose", "combine", "relax")
OPERATORS = st.recursive(
    _nodes({k: f for k, f in OPERATOR_EXAMPLES.items() if k not in NESTING}),
    lambda ops: _nodes({k: OPERATOR_EXAMPLES[k] for k in NESTING}, ops),
    max_leaves=3)
# samples 0.1 apart, enough for the derivative checks and the rate fit's window
INTEGRATORS = [
    {"method": "rk45", "t_end": 3.0, "sample_dt": 0.1, "rel_tol": 1e-6, "abs_tol": 1e-9},
    {"method": "rk45", "t_end": 2.0, "sample_times": [k / 10 for k in range(21)]},
    {"method": "rk4", "t_end": 2.0, "h": 0.05, "sample_stride": 2},
    {"method": "euler", "t_end": 2.0, "h": 0.1},
    {"method": "euler_unit", "t_end": 30.0},
]
# a separator only in relative names: at a commit without the name rule, an
# absolute one would write at the filesystem root; 8 characters climb at
# most 3 levels, and the out dir sits 4 below the example's own directory
TEXT = st.text(max_size=8).filter(lambda s: not s.startswith(("/", "\\")))
NAMES = st.sampled_from(["fuzz"] * 4 + ["sub/dir", "../escaped", "a\\b", "n" * 250])
REGULARITY = {"mode": st.sampled_from(["linear", "hoelder"]), "n_samples": 100, "seed": 0,
              "region": {"center": [0.0, 0.0], "radius": 2.0}}
RATE_FIT = {"metric": st.sampled_from(["residual", "dist_fix", "dist_to_limit"]),
            "model": st.sampled_from(["auto", "exponential", "powerlaw"])}
RANDOM_X0 = {"seed": 0, "radius": 1.0}
SCENARIOS = st.fixed_dictionaries({
    "schema": st.just(1),
    "name": NAMES,
    "dimension": st.just(2),
    "operator": OPERATORS,
    "schedule": _nodes(SCHEDULE_EXAMPLES),
    "integrator": st.sampled_from(INTEGRATORS),
    "x0": st.sampled_from([[1.0, 0.5], {"random": RANDOM_X0}]),
    "fix_oracle": _nodes(ORACLE_EXAMPLES),
    "regularity": _template(REGULARITY, None),
    "rate_fit": _template(RATE_FIT, None),
    "checks": st.just(["avg_inequality", "descent", "rate_bound"]),
    "outputs": st.just(["trajectory_csv", "ratefit_json", "regularity_json", "report_json"]),
    "paper_ref": st.just("fuzz"),
})
KIND_NAMES = sorted({kind for examples in (SET_EXAMPLES, FUNCTION_EXAMPLES, OPERATOR_EXAMPLES,
                                           ORACLE_EXAMPLES, SCHEDULE_EXAMPLES)
                     for kind in examples})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1000) | st.floats(-10.0, 10.0)
    | st.sampled_from([1.5, 1e-300, 1e300, -1e300, float("inf"), float("nan"), 10**30,
                       MAX_STEPS + 1])
    | TEXT | st.sampled_from(KIND_NAMES),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(TEXT, kids, max_size=3),
    max_leaves=6)
DELETE = object()


def field_paths(node, prefix=()):
    """Every key and list index of a JSON tree, as a tuple path."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def test_fuzz_examples_cover_every_kind_and_field():
    import regflow.config as config

    for table, examples in ((config._SETS, SET_EXAMPLES), (config._FUNCTIONS, FUNCTION_EXAMPLES),
                            (config._OPERATORS, OPERATOR_EXAMPLES),
                            (config._ORACLES, ORACLE_EXAMPLES),
                            (config._SCHEDULES, SCHEDULE_EXAMPLES)):
        assert examples.keys() == table.keys()
        for kind, entry in table.items():
            fields = entry[1] if isinstance(entry, tuple) else ()
            assert list(examples[kind]) == [field[0] for field in fields]
    for block, fields in ((REGULARITY, config._REGULARITY), (REGULARITY["region"], config._REGION),
                          (RATE_FIT, config._RATE_FIT), (RANDOM_X0, config._RANDOM_X0)):
        assert list(block) == [field[0] for field in fields]


@settings(max_examples=300, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cfg=SCENARIOS, data=st.data())
def _run_mutated(root, cfg, data):
    cfg = copy.deepcopy(cfg)  # the examples are shared between draws
    path = data.draw(st.sampled_from(list(field_paths(cfg))), label="path")
    value = data.draw(st.just(DELETE) | JSON_VALUES, label="value")
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    insertable = value is not DELETE and isinstance(parent, dict)
    if insertable and data.draw(st.booleans(), label="insert"):
        path = path[:-1] + (data.draw(TEXT, label="key"),)  # a key beside the drawn one
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        cfg_path, out = tmp / "cfg.json", tmp / "a" / "b" / "c" / "out"
        cfg_path.write_text(json.dumps(cfg))
        for command in (["run"], ["reg", "--samples", "100"]):
            assert main([*command, str(cfg_path), "--out-dir", str(out)]) in (0, 1, 2, 3)
            assert [p for p in root.rglob("*") if p.is_file()
                    and p != cfg_path and out not in p.parents] == []
        for csv_path in out.glob("*_trajectory.csv"):
            assert main(["rate", str(csv_path)]) in (0, 2, 3)


def test_mutated_config_keeps_exit_contract(tmp_path):
    _run_mutated(tmp_path)


# times and metric values at the edges of the float range
HOSTILE = [0.0, 5e-324, 1e-300, 1e300, 1.7e308]
HOSTILE_VALUES = st.sampled_from(HOSTILE + [-1.0, 1.0]) | st.floats(-1e3, 1e3)


@st.composite
def hostile_csvs(draw):
    """A trajectory CSV of up to 25 rows: times on a grid at a hostile scale or
    drawn (sorted, so repeats stand side by side), and residual and dist_fix
    halving from a hostile scale or drawn freely, dist_fix possibly blank."""
    n = draw(st.integers(0, 25))
    if draw(st.booleans()):
        step = draw(st.sampled_from(HOSTILE[1:] + [1.0]))
        times = [i * step for i in range(n)]
    else:
        times = sorted(draw(st.lists(st.sampled_from(HOSTILE) | st.floats(0.0, 50.0),
                                     min_size=n, max_size=n)))

    def series():
        if draw(st.booleans()):
            scale = draw(st.sampled_from(HOSTILE + [1.0]))
            return [repr(scale * 0.5 ** i) for i in range(n)]
        return [repr(v) for v in draw(st.lists(HOSTILE_VALUES, min_size=n, max_size=n))]

    residual = series()
    dist = [""] * n if draw(st.booleans()) else series()
    return "t,x_0,residual,dist_fix,speed\n" + "".join(
        f"{t!r},0,{r},{d},0\n" for t, r, d in zip(times, residual, dist))


TINY_TIMES = "t,x_0,residual,dist_fix,speed\n" + "".join(
    f"{i * 1e-300!r},0,{0.5 ** i!r},{0.5 ** i!r},0\n" for i in range(20))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=hostile_csvs(), model=st.sampled_from(["exp", "pow", "auto"]),
       metric=st.sampled_from([None, "residual", "dist_fix"]))
@example(text=TINY_TIMES, model="exp", metric=None)  # squared times underflowed to 0
def test_rate_on_hostile_csv_keeps_exit_contract(tmp_path, capfd, text, model, metric):
    path = tmp_path / "traj.csv"
    path.write_text(text)
    argv = ["rate", str(path), "--model", model] + (["--metric", metric] if metric else [])
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any numpy warning fails the example
        code = main(argv)
    err = capfd.readouterr().err  # the file descriptors: LAPACK prints there
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(("numeric error: ", "config error: "))
        assert err.count("\n") == 1 and err.endswith("\n")


def test_one_parser_per_process_keeps_no_state(monkeypatch, capsys):
    assert regflow.cli._build_parser() is regflow.cli._build_parser()
    seen = []
    for command in ("run", "verify", "reg"):
        monkeypatch.setitem(regflow.cli._COMMANDS, command,
                            lambda args: seen.append(vars(args)) or 0)
    assert main(["reg", "two_lines_60deg", "--mode", "hoelder", "--samples", "50",
                 "--seed", "3", "--out-dir", "a"]) == 0
    assert main(["verify", "--corrupt", "--seed", "2"]) == 0
    assert main(["run", "x.json"]) == 0
    assert main(["reg", "y.json"]) == 0
    assert main(["verify"]) == 0
    assert seen == [
        {"command": "reg", "config": "two_lines_60deg", "mode": "hoelder", "samples": 50,
         "seed": 3, "out_dir": "a"},
        {"command": "verify", "seed": 2, "corrupt": True},
        {"command": "run", "config": "x.json", "out_dir": None},
        {"command": "reg", "config": "y.json", "mode": None, "samples": None, "seed": None,
         "out_dir": None},
        {"command": "verify", "seed": 0, "corrupt": False},
    ]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"regflow {rf.__version__}\n"
