"""The span counters repeat exactly, per-layer metrics match BENCHMARK.json,
and span self times nest.

Runs a small slice of the workloads (four KM scenarios, two estimator calls
with Dykstra and affine oracles) under the tracer twice.
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402

# summary keys that count work; they repeat exactly for a fixed seed
COUNT_KEYS = ("calls", "outer", "errors", "nfev", "samples", "excluded", "bytes")

CALLS = (
    ["run", "two_lines_60deg_km"],
    ["run", "tangent_ball_line_km"],
    ["run", "dr_two_halfspaces_km"],
    ["run", "cyclic_three_boxes_km"],
    ["reg", "cyclic_three_boxes", "--samples", "300", "--seed", "3"],
    ["reg", "two_lines_60deg", "--samples", "300", "--seed", "3", "--mode", "hoelder"],
)


def _traced(out_dir: Path) -> Tracer:
    from regflow import cli

    tracer = Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(CALLS):
            cli.main(argv + ["--out-dir", str(out_dir / str(i))])
    finally:
        tracer.uninstall()
    return tracer


def _counts(summary: dict) -> dict:
    return {(name, key): v for name, entry in summary.items()
            for key, v in entry.items() if key in COUNT_KEYS}


def test_counts_repeat_exactly(tmp_path, capsys):
    import regflow.cli
    import regflow.validation

    original = regflow.validation.as_point
    first = _traced(tmp_path / "a")
    second = _traced(tmp_path / "b")
    a = first.summary(0, len(first.name_id))
    b = second.summary(0, len(second.name_id))
    assert _counts(a) == _counts(b)
    for name in ("validation.as_point", "operators.T", "sets.project", "fixset.dykstra",
                 "fixset.affine", "fixset.point", "flow.integrate", "flow.finalize",
                 "regularity.estimate", "cli.artifacts", "cli.main"):
        assert a[name]["calls"] > 0, name
    assert a["regularity.estimate"]["samples"] == 600
    assert a["cli.main"]["calls"] == len(CALLS)
    assert first.descendants("fixset.dykstra", ("sets.project",), 0, len(first.name_id)) > 0
    # uninstall restores every original
    assert regflow.validation.as_point is original
    assert regflow.cli.estimate_operator_regularity.__module__ == "regflow.regularity"
    assert not hasattr(regflow.cli.main, "__wrapped__")


def test_layer_metrics_match_benchmark_json(tmp_path, capsys):
    import run

    tracer = _traced(tmp_path)
    walls = {False: [1.0], True: [1.5]}
    metrics = run._layer_metrics(tracer, walls, identical=0)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in metrics.items()}
    assert metrics["flow.finalize.oracle_queries"]["value"] == metrics["flow.samples"]["value"]


def test_self_time_within_total(tmp_path, capsys):
    tracer = _traced(tmp_path)
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    inside = a["parent"] >= 0
    child = np.bincount(a["parent"][inside], weights=dur[inside], minlength=dur.size)
    # children nest inside their parent and do not overlap; allow float rounding
    assert np.all(dur >= 0.0)
    assert np.all(dur - child >= -1e-12)
    for name, entry in tracer.summary(0, dur.size).items():
        assert entry["self_s"] <= entry["total_s"] + 1e-9, name
