"""Each benchmark workload, run once at seed 0, reproduces the outputs recorded
in perfbench/reference.json (exit codes, printed lines, JSON and CSV values,
within the benchmark's own tolerances), so output drift fails the test suite
and not only the benchmark. Artifact hashes are not compared: the recorded
ones predate later roundoff-level changes."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, Reference, mismatches, run_pass  # noqa: E402

REFERENCE = Reference.load(PERFBENCH / "reference.json")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_reference(name, tmp_path):
    workload = WORKLOADS[name](0, tmp_path / "work")
    workload.setup()
    _, results = run_pass(workload, tmp_path / "pass")
    assert results
    bad = {r.key: mismatches(r.outputs, REFERENCE.outputs(name, workload.seed, r.key))
           for r in results}
    assert {key: keys for key, keys in bad.items() if keys} == {}
