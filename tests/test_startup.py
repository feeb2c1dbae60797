"""Cold start: no regflow command loads scipy, the adaptive (rk45) solve included,
or numpy.ma; numpy.random loads only where something is sampled.

pytest itself has loaded scipy by now, so the check runs in a fresh
interpreter that imports regflow from this checkout's ``src``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

d = Path(sys.argv[1])
steps = []
import regflow
from regflow.cli import main
from regflow.scenarios import BUNDLED
steps.append(["import regflow", 0, scipy_modules()])
for argv in (["reg", "two_lines_60deg", "--samples", "100", "--out-dir", str(d)],
             ["run", "two_lines_60deg_km", "--out-dir", str(d)],
             ["rate", str(d / "two_lines_60deg_km_trajectory.csv")],
             ["run", "two_lines_60deg", "--out-dir", str(d)],
             ["verify"],
             *(["run", name, "--out-dir", str(d)] for name in BUNDLED)):
    steps.append([" ".join(argv[:2]), main(argv), scipy_modules()])
(d / "steps.json").write_text(json.dumps(steps))
"""


def test_no_command_loads_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads((tmp_path / "steps.json").read_text())
    first = steps[:6]  # up to verify: reg, KM run, rate, an rk45 run and verify
    assert [(name, code) for name, code, _ in first] == [
        ("import regflow", 0), ("reg two_lines_60deg", 0), ("run two_lines_60deg_km", 0),
        ("rate " + str(tmp_path / "two_lines_60deg_km_trajectory.csv"), 0),
        ("run two_lines_60deg", 0), ("verify", 0)]
    for step, _, step_loaded in steps:
        assert step_loaded == [], step


MODULES_CHILD = """
import json, sys
from pathlib import Path

d = Path(sys.argv[1])

def loaded():
    return ["numpy.random" in sys.modules, "numpy.ma" in sys.modules]

from regflow.cli import main
steps = [["import regflow.cli", 0, *loaded()]]
for argv in (["run", "two_lines_60deg_km", "--out-dir", str(d)],
             ["rate", str(d / "two_lines_60deg_km_trajectory.csv")],
             ["run", "two_lines_60deg", "--out-dir", str(d)],
             ["verify"]):
    name = " ".join([argv[0]] + [Path(arg).name for arg in argv[1:2]])
    steps.append([name, main(argv), *loaded()])
(d / "steps.json").write_text(json.dumps(steps))
"""


def test_numpy_random_and_ma_load_only_when_used(tmp_path):
    # numpy.random only for sampling (regularity estimates, random x0); numpy.ma never
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", MODULES_CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads((tmp_path / "steps.json").read_text())
    assert [(name, code) for name, code, _, _ in steps] == [
        ("import regflow.cli", 0), ("run two_lines_60deg_km", 0),
        ("rate two_lines_60deg_km_trajectory.csv", 0), ("run two_lines_60deg", 0),
        ("verify", 0)]
    for name, _, random_loaded, _ in steps[:3]:
        assert not random_loaded, name
    for name, _, _, ma_loaded in steps:
        assert not ma_loaded, name
