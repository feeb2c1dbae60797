"""Cold start: scipy is imported on the first ODE solve, not with regflow.

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
steps.append(["import regflow", 0, scipy_modules()])
for argv in (["reg", "two_lines_60deg", "--samples", "100", "--out-dir", str(d)],
             ["run", "two_lines_60deg_km", "--out-dir", str(d)],
             ["rate", str(d / "two_lines_60deg_km_trajectory.csv")],
             ["run", "two_lines_60deg", "--out-dir", str(d)]):
    steps.append([" ".join(argv[:2]), main(argv), scipy_modules()])
(d / "steps.json").write_text(json.dumps(steps))
"""


def test_scipy_loads_on_first_solve(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads((tmp_path / "steps.json").read_text())
    *cold, (name, code, loaded) = steps
    for step, step_code, step_loaded in cold:  # reg, KM run and rate solve no ODE
        assert step_code == 0 and step_loaded == [], step
    assert name == "run two_lines_60deg"  # a continuous (rk45) run
    assert code == 0 and "scipy.integrate" in loaded
