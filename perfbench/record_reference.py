#!/usr/bin/env python3
"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs one untraced pass of each workload for every input set (seeds
0 .. REFERENCE_SEEDS-1) and writes ``perfbench/reference.json``: each call's
exit code, check lines, JSON artifacts, sampled trajectory rows and artifact
hashes. Re-record only when a change to regflow's outputs is intended, and
say so in CHANGES.md.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFERENCE_SEEDS, WORKLOADS, run_pass, split_common

    doc = {"seeds": REFERENCE_SEEDS, "workloads": {}}
    workdir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for name, cls in WORKLOADS.items():
            outputs, hashes = {}, {}
            for seed in range(REFERENCE_SEEDS):
                workload = cls(seed, workdir / f"{name}-{seed}")
                workload.setup()
                _, results = run_pass(workload, workdir / f"{name}-{seed}" / "pass")
                outputs[seed] = {r.key: r.outputs for r in results}
                hashes[seed] = {r.key: r.hashes for r in results}
                codes = [r.exit_code for r in results]
                print(f"{name} seed {seed}: exit codes {codes}", file=sys.stderr)
            doc["workloads"][name] = {"outputs": split_common(outputs),
                                      "hashes": split_common(hashes)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
