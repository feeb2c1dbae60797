#!/usr/bin/env python3
"""Run every workload over several seeds and print each metric's spread.

    python3 perfbench/report.py [--seeds 0 1 2] [--workloads verify estimate]
                                [--seconds S] [--trace 0|1]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, from
the checkout root. For each workload it prints every metric by name with its
unit: the median over the runs, the quartiles, the spread (q3 - q1) / median
against the bound in BENCHMARK.json, and the number of runs; then the calls
attempted and failed (fail_share) and whether every output matched the
reference. Workloads, run length and bounds default to BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            for line in lines[:-1]:
                print(f"  {line}")
            runs.append(json.loads(lines[-1]))
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        print(f"{workload}: {len(runs)} runs; fail_share {failed}/{attempted} = "
              f"{failed / attempted:.3f}; all outputs match the reference: {correct}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            line = f"  {name:<40} median {med:<12.6g} {unit:<12}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f" q1 {q1:<11.6g} q3 {q3:<11.6g} spread {spread:.4f}"
                if bounds.get(name) is not None:
                    line += f" (bound {bounds[name]})"
            print(line + f" n={len(values)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
