#!/usr/bin/env python3
"""Map traced runs onto the ROADMAP's seed-figure table.

    python3 perfbench/run.py --workload W --seed 0 --seconds 36 --trace 1   # each W
    python3 perfbench/roadmap_rows.py

Reads ``.perfbench_out/<workload>_layers.json`` written by the traced runs
and prints one markdown row per ROADMAP seed figure: the figure derived here
from span calls and times, the seed figure, and their ratio with its base.
Traced figures include the tracer's own cost in every nested span.
"""

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def _load(workload: str) -> dict:
    return json.loads((OUT / f"{workload}_layers.json").read_text())


def _over(calls: list, prefix: str, name: str, key: str) -> float:
    """Sum of ``key`` of span ``name`` over the CLI calls whose argv starts with prefix."""
    return sum(c.get(name, {}).get(key, 0) for c in calls if c["argv"].startswith(prefix))


def rows() -> list[tuple[str, str, float, float, str]]:
    verify, corpus, estimate = _load("verify"), _load("corpus_run"), _load("estimate")
    est = estimate["calls"]
    out = []
    # (ROADMAP layer, how derived, figure here, seed figure, unit)
    t = _over(est, "reg two_lines_60deg", "operators.T", "total_s")
    n = _over(est, "reg two_lines_60deg", "operators.T", "outer")
    out.append(("`compose` of two projectors, per point",
                "estimate, `reg two_lines_60deg`: operators.T total_s / outermost calls",
                1e6 * t / n, 30.0, "µs"))
    a = verify["layers"]["validation.as_point"]
    out.append(("`as_point`, per call", "verify: validation.as_point self_s / calls",
                1e6 * a["self_s"] / a["calls"], 3.6, "µs"))
    out.append(("`as_point` calls in one `verify`", "verify: validation.as_point calls",
                a["calls"], 544_000, "calls"))
    t = _over(est, "reg two_lines_60deg", "fixset.affine", "total_s")
    n = _over(est, "reg two_lines_60deg", "fixset.affine", "calls")
    out.append(("affine `Intersection.distance_to`, per query",
                "estimate, `reg two_lines_60deg`: fixset.affine total_s / queries",
                1e6 * t / n, 78.0, "µs"))
    t = _over(est, "reg cyclic_three_boxes", "fixset.dykstra", "total_s")
    n = _over(est, "reg cyclic_three_boxes", "fixset.dykstra", "calls")
    out.append(("Dykstra over 3 boxes, per query",
                "estimate, `reg cyclic_three_boxes`: fixset.dykstra total_s / queries",
                1e6 * t / n, 181.0, "µs"))
    e = estimate["layers"]["regularity.estimate"]
    out.append(("`estimate_operator_regularity`, 10k samples",
                "estimate: regularity.estimate total_s / samples x 10k",
                1e4 * e["total_s"] / e["samples"], 1.37, "s"))
    per_scenario = [c["flow.integrate"]["total_s"] for c in corpus["calls"]
                    if "flow.integrate" in c and not c["argv"].split()[1].endswith("_km.json")]
    out.append(("corpus integration, per continuous scenario (max)",
                "corpus_run: flow.integrate total_s per `run` call, largest of 5",
                max(per_scenario), 0.71, "s"))
    out.append(("`verify --seed N`, untraced",
                "verify: median untraced pass of the traced run",
                statistics.median(verify["walls"]["untraced"]), 13.0, "s"))
    return out


def main() -> int:
    try:
        table = rows()
    except FileNotFoundError as exc:
        print(f"error: {exc.filename} missing; run each workload with --trace 1 first",
              file=sys.stderr)
        return 1
    print("| ROADMAP layer | derived from | here | seed figure | ratio (here / seed) |")
    print("| --- | --- | --- | --- | --- |")
    for layer, how, here, seed, unit in table:
        fmt = ",.0f" if unit == "calls" else ".4g"
        print(f"| {layer} | {how} | {here:{fmt}} {unit} | {seed:{fmt}} {unit} "
              f"| {here / seed:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
