#!/usr/bin/env python3
"""regflow benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {verify,corpus_run,estimate} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; regflow is imported from ``src/``.
The workload's passes run back to back in this process (BLAS pools capped at
one thread) until ``--seconds`` would be exceeded, and every call's outputs
are checked against ``perfbench/reference.json``. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median of several fresh-process set-ups) and ``peak_rss_mb``.
--trace 1 makes the second pass a traced one and reports the per-layer
metrics from its spans (see ``spans.py``), plus ``trace_overhead_s``, the
traced pass's time minus the untraced median; the spans are written to
``.perfbench_out/``. One traced pass keeps the span arrays to one pass.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

FIX_QUERIES = ("fixset.exact", "fixset.point", "fixset.affine", "fixset.dykstra")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("verify", "corpus_run", "estimate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up in a fresh process, print "ready" and exit
    p.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "regflow" / "__init__.py").is_file():
        print(f"error: no regflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # the load model is one process with no extra threads; set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import regflow

    if Path(regflow.__file__).resolve().parent != SRC / "regflow":
        print(f"error: imported regflow from {regflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.setup_probe is not None:
        WORKLOADS[args.workload](args.seed, args.setup_probe).setup()
        print("ready", flush=True)
        return 0

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _probe_setup(args, probe_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe", str(probe_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return t1 - t0


class Tally:
    """Attempted / failed calls against the reference."""

    def __init__(self, reference, workload):
        self.reference = reference
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.first_mismatches: list[str] = []

    def add(self, results) -> tuple[int, int]:
        """Count one pass; return (identical artifacts, artifacts)."""
        from workloads import mismatches

        identical = files = 0
        for r in results:
            want = self.reference.outputs(self.workload.name, self.workload.seed, r.key)
            bad = mismatches(r.outputs, want)
            self.attempted += 1
            if r.exit_code != 0 or r.fail_lines or bad:
                self.failed += 1
            if bad:
                self.mismatched += 1
                if len(self.first_mismatches) < 5:
                    k = bad[0]
                    self.first_mismatches.append(
                        f"{r.key}: {k} = {r.outputs.get(k)!r}, reference {want.get(k)!r}"
                        f" ({len(bad)} keys differ)")
            ref_h = self.reference.hashes(self.workload.name, self.workload.seed, r.key)
            identical += sum(1 for f, h in r.hashes.items() if ref_h.get(f) == h)
            files += len(r.hashes)
        return identical, files


def _measure(args, workdir: Path) -> int:
    from workloads import WORKLOADS, Reference, run_pass

    reference = Reference.load(HERE / "reference.json")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    trace = args.trace == 1

    setups = []
    if not trace:
        setups = [_probe_setup(args, workdir / f"probe{k}") for k in range(SETUP_PROBES)]
    workload.setup()

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    tally = Tally(reference, workload)
    walls = {False: [], True: []}
    identical = None
    longest = 0.0
    t_start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k == 1
        t_pass = time.perf_counter()
        if traced:
            tracer.run_id = k
            tracer.install()
        try:
            wall, results = run_pass(workload, workdir / f"pass{k}")
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        counted = tally.add(results)
        identical = identical or counted
        k += 1
        longest = max(longest, time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - t_start
        if k >= (2 if trace else 1) and elapsed + longest > args.seconds:
            break

    for line in tally.first_mismatches:
        print(f"reference mismatch: {line}", file=sys.stderr)
    ident, files = identical
    summary = (f"{workload.name} seed={args.seed} (input set {workload.seed}): "
               f"fail_share {tally.failed}/{tally.attempted} = "
               f"{tally.failed / tally.attempted:.3f}; reference mismatches "
               f"{tally.mismatched}; artifacts identical to reference {ident}/{files}")
    if trace:
        metrics = _layer_metrics(tracer, walls, ident)
        _save_trace(tracer, workload.name, walls)
        print(summary + f"; traced pass {walls[True][0]:.4f} s, untraced passes "
              f"{[round(w, 4) for w in walls[False]]}")
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(summary)
        print(f"wall_s median {metrics['wall_s']:.4f} s over {len(walls[False])} passes "
              f"{[round(w, 4) for w in walls[False]]}; setup_s median "
              f"{metrics['setup_s']:.4f} s over {len(setups)} fresh processes; "
              f"peak_rss_mb {metrics['peak_rss_mb']:.1f}")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": tally.mismatched == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _layer_metrics(tracer, walls, identical: int) -> dict:
    """Per-layer metrics (BENCHMARK.json ``per_layer``) from the traced pass's spans."""
    lo, hi = 0, len(tracer.name_id)
    layers = tracer.summary(lo, hi)

    def count(name, key="calls"):
        return layers.get(name, {}).get(key, 0)

    def seconds(name, key):
        return layers.get(name, {}).get(key, 0.0)

    dyk = count("fixset.dykstra")
    m = {}
    for name in ("validation.as_point", "operators.T", "sets.project"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.self_s"] = (seconds(name, "self_s"), "s")
    for name in FIX_QUERIES:
        m[f"{name}.queries"] = (count(name), "count")
        m[f"{name}.self_s"] = (seconds(name, "self_s"), "s")
    inside_dykstra = tracer.descendants("fixset.dykstra", ("sets.project",), lo, hi)
    m["fixset.dykstra.projections_per_query"] = (inside_dykstra / dyk if dyk else 0.0,
                                                 "count/query")
    m["fixset.dykstra.failed"] = (count("fixset.dykstra", "errors"), "count")
    m["fixset.intersection.setup_s"] = (seconds("fixset.intersection", "total_s"), "s")
    m["flow.solver.calls"] = (count("flow.solver"), "count")
    m["flow.solver.self_s"] = (seconds("flow.solver", "self_s"), "s")
    m["flow.nfev"] = (count("flow.solver", "nfev"), "count")
    m["flow.samples"] = (count("flow.integrate", "samples") + count("flow.km", "samples"),
                         "count")
    m["flow.finalize.oracle_queries"] = (
        tracer.descendants("flow.finalize", FIX_QUERIES, lo, hi), "count")
    m["regularity.estimate.total_s"] = (seconds("regularity.estimate", "total_s"), "s")
    m["regularity.estimate.self_s"] = (seconds("regularity.estimate", "self_s"), "s")
    m["regularity.estimate.samples"] = (count("regularity.estimate", "samples"), "count")
    m["regularity.estimate.excluded"] = (count("regularity.estimate", "excluded"), "count")
    for name in ("certificates", "trajectory_checks", "lemma_bounds", "identities"):
        m[f"regularity.{name}.total_s"] = (seconds(f"regularity.{name}", "total_s"), "s")
        m[f"regularity.{name}.self_s"] = (seconds(f"regularity.{name}", "self_s"), "s")
    m["rates.scalar_solver.calls"] = (count("rates.scalar_solver"), "count")
    m["rates.scalar_solver.self_s"] = (seconds("rates.scalar_solver", "self_s"), "s")
    m["rates.scalar_solver.nfev"] = (count("rates.scalar_solver", "nfev"), "count")
    m["rates.lemmas.total_s"] = (seconds("rates.lemmas", "total_s"), "s")
    m["rates.fit.self_s"] = (seconds("rates.fit", "self_s"), "s")
    m["rates.bounds.self_s"] = (seconds("rates.bounds", "self_s"), "s")
    m["config.build_scenario.total_s"] = (seconds("config.build_scenario", "total_s"), "s")
    m["cli.artifacts.self_s"] = (seconds("cli.artifacts", "self_s"), "s")
    m["cli.artifacts.bytes"] = (count("cli.artifacts", "bytes"), "bytes")
    m["cli.artifacts.identical"] = (identical, "count")
    m["trace_overhead_s"] = (walls[True][0] - statistics.median(walls[False]), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _save_trace(tracer, workload: str, walls) -> None:
    """Write the spans, and per-layer summaries overall and per CLI call."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"{workload}_spans.npz")
    hi = len(tracer.name_id)
    calls = [{"argv": label, **{k: v for k, v in tracer.summary(a, b).items() if v["calls"]}}
             for label, a, b in tracer.calls_of("cli.main", 0, hi)]
    (out_dir / f"{workload}_layers.json").write_text(json.dumps(
        {"layers": tracer.summary(0, hi), "calls": calls,
         "walls": {"untraced": walls[False], "traced": walls[True]}},
        indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
