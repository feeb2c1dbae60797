"""The three benchmark workloads and the extraction of their outputs.

A workload turns a seed into a fixed list of regflow CLI calls (one pass) and
reads every call's outputs back as a flat ``{key: value}`` dict, so a pass can
be compared against the reference recorded by ``record_reference.py``.

The seed picks one of ``REFERENCE_SEEDS`` input sets (``seed % 16``); the
reference holds the outputs of every one of them, so each run is checked in
full whatever seed it is given.
"""

import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEEDS = 16

# verify / run print one line per check: "PASS  <tag>  <name>=<value>"
_CHECK_LINE = re.compile(r"^(PASS|FAIL)  (.*?)(?:  (\w+)=(\S+))?$")
# rows kept from each trajectory CSV (plus the last one)
_TRAJECTORY_ROWS = 16


def workload_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


class Workload:
    """A list of CLI calls built from one seed, and how to read their outputs."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = workload_seed(seed)
        self.workdir = workdir

    def setup(self) -> None:
        """Parse and build every config the pass will run (what a user waits
        for before the first result): config parse, scenario build and
        ``Intersection`` construction with its origin probe."""
        from regflow.config import build_scenario

        for cfg in self.configs():
            build_scenario(cfg)

    def configs(self) -> list[dict]:
        raise NotImplementedError

    def calls(self) -> list[tuple[str, list[str], bool]]:
        """(op key, CLI argv, writes artifacts) for each call of one pass."""
        raise NotImplementedError

    def extract(self, stdout: str, out_dir: Path | None) -> dict:
        """Flat outputs of one call (besides its exit code)."""
        return _lines(stdout)


class Verify(Workload):
    """``regflow verify --seed <seed>``: the whole battery, once."""

    name = "verify"

    def configs(self):
        from regflow.scenarios import BUNDLED, scenario_config

        return [scenario_config(n) for n in BUNDLED]

    def setup(self) -> None:
        from regflow.scenarios import certificate_operators

        super().setup()
        certificate_operators()

    def calls(self):
        return [("verify", ["verify", "--seed", str(self.seed)], False)]


class CorpusRun(Workload):
    """``regflow run <path>`` on each bundled config, with ``regularity.seed``
    set to the workload seed (seed 0 is the configs as shipped)."""

    name = "corpus_run"

    def configs(self):
        from regflow.scenarios import BUNDLED, scenario_config

        out = []
        for n in BUNDLED:
            cfg = scenario_config(n)
            if "regularity" in cfg:
                cfg["regularity"]["seed"] = self.seed
            out.append(cfg)
        return out

    def setup(self) -> None:
        from regflow.config import build_scenario, load_config

        config_dir = self.workdir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        for cfg in self.configs():
            path = config_dir / f"{cfg['name']}.json"
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            build_scenario(load_config(path))

    def calls(self):
        config_dir = self.workdir / "configs"
        return [(cfg["name"], ["run", str(config_dir / f"{cfg['name']}.json")], True)
                for cfg in self.configs()]

    def extract(self, stdout, out_dir):
        return {**_lines(stdout), **_artifacts(out_dir)}


class Estimate(Workload):
    """``regflow reg <name> --samples 10000 --seed <seed> --mode <mode>`` on the
    five continuous bundled scenarios, both modes."""

    name = "estimate"
    SAMPLES = 10_000

    def configs(self):
        from regflow.scenarios import CONTINUOUS, scenario_config

        return [scenario_config(n) for n in CONTINUOUS]

    def calls(self):
        from regflow.scenarios import CONTINUOUS

        return [(f"{n}.{mode}",
                 ["reg", n, "--samples", str(self.SAMPLES), "--seed", str(self.seed),
                  "--mode", mode], True)
                for n in CONTINUOUS for mode in ("linear", "hoelder")]

    def extract(self, stdout, out_dir):
        doc = json.loads(stdout) if stdout.strip() else None
        return {**_flatten(doc, "stdout"), **_artifacts(out_dir)}


WORKLOADS = {w.name: w for w in (Verify, CorpusRun, Estimate)}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class CallResult:
    """One CLI call of a pass: exit code, wall time, flat outputs, artifact hashes."""

    key: str
    exit_code: int | str
    seconds: float
    outputs: dict
    hashes: dict
    stdout: str

    @property
    def fail_lines(self) -> int:
        return sum(1 for line in self.stdout.splitlines() if line.startswith("FAIL"))


def run_pass(workload: Workload, pass_dir: Path) -> tuple[float, list[CallResult]]:
    """Run every call of one pass; return the summed call wall time and results.

    Only the CLI calls are timed; reading the outputs back happens after.
    """
    from regflow import cli

    raw = []
    for i, (key, argv, writes) in enumerate(workload.calls()):
        out_dir = None
        if writes:
            out_dir = pass_dir / f"{i:02d}"
            out_dir.mkdir(parents=True)
            argv = argv + ["--out-dir", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback breaks the CLI contract: a failure
                code = f"uncaught {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        raw.append((key, code, seconds, stdout.getvalue(), out_dir))
    results = []
    for key, code, seconds, text, out_dir in raw:
        outputs = {"exit": code, **workload.extract(text, out_dir)}
        results.append(CallResult(key, code, seconds, outputs, _hashes(out_dir), text))
    shutil.rmtree(pass_dir, ignore_errors=True)
    return sum(r.seconds for r in results), results


# ---------------------------------------------------------------------------
# output extraction
# ---------------------------------------------------------------------------

def _lines(stdout: str) -> dict:
    """Check lines as text plus printed value; other lines as text."""
    out = {"lines": len(stdout.splitlines())}
    for i, line in enumerate(stdout.splitlines()):
        m = _CHECK_LINE.match(line)
        if m and m.group(3):
            out[f"L{i:03d}.text"] = f"{m.group(1)}  {m.group(2)}  {m.group(3)}"
            out[f"L{i:03d}.printed"] = float(m.group(4))
        else:
            out[f"L{i:03d}.text"] = line
    return out


def _flatten(doc, prefix: str) -> dict:
    out = {}
    if isinstance(doc, dict):
        for k in sorted(doc):
            out.update(_flatten(doc[k], f"{prefix}.{k}"))
    elif isinstance(doc, list):
        out[f"{prefix}.len"] = len(doc)
        for i, v in enumerate(doc):
            out.update(_flatten(v, f"{prefix}[{i}]"))
    else:
        out[prefix] = doc
    return out


def _artifacts(out_dir: Path) -> dict:
    """JSON artifacts flattened; trajectory CSVs as row count plus sampled rows."""
    files = sorted(p.name for p in out_dir.iterdir())
    out = {"files": " ".join(files)}
    for name in files:
        path = out_dir / name
        if name.endswith(".json"):
            out.update(_flatten(json.loads(path.read_text()), name))
        elif name.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            out[f"{name}.header"] = ",".join(header)
            out[f"{name}.rows"] = len(body)
            step = max(1, len(body) // _TRAJECTORY_ROWS)
            for r in sorted(set(range(0, len(body), step)) | {len(body) - 1}):
                for col, cell in zip(header, body[r]):
                    out[f"{name}[{r}].{col}"] = float(cell) if cell else None
    return out


def _hashes(out_dir: Path | None) -> dict:
    if out_dir is None:
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# comparison against the reference
# ---------------------------------------------------------------------------

REL_TOL = 1e-6          # floats read from JSON and CSV artifacts
PRINTED_REL_TOL = 1e-5  # values printed with 7 significant digits
ABS_TOL = 1e-9          # floor for values that are zero up to roundoff


def same(key: str, got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, float) and isinstance(got, (int, float)):
        rel = PRINTED_REL_TOL if key.endswith(".printed") else REL_TOL
        return abs(got - want) <= max(rel * max(abs(got), abs(want)), ABS_TOL)
    return type(got) is type(want) and got == want


def mismatches(outputs: dict, reference: dict) -> list[str]:
    """Keys whose value differs from the reference, or exists on one side only."""
    bad = [k for k in reference if k not in outputs or not same(k, outputs[k], reference[k])]
    bad += [k for k in outputs if k not in reference]
    return sorted(bad)


class Reference:
    """Recorded outputs and artifact hashes of every call, per workload and seed.

    Values equal for every seed are stored once under ``common``; the rest
    under ``by_seed``.
    """

    def __init__(self, doc: dict):
        self.doc = doc

    @classmethod
    def load(cls, path: Path) -> "Reference":
        return cls(json.loads(path.read_text()))

    def _lookup(self, workload: str, section: str, seed: int, key: str) -> dict:
        w = self.doc["workloads"][workload]
        return {**w[section]["common"].get(key, {}),
                **w[section]["by_seed"][str(seed)].get(key, {})}

    def outputs(self, workload: str, seed: int, key: str) -> dict:
        return self._lookup(workload, "outputs", seed, key)

    def hashes(self, workload: str, seed: int, key: str) -> dict:
        return self._lookup(workload, "hashes", seed, key)


_MISSING = object()


def split_common(per_seed: dict[int, dict[str, dict]]) -> dict:
    """{seed: {call: {k: v}}} -> {"common": {call: {k: v}}, "by_seed": ...}."""
    seeds = sorted(per_seed)
    calls = sorted({c for s in seeds for c in per_seed[s]})
    common, by_seed = {}, {str(s): {} for s in seeds}
    for c in calls:
        keys = sorted({k for s in seeds for k in per_seed[s].get(c, {})})
        shared = {}
        for k in keys:
            vals = [per_seed[s].get(c, {}).get(k, _MISSING) for s in seeds]
            if all(v is not _MISSING and v == vals[0] and type(v) is type(vals[0])
                   for v in vals):
                shared[k] = vals[0]
        common[c] = shared
        for s in seeds:
            rest = {k: v for k, v in per_seed[s].get(c, {}).items() if k not in shared}
            if rest:
                by_seed[str(s)][c] = rest
    return {"common": common, "by_seed": by_seed}

