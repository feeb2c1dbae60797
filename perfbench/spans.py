"""Span tracing of regflow from outside the package.

``Tracer.install()`` replaces the public functions and methods of each
regflow module with thin wrappers that record one span per call: its name,
start, end, the span that caused it (its parent), and the run id of the pass
it belongs to. Spans are kept in flat arrays, so a pass with millions of
``as_point`` calls stays at a few tens of MB, and are written out with
``Tracer.save`` when the benchmark ends. ``uninstall()`` restores every
original, so untraced passes run the unmodified package.

Spans are recorded in call order (pre-order), so the descendants of span ``i``
are exactly the indices ``i + 1 .. last[i] - 1``; per-call breakdowns and
"queries inside X" counts are range sums over those indices.
"""

import importlib
import os
import sys
import time
from array import array

import numpy as np

_NESTED = 1  # a span of the same name was already open (excluded from total_s)
_ERROR = 2   # the call raised

# Public regflow functions, grouped into the layers the benchmark reports.
# Each entry: (span name, module, attribute path). Module-level functions are
# also replaced wherever another regflow module imported them by name.
TARGETS = (
    ("validation.as_point", "regflow.validation", "as_point"),
    ("sets.project", "regflow.sets", "HalfSpace.project"),
    ("sets.project", "regflow.sets", "Hyperplane.project"),
    ("sets.project", "regflow.sets", "AffineSubspace.project"),
    ("sets.project", "regflow.sets", "Box.project"),
    ("sets.project", "regflow.sets", "Ball.project"),
    ("sets.distance", "regflow.sets", "PrimitiveSet.distance"),
    ("operators.T", "regflow.operators", "Operator.__call__"),
    ("fixset.exact", "regflow.fixset", "ExactSet.distance_to"),
    ("fixset.point", "regflow.fixset", "SinglePoint.distance_to"),
    ("fixset.affine", "regflow.fixset", "affine_intersection_project"),
    ("fixset.dykstra", "regflow.fixset", "dykstra_project"),
    ("fixset.intersection", "regflow.fixset", "Intersection.__init__"),
    ("flow.integrate", "regflow.flow", "integrate_flow"),
    ("flow.km", "regflow.flow", "km_iterate"),
    ("flow.solver", "regflow.flow", "solve_ivp"),
    ("flow.finalize", "regflow.flow", "_finalize"),
    ("flow.sample_metrics", "regflow.flow", "sample_metrics"),
    ("regularity.estimate", "regflow.regularity", "estimate_operator_regularity"),
    ("regularity.estimate", "regflow.regularity", "estimate_collection_regularity"),
    ("regularity.certificates", "regflow.regularity", "check_nonexpansiveness"),
    ("regularity.certificates", "regflow.regularity", "check_averagedness"),
    ("regularity.certificates", "regflow.regularity", "check_sqne"),
    ("regularity.trajectory_checks", "regflow.regularity", "check_avg_inequality"),
    ("regularity.trajectory_checks", "regflow.regularity", "check_descent"),
    ("regularity.lemma_bounds", "regflow.regularity", "check_combination_bound"),
    ("regularity.lemma_bounds", "regflow.regularity", "check_composition_bound"),
    ("regularity.identities", "regflow.regularity", "check_core_identities"),
    ("rates.fit", "regflow.rates", "fit_decay"),
    ("rates.fit", "regflow.rates", "select_model"),
    ("rates.bounds", "regflow.rates", "check_linear_rate_bound"),
    ("rates.bounds", "regflow.rates", "check_hoelder_rate_bound"),
    ("rates.lemmas", "regflow.rates", "verify_comparison_lemmas"),
    ("rates.scalar_solver", "regflow.rates", "solve_ivp"),
    ("config.build_scenario", "regflow.config", "build_scenario"),
    ("scenarios.resolve", "regflow.scenarios", "resolve_config_source"),
    ("cli.artifacts", "regflow.cli", "_write_json"),
    ("cli.artifacts", "regflow.flow", "Trajectory.to_csv"),
    ("cli.main", "regflow.cli", "main"),
)

# solve_ivp is scipy's: replace it only in the module named, so the flow
# integrator and the scalar lemma solver stay separate spans.
_MODULE_LOCAL = {("regflow.flow", "solve_ivp"), ("regflow.rates", "solve_ivp")}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _samples(args, kwargs, result):
    return {"samples": len(result.samples)}


def _estimate(args, kwargs, result):
    return {"samples": int(result.n_samples), "excluded": int(result.excluded)}


def _bytes(args, kwargs, result):
    path = kwargs.get("path") or next(a for a in args if isinstance(a, (str, os.PathLike)))
    return {"bytes": os.path.getsize(path)}


# Values read off a call's arguments or result and attached to its span.
HOOKS = {
    "flow.solver": _nfev,
    "rates.scalar_solver": _nfev,
    "flow.integrate": _samples,
    "flow.km": _samples,
    "regularity.estimate": _estimate,
    "cli.artifacts": _bytes,
}


class Tracer:
    """Records spans of regflow calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.run = array("H")
        self.flags = array("B")
        self.parent = array("q")
        self.last = array("q")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, dict] = {}
        self.labels: dict[int, str] = {}
        self.run_id = 0
        self._stack = [-1]
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._cache = None

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        hook = HOOKS.get(name)
        name_id, run, flags, parent = self.name_id, self.run, self.flags, self.parent
        last, start, end = self.last, self.start, self.end
        stack, open_, values, labels = self._stack, self._open, self.values, self.labels
        clock = time.perf_counter
        tracer = self
        label_argv = name == "cli.main"

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            run.append(tracer.run_id)
            flags.append(_NESTED if open_[nid] else 0)
            parent.append(stack[-1])
            last.append(0)
            start.append(0.0)
            end.append(0.0)
            if label_argv:
                argv = args[0] if args else kwargs.get("argv")
                labels[idx] = " ".join(sys.argv[1:] if argv is None else argv)
            stack.append(idx)
            open_[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flags[idx] |= _ERROR
                raise
            finally:
                t1 = clock()
                open_[nid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                last[idx] = len(name_id)
            if hook is not None:
                values[idx] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target with its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        # import every module first, so names imported from one module into
        # another are all in place before they are replaced
        for _, modname, _ in TARGETS:
            importlib.import_module(modname)
        try:
            self._replace_targets()
        except BaseException:
            self.uninstall()
            raise

    def _replace_targets(self) -> None:
        for name, modname, attr in TARGETS:
            module = sys.modules[modname]
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                original = cls.__dict__[leaf]
                self._saved.append((cls, leaf, original))
                setattr(cls, leaf, self._wrap(name, original))
                continue
            original = getattr(module, leaf)
            wrapper = self._wrap(name, original)
            holders = [module] if (modname, leaf) in _MODULE_LOCAL else [
                m for key, m in sys.modules.items()
                if (key == "regflow" or key.startswith("regflow.")) and m is not None
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Restore every original the install replaced."""
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays (cached until more spans arrive)."""
        n = len(self.name_id)
        if self._cache is None or self._cache[0] != n:
            cols = {
                "name_id": (self.name_id, np.uint16), "run": (self.run, np.uint16),
                "flags": (self.flags, np.uint8), "parent": (self.parent, np.int64),
                "last": (self.last, np.int64), "start": (self.start, np.float64),
                "end": (self.end, np.float64),
            }
            # copies, so no numpy view pins the arrays' buffers while recording
            self._cache = (n, {k: np.array(np.frombuffer(col, dtype=dt))
                               for k, (col, dt) in cols.items()})
        return self._cache[1]

    def summary(self, lo: int, hi: int) -> dict:
        """Per-span-name calls, total_s, self_s, errors and summed values over [lo, hi).

        outer and total_s count only spans with no open ancestor of the same name, so
        nested operator trees are not counted twice; self_s is each span's
        duration minus its direct children's.
        """
        a = self.arrays()
        nid = a["name_id"][lo:hi].astype(np.int64)
        dur = a["end"][lo:hi] - a["start"][lo:hi]
        par = a["parent"][lo:hi] - lo
        inside = par >= 0
        child = np.bincount(par[inside], weights=dur[inside], minlength=hi - lo)
        self_t = dur - child
        outer = (a["flags"][lo:hi] & _NESTED) == 0
        err = (a["flags"][lo:hi] & _ERROR) != 0
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        outer_calls = np.bincount(nid[outer], minlength=n)
        total = np.bincount(nid[outer], weights=dur[outer], minlength=n)
        selfs = np.bincount(nid, weights=self_t, minlength=n)
        errors = np.bincount(nid[err], minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "outer": int(outer_calls[i]),
                         "total_s": float(total[i]),
                         "self_s": float(selfs[i]), "errors": int(errors[i])}
        for idx, vals in self.values.items():
            if lo <= idx < hi:
                entry = out[self.names[self.name_id[idx]]]
                for key, v in vals.items():
                    entry[key] = entry.get(key, 0) + v
        return out

    def descendants(self, ancestor: str, targets: tuple[str, ...],
                    lo: int, hi: int) -> int:
        """Number of spans named in ``targets`` below any ``ancestor`` span in [lo, hi)."""
        if ancestor not in self._ids:
            return 0
        a = self.arrays()
        nid = a["name_id"]
        want = np.isin(nid[lo:hi], [self._ids[t] for t in targets if t in self._ids])
        cum = np.concatenate([[0], np.cumsum(want)])
        roots = np.flatnonzero((nid[lo:hi] == self._ids[ancestor])
                               & ((a["flags"][lo:hi] & _NESTED) == 0))
        ends = a["last"][lo:hi][roots] - lo
        return int(np.sum(cum[ends] - cum[roots + 1]))

    def calls_of(self, root: str, lo: int, hi: int) -> list[tuple[str, int, int]]:
        """(label, lo, hi) of each outermost ``root`` span in [lo, hi)."""
        if root not in self._ids:
            return []
        a = self.arrays()
        nid = a["name_id"][lo:hi]
        roots = np.flatnonzero((nid == self._ids[root])
                               & ((a["flags"][lo:hi] & _NESTED) == 0)) + lo
        return [(self.labels.get(int(i), ""), int(i), int(a["last"][i])) for i in roots]

    def save(self, path) -> None:
        """Write every recorded span (and the name table) as one .npz file."""
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **a)
