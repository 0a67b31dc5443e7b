"""In-memory span recorder that wraps epcag's layer functions from outside.

``install`` replaces every public function of the traced modules at *every*
module attribute through which a caller looks it up (``epcag.solver.
solve_anchor`` and ``epcag.reduction.solve_anchor`` alike), plus a few hot
methods, with a wrapper that records one span per call: name, start, end,
parent and whether the call raised.  Spans live in flat arrays and are only
turned into numbers (``layer_table``) or written to disk (``save``) after the
run, so the traced code pays a few appends per call and nothing else.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("schedule", "solver", "analysis", "manifolds", "reduction", "harness")

# (module, class, method): hot methods traced besides the modules' public
# functions.  Their spans are named ``module.Class.method``; the metric
# ``schedule.interval_index.calls`` counts the method, through which the
# module-level ``interval_index`` and ``beta`` also pass.
METHODS = (
    ("solver", "HybridSystem", "rhs"),
    ("manifolds", "CenterEvaluator", "at"),
    ("manifolds", "CenterEvaluator", "empirical_P"),
    ("schedule", "ArgumentSchedule", "interval_index"),
)

# Work extracted from a call's return value, summed per span name.
WORK = {
    "solver.solve_anchor": lambda res: res.iterations,
    "manifolds.eval_F": lambda res: len(res.deltas),
    "manifolds.eval_G": lambda res: len(res.deltas),
    "reduction.asymptotic_phase": lambda res: res.iterations,
}


class Recorder:
    """Flat span storage: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.failed = array("b")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        work = WORK.get(name)
        stack = self._stack
        name_ids, parents = self.name_id, self.parent
        starts, ends, works, failed = self.start, self.end, self.work, self.failed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            works.append(0)
            failed.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                failed[idx] = 1
                stack.pop()
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if work is not None:
                works[idx] = work(out)
            return out

        return traced

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Write all spans as one ``.npz`` (names table plus flat arrays)."""
        np.savez(path, **self.arrays())


def _epcag_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "epcag" or name.startswith("epcag."))]


def install(rec: Recorder):
    """Wrap every traced function at every epcag attribute bound to it.

    Returns ``(wrapped, uninstall)``: ``wrapped`` maps span name to wrapper,
    and ``uninstall()`` puts every original back.
    """
    modules = {layer: importlib.import_module(f"epcag.{layer}")
               for layer in LAYERS}
    wrapped, by_original = {}, {}
    for layer, mod in modules.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrapped[name] = by_original[obj] = rec.wrap(name, obj)

    undo = []
    for mod in _epcag_modules():
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in by_original:
                setattr(mod, attr, by_original[val])
                undo.append((mod, attr, val))
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        name = f"{layer}.{cls_name}.{meth}"
        orig = cls.__dict__[meth]
        wrapped[name] = rec.wrap(name, orig)
        setattr(cls, meth, wrapped[name])
        undo.append((cls, meth, orig))

    def uninstall():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return wrapped, uninstall


def layer_table(rec: Recorder) -> dict:
    """Per-layer numbers from one traced pass, keyed by metric name.

    ``.calls`` counts spans, ``.s`` sums span time, ``self_s`` subtracts the
    time covered by direct child spans.  Counts are deterministic for a given
    input; times are not.
    """
    a = rec.arrays()
    names = list(a["names"])
    nid, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time

    def ids(name):
        return nid == names.index(name) if name in names else np.zeros(len(dur), bool)

    def calls(name):
        return int(np.count_nonzero(ids(name)))

    def total(name, values=dur):
        return float(values[ids(name)].sum())

    def work(name):
        return int(a["work"][ids(name)].sum())

    def fails(name):
        return int(a["failed"][ids(name)].sum())

    # a CenterEvaluator.at lookup is cold when it fills a cache cell, i.e.
    # when an eval_G span sits below it
    at_mask = ids("manifolds.CenterEvaluator.at")
    cold = np.zeros(len(dur), bool)
    fills = 0
    for s in np.flatnonzero(ids("manifolds.eval_G")):
        p = parent[s]
        while p >= 0 and not at_mask[p]:
            p = parent[p]
        if p >= 0:
            cold[p] = True
            fills += 1
    n_at = calls("manifolds.CenterEvaluator.at")
    n_cold = int(np.count_nonzero(cold))
    n_anchor = calls("solver.solve_anchor")
    top = float(dur[~has_parent].sum())

    t = {
        "solver.integrate_interval.calls": (calls("solver.integrate_interval"), "count"),
        "solver.integrate_interval.s": (total("solver.integrate_interval"), "s"),
        "solver.solve_anchor.calls": (n_anchor, "count"),
        "solver.solve_anchor.s": (total("solver.solve_anchor"), "s"),
        "solver.anchor_iters": (work("solver.solve_anchor"), "count"),
        "solver.integrations_per_anchor": (
            calls("solver.integrate_interval") / n_anchor if n_anchor else 0.0,
            "ratio"),
        "solver.rhs_evals": (calls("solver.HybridSystem.rhs"), "count"),
        "solver.anchor_failures": (fails("solver.solve_anchor"), "count"),
        "solver.write_csv.s": (total("solver.write_trajectory_csv"), "s"),
        "manifolds.eval_G.calls": (calls("manifolds.eval_G"), "count"),
        "manifolds.eval_G.s": (total("manifolds.eval_G"), "s"),
        "manifolds.eval_G.sweeps": (work("manifolds.eval_G"), "count"),
        "manifolds.eval_F.calls": (calls("manifolds.eval_F"), "count"),
        "manifolds.eval_F.s": (total("manifolds.eval_F"), "s"),
        "manifolds.eval_F.sweeps": (work("manifolds.eval_F"), "count"),
        "manifolds.center_at.calls": (n_at, "count"),
        "manifolds.center_at.warm_calls": (n_at - n_cold, "count"),
        "manifolds.center_at.cold_calls": (n_cold, "count"),
        "manifolds.center_at.warm_s": (float(dur[at_mask & ~cold].sum()), "s"),
        "manifolds.center_at.cold_s": (float(dur[at_mask & cold].sum()), "s"),
        "manifolds.center_fills": (fills, "count"),
        "manifolds.center_hit_ratio": (
            (n_at - n_cold) / n_at if n_at else 0.0, "ratio"),
        "manifolds.empirical_P.s": (total("manifolds.CenterEvaluator.empirical_P"), "s"),
        "manifolds.graph_failures": (
            fails("manifolds.eval_F") + fails("manifolds.eval_G"), "count"),
        "reduction.classify_stability.s": (total("reduction.classify_stability"), "s"),
        "reduction.build_reduced.s": (total("reduction.build_reduced"), "s"),
        "reduction.reduction_check.s": (total("reduction.reduction_check"), "s"),
        "reduction.asymptotic_phase.s": (total("reduction.asymptotic_phase"), "s"),
        "reduction.asymptotic_phase.self_s": (
            total("reduction.asymptotic_phase", self_time), "s"),
        "reduction.phase_iters": (work("reduction.asymptotic_phase"), "count"),
        "analysis.spectral_split.calls": (calls("analysis.spectral_split"), "count"),
        "analysis.spectral_split.s": (total("analysis.spectral_split"), "s"),
        "analysis.compute_constants.s": (total("analysis.compute_constants"), "s"),
        "analysis.check_conditions.s": (total("analysis.check_conditions"), "s"),
        "schedule.interval_index.calls": (calls("schedule.ArgumentSchedule.interval_index"), "count"),
        "schedule.interval_index.s": (total("schedule.ArgumentSchedule.interval_index"), "s"),
        "harness.run.calls": (calls("harness.run"), "count"),
        "harness.run.self_s": (total("harness.run", self_time), "s"),
        "trace.spans": (len(dur), "count"),
        "trace.top_level_s": (top, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in t.items()}
