"""Self-test of the benchmark itself (not of epcag).

    python3 bench/selftest.py

Run from the root of a checkout; takes about a minute.  Checks that

* the tracer replaces every traced function at every module attribute that
  holds it, and puts the originals back;
* each workload at seed 7 passes its gates, while planted wrong
  expectations (a flipped verdict, a tightened tolerance) raise its
  fail ratio;
* every per-layer count the workload is meant to exercise is non-zero, the
  layers it is meant to skip count zero, and reduce-damped makes exactly
  the calls on record;
* counts repeat exactly across two traced passes, and top-level spans cover
  at least 90% of the traced pass time;
* the host-speed reference samples on its timer inside a block, counts the
  time it spent there, and leaves no timer or handler behind;
* without ``src/`` the benchmark exits non-zero and prints no result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import inspect
import shutil
import signal
import subprocess
import sys
import time

import run
import spans
from run import OUT, ROOT
from workloads import EXPECT, WORKLOADS

SEED = 7

# Planted wrong expectations: each must make some run of its workload fail.
PLANTED = {
    "reduce-damped": {"verdict": "exponential"},
    "graph-maps": {"lipschitz_slack": 1e-3},
    "continue-random": {"round_trip_tol": 1e-9},
}

# Counts that must be non-zero on each workload, and counts that must be
# zero because the workload does not touch that layer.
WORKS = {
    "reduce-damped": (
        "solver.integrate_interval.calls", "solver.solve_anchor.calls",
        "solver.anchor_iters", "solver.rhs_evals", "manifolds.eval_G.calls",
        "manifolds.eval_G.sweeps", "manifolds.center_at.calls",
        "manifolds.center_at.warm_calls", "manifolds.center_at.cold_calls",
        "manifolds.center_fills", "analysis.spectral_split.calls",
        "schedule.interval_index.calls", "harness.run.calls",
        "harness.bytes_written"),
    "graph-maps": (
        "solver.integrate_interval.calls", "solver.solve_anchor.calls",
        "solver.rhs_evals", "manifolds.eval_F.calls", "manifolds.eval_F.sweeps",
        "manifolds.eval_G.calls", "manifolds.eval_G.sweeps",
        "reduction.phase_iters", "analysis.spectral_split.calls",
        "schedule.interval_index.calls", "harness.run.calls",
        "harness.bytes_written"),
    "continue-random": (
        "solver.integrate_interval.calls", "solver.solve_anchor.calls",
        "solver.anchor_iters", "solver.rhs_evals",
        "schedule.interval_index.calls", "harness.run.calls",
        "harness.bytes_written"),
}
IDLE = {
    "reduce-damped": ("manifolds.eval_F.calls", "reduction.phase_iters"),
    "graph-maps": ("manifolds.center_at.calls",),
    "continue-random": ("manifolds.eval_F.calls", "manifolds.eval_G.calls",
                        "manifolds.center_at.calls",
                        "analysis.spectral_split.calls"),
}
# Times that must be non-zero where the layer does work.
BUSY = {
    "reduce-damped": ("reduction.classify_stability.s",
                      "reduction.build_reduced.s", "reduction.reduction_check.s",
                      "manifolds.empirical_P.s", "manifolds.center_at.warm_s",
                      "manifolds.center_at.cold_s",
                      "analysis.compute_constants.s",
                      "analysis.check_conditions.s"),
    "graph-maps": ("reduction.asymptotic_phase.s",
                   "reduction.asymptotic_phase.self_s", "solver.write_csv.s"),
    "continue-random": ("solver.write_csv.s",),
}
RECORDED = {  # reduce-damped at seed 7
    "solver.integrate_interval.calls": 9000,
    "solver.solve_anchor.calls": 4500,
    "manifolds.center_at.calls": 129702,
    "manifolds.eval_G.calls": 55,
}

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_wrapping() -> None:
    import epcag
    from epcag import harness, manifolds, reduction, schedule, solver

    before = {id(m): dict(vars(m)) for m in spans._epcag_modules()}
    rec = spans.Recorder()
    wrapped, uninstall = spans.install(rec)
    try:
        aliases = [
            (solver, "solve_anchor", "solver.solve_anchor"),
            (reduction, "solve_anchor", "solver.solve_anchor"),
            (epcag, "solve_anchor", "solver.solve_anchor"),
            (manifolds, "eval_G", "manifolds.eval_G"),
            (reduction, "eval_G", "manifolds.eval_G"),
            (harness, "eval_G", "manifolds.eval_G"),
            (solver, "integrate_interval", "solver.integrate_interval"),
            (harness, "run", "harness.run"),
        ]
        for mod, attr, name in aliases:
            expect(getattr(mod, attr) is wrapped[name],
                   f"{mod.__name__}.{attr} is traced")
        for cls, meth, name in (
                (solver.HybridSystem, "rhs", "solver.HybridSystem.rhs"),
                (manifolds.CenterEvaluator, "at", "manifolds.CenterEvaluator.at"),
                (schedule.ArgumentSchedule, "interval_index",
                 "schedule.ArgumentSchedule.interval_index")):
            expect(cls.__dict__[meth] is wrapped[name],
                   f"{cls.__name__}.{meth} is traced")
        originals = {id(fn.__wrapped__) for fn in wrapped.values()}
        stale = [f"{m.__name__}.{k}" for m in spans._epcag_modules()
                 for k, v in vars(m).items()
                 if inspect.isfunction(v) and id(v) in originals]
        expect(not stale, f"no untraced alias left (found {stale})")
    finally:
        uninstall()
    after = {id(m): dict(vars(m)) for m in spans._epcag_modules()}
    expect(all(after[k][a] is v for k, d in before.items() for a, v in d.items()),
           "uninstall restores every module attribute")
    expect("__wrapped__" not in vars(solver.HybridSystem.rhs),
           "uninstall restores the traced methods")


def check_workload(name, harness) -> None:
    steps = WORKLOADS[name](SEED)
    out_root = OUT / "selftest" / name
    counts = []
    for k in range(2):
        times, outcomes, table, _ = run.traced_pass(harness, steps, out_root)
        counts.append({m: v["value"] for m, v in table.items()
                       if v["unit"] != "s"})
        if k == 0:
            gates = run.check(outcomes, EXPECT)
            expect(all(ok for _, ok, _ in gates),
                   f"{name}: gates pass ({len(gates)} runs)")
            planted = run.check(outcomes, dict(EXPECT, **PLANTED[name]))
            bad = sum(1 for _, ok, _ in planted if not ok)
            expect(bad > 0, f"{name}: planted {PLANTED[name]} gives fail_ratio "
                            f"{bad}/{len(planted)}")
            for metric in WORKS[name]:
                expect(table[metric]["value"] > 0,
                       f"{name}: {metric} = {table[metric]['value']}")
            for metric in IDLE[name]:
                expect(table[metric]["value"] == 0,
                       f"{name}: {metric} = {table[metric]['value']} (layer idle)")
            for metric in BUSY[name]:
                expect(table[metric]["value"] > 0,
                       f"{name}: {metric} = {table[metric]['value']:.4g} s")
            cover = table["trace.top_level_s"]["value"] / sum(times.values())
            expect(cover >= 0.9, f"{name}: top-level spans cover {cover:.4f}")
            if name == "reduce-damped":
                for metric, want in RECORDED.items():
                    got = table[metric]["value"]
                    expect(got == want, f"{name}: {metric} = {got} (want {want})")
    expect(counts[0] == counts[1], f"{name}: counts repeat across traced passes")


def check_spec() -> None:
    spec = run.load_spec()
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the defined workloads")
    known = set(spans.layer_table(spans.Recorder())) | {
        "harness.bytes_written", "trace.overhead_s", "trace.coverage"}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in known]
    expect(not missing, f"every per-layer metric is produced (missing {missing})")


def check_reference() -> None:
    ref = run.Reference()
    handler = signal.getsignal(signal.SIGALRM)
    t = time.perf_counter()
    with ref.sampling():
        while time.perf_counter() - t < 1.0:
            pass
    ticks = len(ref.samples)
    expect(ticks >= 2, f"reference ticked {ticks} times in 1 s")
    expect(0.0 < ref.inside < 1.0, f"reference spent {ref.inside:.3f} s of 1 s")
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
           and signal.getsignal(signal.SIGALRM) == handler,
           "reference timer and handler removed after the block")


def check_without_program() -> None:
    bare = OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "continue-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    run.import_epcag()
    from epcag import harness

    print("spec:")
    check_spec()
    print("wrapping:")
    check_wrapping()
    for name in WORKLOADS:
        print(f"{name} (seed {SEED}):")
        check_workload(name, harness)
    print("reference:")
    check_reference()
    print("bare directory:")
    check_without_program()
    print(f"{len(failures)} failing checks" if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
