"""Run one epcag benchmark workload and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from ``src/``.
Workloads, metric names and units come from ``BENCHMARK.json``.

``--trace 0`` repeats untraced passes of the workload while the next pass
still ends within ``--seconds`` (at least one pass) and reports the
end-to-end metrics: ``wall_s`` (median pass time: every recipe run through
``epcag.harness.run``, artifact writing included), ``setup_s`` (median over
fresh interpreters of importing epcag and generating the pass's configs)
and ``peak_rss_mb`` (this process, which runs nothing but the workload).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; spans and the full per-layer table go to
``.bench_out/<workload>/``.  Every recipe run is checked by the workload's
gates; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Host-speed correction.  On a shared host the speed of a core swings by
tens of percent within seconds (on a 2-vCPU VM the same pass took 3.6 s
to 5.8 s within one hour), which moves a raw wall time more than most
changes to the program would.  So a short fixed
reference kernel (a frozen copy of the kind of loop the program spends its
time in: RK4 steps of a 2-d system with a frozen argument, small numpy
arrays rebuilt at every right-hand side, but none of the program's code;
it tracks the program's speed better than a bare matmul loop) is timed
from a ``SIGALRM`` timer every ``REF_INTERVAL_S`` seconds inside each
untraced recipe run, and its time is taken out of the recipe's time.
``wall_s`` and ``trace.overhead_s`` are reported in reference seconds:
the measured times times ``REF_NOMINAL_S`` over the run's median kernel
time, that is what they would read on a host where the kernel takes
``REF_NOMINAL_S``.  Sampling all through the timed work makes that median
follow the host speed the program saw; the raw pass times are printed and
stored too.  ``setup_s`` stays in host seconds: it is mostly imports,
which do not follow the kernel, and correcting it made it noisier.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the benchmark drives each workload from one process with
# no extra threads.  Must be set before numpy is imported.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import EXPECT, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
# reference kernel: its length, its median time on the host the benchmark
# was defined on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4), and how
# often it runs inside a recipe run
REF_STEPS = 400
REF_NOMINAL_S = 0.016
REF_INTERVAL_S = 0.25


def import_epcag():
    """Import the checkout's own ``src/epcag``, never an installed copy."""
    pkg = SRC / "epcag"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import epcag
    if Path(epcag.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported epcag from {epcag.__file__}, not {pkg}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def reference_seconds() -> float:
    """Wall time of the fixed reference kernel (see the module docstring):
    RK4 on z' = diag(-1, 0) z + (c w2^2/(1+w2^2), -c z2^3/(1+z2^2)) with
    w frozen."""
    import numpy as np
    a, c, h = np.diag([-1.0, 0.0]), 0.012, 0.05
    w = np.array([0.3, 0.5])

    def rhs(z):
        return a @ z + np.asarray(np.array([
            c * w[1] * w[1] / (1.0 + w[1] * w[1]),
            -c * z[1] ** 3 / (1.0 + z[1] * z[1])]), dtype=float)

    zs = np.empty((REF_STEPS + 1, 2))
    dzs = np.empty((REF_STEPS + 1, 2))
    t = time.perf_counter()
    zs[0] = (0.5, 0.5)
    dzs[0] = rhs(zs[0])
    for j in range(REF_STEPS):
        z, k1 = zs[j], dzs[j]
        k2 = rhs(z + (h / 2) * k1)
        k3 = rhs(z + (h / 2) * k2)
        k4 = rhs(z + h * k3)
        znext = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(znext)):
            raise RuntimeError("reference kernel blew up")
        zs[j + 1] = znext
        dzs[j + 1] = rhs(znext)
    elapsed = time.perf_counter() - t
    # z2 keeps -1/(2 z2^2) + ln z2 + c t constant; z1 relaxes to its
    # forcing c w2^2/(1+w2^2)
    def invariant(z2, t):
        return -0.5 / z2 ** 2 + np.log(z2) + c * t
    end = REF_STEPS * h
    z1_end = 0.0024 + (0.5 - 0.0024) * np.exp(-end)
    if (abs(invariant(zs[-1, 1], end) - invariant(0.5, 0.0)) > 1e-8
            or abs(zs[-1, 0] - z1_end) > 1e-8):
        raise RuntimeError(f"reference kernel went wrong: {zs[-1]}")
    return elapsed


class Reference:
    """Reference kernel times over one run (see the module docstring)."""

    def __init__(self):
        self.samples = []
        self.inside = 0.0   # seconds the timer spent in the kernel
        self._busy = False

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took, overhead
        included."""
        t = time.perf_counter()
        self.samples.append(reference_seconds())
        return time.perf_counter() - t

    def _tick(self, signum, frame):
        if self._busy:  # a tick that fires during a slow tick is dropped
            return
        self._busy = True
        try:
            self.inside += self.sample()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample every ``REF_INTERVAL_S`` seconds within the block."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def speed(self) -> float:
        """Factor from this host's seconds to reference seconds."""
        if not self.samples:  # every timed call ended before the first tick
            self.sample()
        return REF_NOMINAL_S / statistics.median(self.samples)


def run_pass(harness, steps, out_root: Path, ref=None):
    """One pass: every step through ``harness.run``.  Returns the seconds of
    each step's recipe call (only those are timed) and ``(step, status,
    out_dir)`` per step.  With a ``Reference``, samples it during each
    call and leaves the kernel's time out of the call's seconds."""
    times = {}
    outcomes = []
    for step in steps:
        out = out_root / step.label
        shutil.rmtree(out, ignore_errors=True)
        try:
            cfg = step.config
            if step.derive is not None:
                cfg = dict(cfg, run=step.derive(out_root))
        except (OSError, ValueError, IndexError) as exc:
            outcomes.append((step, f"no input: {exc}", out))
            continue
        inside = ref.inside if ref else 0.0
        with contextlib.redirect_stdout(io.StringIO()):
            t = time.perf_counter()
            with ref.sampling() if ref else contextlib.nullcontext():
                try:
                    status = harness.run(harness.ExperimentConfig.from_dict(cfg), out)
                except Exception as exc:  # a crash is a failed run, not a crash of the benchmark
                    status = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t
        times[step.label] = elapsed - ((ref.inside - inside) if ref else 0.0)
        outcomes.append((step, status, out))
    return times, outcomes


def check(outcomes, expect: dict) -> list:
    """Gate results per step: ``(label, ok, [(check, passed, detail)])``."""
    results = []
    for step, status, out in outcomes:
        checks = [("exit status", status == 0, str(status))]
        if status == 0:
            try:
                checks += step.gate(out, expect)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                checks.append(("artifacts readable", False, repr(exc)))
        results.append((step.label, all(c[1] for c in checks), checks))
    return results


def traced_pass(harness, steps, out_root: Path):
    """A pass with every layer traced; also returns the per-layer table and
    the recorder holding the spans."""
    rec = spans.Recorder()
    _, uninstall = spans.install(rec)
    try:
        times, outcomes = run_pass(harness, steps, out_root)
    finally:
        uninstall()
    table = spans.layer_table(rec)
    written = sum(f.stat().st_size for _, _, out in outcomes
                  for f in out.rglob("*") if f.is_file())
    table["harness.bytes_written"] = {"value": written, "unit": "B"}
    return times, outcomes, table, rec


def setup_probe(workload: str, seed: int) -> float:
    """Time from interpreter start-up done to configs generated."""
    import_epcag()
    WORKLOADS[workload](seed)
    return time.perf_counter() - _T0


def measure_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def upper(values: list) -> float:
    """Highest order statistic with at least ten samples above it, or the
    maximum when there are too few samples for that."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def timing_line(name: str, values: list) -> str:
    return (f"  {name:<14} median {statistics.median(values):.4f} s   "
            f"upper {upper(values):.4f} s   n={len(values)}")


def reference_line(ref: Reference) -> str:
    return (f"  reference kernel median {statistics.median(ref.samples):.4f} s"
            f" (nominal {REF_NOMINAL_S} s)   n={len(ref.samples)}")


def print_gates(gate_log: dict) -> None:
    print("gates:")
    for label, runs in gate_log.items():
        ok = sum(1 for passed, _ in runs if passed)
        print(f"  {label:<14} {ok}/{len(runs)} runs pass")
        failing = [checks for passed, checks in runs if not passed]
        for name, passed, detail in (failing[0] if failing else runs[0][1]):
            print(f"    {'ok  ' if passed else 'FAIL'} {name}: {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    import_epcag()
    from epcag import harness
    setup = measure_setup(args.workload, args.seed)

    steps = WORKLOADS[args.workload](args.seed)
    out_root = OUT / args.workload
    out_root.mkdir(parents=True, exist_ok=True)
    env = environment()

    walls, traced_walls, tables, step_times = [], [], [], []
    ref = Reference()
    gate_log = {step.label: [] for step in steps}
    attempted = failed = 0
    rec = None
    start = time.perf_counter()
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        traced = args.trace == 1 and len(traced_walls) < len(walls)
        if traced:
            times, outcomes, table, rec = traced_pass(harness, steps, out_root)
            traced_walls.append(sum(times.values()))
            tables.append(table)
        else:
            times, outcomes = run_pass(harness, steps, out_root, ref)
            walls.append(sum(times.values()))
        step_times.append({"traced": traced, "seconds": times})
        for label, ok, checks in check(outcomes, EXPECT):
            gate_log[label].append((ok, checks))
            attempted += 1
            failed += not ok
        # stop before a pass that would end after the measuring time
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        if (now - start + longest > args.seconds
                and (args.trace == 0 or traced_walls)):
            break

    correct = failed == 0
    # host seconds to reference seconds
    speed = ref.speed()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  passes {len(walls) + len(traced_walls)}")
    print_gates(gate_log)
    print(f"  fail_ratio     {failed}/{attempted} = {failed / attempted:.4g} ratio")

    if args.trace == 0:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(walls) * speed,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_mb}
        print("end-to-end (wall_s in reference seconds):")
        print(timing_line("wall_s", [w * speed for w in walls]))
        print(timing_line("setup_s", setup))
        print(f"  {'peak_rss_mb':<14} {peak_mb:.2f} MB")
        print(reference_line(ref))
        print(timing_line("raw wall_s", walls))
        metrics = spec["end_to_end"]
        record = {"walls": walls, "setup": setup, "refs": ref.samples,
                  "peak_rss_mb": peak_mb}
    else:
        counts = [{k: v["value"] for k, v in t.items() if v["unit"] != "s"}
                  for t in tables]
        if any(c != counts[0] for c in counts[1:]):
            print("error: work counts differ between traced passes of one seed")
            correct = False
        values = {k: v["value"] for k, v in tables[0].items()}
        for k, v in tables[0].items():
            if v["unit"] == "s":
                values[k] = statistics.median(t[k]["value"] for t in tables)
        overhead = (statistics.median(traced_walls)
                    - statistics.median(walls)) * speed
        values["trace.overhead_s"] = overhead
        values["trace.coverage"] = (values["trace.top_level_s"]
                                    / statistics.median(traced_walls))
        units = {k: v["unit"] for k, v in tables[0].items()}
        units.update({"trace.overhead_s": "s", "trace.coverage": "ratio"})
        print("per-layer (traced passes; times are medians):")
        for k in sorted(values):
            print(f"  {k:<40} {values[k]:.6g} {units[k]}")
        print(timing_line("untraced wall", walls))
        print(timing_line("traced wall", traced_walls))
        print(reference_line(ref))
        rec.save(out_root / "spans.npz")
        metrics = spec["per_layer"]
        record = {"walls": walls, "traced_walls": traced_walls,
                  "refs": ref.samples,
                  "table": {k: {"value": values[k], "unit": units[k]}
                            for k in sorted(values)}}

    print("env: " + json.dumps(env, sort_keys=True))
    (out_root / f"result_trace{args.trace}.json").write_text(json.dumps(
        dict(record, workload=args.workload, seed=args.seed, env=env,
             step_times=step_times,
             gates={k: [ok for ok, _ in v] for k, v in gate_log.items()},
             attempted=attempted, failed=failed), indent=2) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
