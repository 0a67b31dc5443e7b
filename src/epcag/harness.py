"""Experiment front-end: config parsing, the built-in nonlinearity catalog,
named recipes, and artifact writing (CSVs, JSON report, manifest).

Every catalog nonlinearity takes one state or stacked states, one row per
point (the contract in :mod:`epcag.solver`).  It computes on Python floats
for one state and on numpy columns for stacked states, with the same
operations, so a stacked call equals its per-row calls bit for bit."""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import check_conditions, compute_constants, spectral_split
from .errors import (
    BlowUpError,
    ConfigError,
    EpcagError,
    NonContractionError,
    ScheduleValidationError,
    ScheduleWindowError,
)
from .manifolds import CenterEvaluator, eval_F, eval_G
from .reduction import asymptotic_phase, classify_stability, reduction_check
from .schedule import ArgumentSchedule, make_schedule
from .solver import (
    HybridSystem,
    solve_backward,
    solve_forward,
    trajectory_report,
    write_trajectory_csv,
)

__all__ = ["ExperimentConfig", "run", "catalog_list", "build_system",
           "schedule_from_dict", "RECIPES"]

RECIPES = ("simulate", "continue-backward", "manifold-F", "manifold-G",
           "phase", "stability", "reduce", "conditions", "example1")


# ---------------------------------------------------------------------------
# nonlinearity catalog
# ---------------------------------------------------------------------------

# Components are read through _cols: Python floats for one state (less
# dispatch per call), numpy columns for stacked states.  Both are the same
# IEEE arithmetic.  They are combined with products and ufuncs, never
# powers: numpy rounds a power of an array and of a single number
# differently.  Overflow gives inf or nan, never an exception: the only
# denominators are 1 + x*x.

def _cols(x):
    """The components of one state ``(n,)`` as Python floats, or of stacked
    rows ``(m, n)`` as columns."""
    return x.tolist() if x.ndim == 1 else x.T


def _sat_cubic(x):
    x2 = x * x
    return x2 * x / (1.0 + x2)


def _sat_square(x):
    x2 = x * x
    return x2 / (1.0 + x2)


def _make_zero(params, dim):
    return (lambda t, z, w: np.zeros(np.shape(z))), 0.0


def _make_example1_quadratic(params, dim):
    if dim != 1:
        raise ConfigError("example1-quadratic is scalar (dim 1)")
    radius = float(params.get("radius", 15.0))

    def f(t, z, w):
        w0 = _cols(w)[0]
        return np.array([-(w0 * w0)]).T

    return f, 2.0 * radius


def _make_epca_linear(params, dim):
    b = float(params["b"])

    def f(t, z, w):
        return b * np.asarray(w, dtype=float)

    return f, abs(b)


def _make_tanh_coupled(params, dim):
    if dim != 2:
        raise ConfigError("tanh-coupled needs dim 2 (one decaying, one neutral)")
    amp = float(params["amp"])

    def f(t, z, w):
        rate = amp * np.tanh(_cols(w)[0])
        return np.array([rate - rate, rate]).T   # rate - rate: zeros like rate

    return f, abs(amp)


def _make_center_cubic(params, dim):
    if dim != 2:
        raise ConfigError("center-cubic needs dim 2 (one decaying, one neutral)")
    a = float(params["a"])
    eps = float(params.get("eps", a))
    sign = float(params.get("sign", -1.0))
    if sign not in (-1.0, 1.0):
        raise ConfigError("center-cubic sign must be +1 or -1")

    def f(t, z, w):
        return np.array([eps * _sat_square(_cols(w)[1]),
                         sign * a * _sat_cubic(_cols(z)[1])]).T

    return f, max(1.125 * abs(a), 0.6495 * abs(eps))


_CATALOG = {
    "zero": {
        "factory": _make_zero,
        "params": {},
        "lipschitz": "l = 0",
        "doc": "f identically zero (any dimension)",
    },
    "example1-quadratic": {
        "factory": _make_example1_quadratic,
        "params": {"radius": "domain radius R (default 15)"},
        "lipschitz": "l = 2R on |w| <= R (only locally Lipschitz)",
        "doc": "scalar f(t,z,w) = -w^2",
    },
    "epca-linear": {
        "factory": _make_epca_linear,
        "params": {"b": "coupling coefficient"},
        "lipschitz": "l = |b|",
        "doc": "f(t,z,w) = b w (linear anchored coupling, any dimension)",
    },
    "tanh-coupled": {
        "factory": _make_tanh_coupled,
        "params": {"amp": "amplitude a"},
        "lipschitz": "l = |a|",
        "doc": "2-d f = a (0, tanh(w_1)): the neutral rate is fed by the "
               "anchored decaying component",
    },
    "center-cubic": {
        "factory": _make_center_cubic,
        "params": {"a": "cubic coefficient", "eps": "coupling (default a)",
                   "sign": "-1 damped / +1 anti-damped (default -1)"},
        "lipschitz": "l = max(1.125 |a|, 0.6495 |eps|)",
        "doc": "2-d f = (eps w_2^2/(1+w_2^2), sign a z_2^3/(1+z_2^2)): "
               "saturated cubic on the neutral direction with weak coupling "
               "into the decaying one",
    },
}


def catalog_list() -> list:
    """Names, parameter schemas and Lipschitz formulas of the built-in
    nonlinearities."""
    return [
        {"name": name, "params": dict(entry["params"]),
         "lipschitz": entry["lipschitz"], "doc": entry["doc"]}
        for name, entry in sorted(_CATALOG.items())
    ]


def build_system(system_cfg: dict) -> HybridSystem:
    try:
        A = np.atleast_2d(np.asarray(system_cfg["matrix"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"system.matrix invalid: {exc}") from exc
    dim = A.shape[0]
    if A.shape != (dim, dim):
        raise ConfigError(f"system.matrix must be square, got {A.shape}")
    nl = system_cfg.get("nonlinearity", {"name": "zero", "params": {}})
    if not isinstance(nl, dict):
        raise ConfigError(f"system.nonlinearity must be an object, got {nl!r}")
    name = nl.get("name")
    if not isinstance(name, str) or name not in _CATALOG:
        raise ConfigError(
            f"unknown nonlinearity {name!r}; catalog: {sorted(_CATALOG)}")
    try:
        f, l = _CATALOG[name]["factory"](nl.get("params", {}), dim)
        if "lipschitz_l" in system_cfg and system_cfg["lipschitz_l"] is not None:
            l = float(system_cfg["lipschitz_l"])
        probe_radius = float(system_cfg.get("probe_radius", 1.0))
        if name == "example1-quadratic":
            probe_radius = float(nl.get("params", {}).get("radius", 15.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"system parameters invalid ({type(exc).__name__}: "
                          f"{exc})") from exc
    return HybridSystem(A, f, l, dim, probe_radius=probe_radius)


# ---------------------------------------------------------------------------
# schedule config
# ---------------------------------------------------------------------------

def schedule_from_dict(cfg: dict) -> ArgumentSchedule:
    try:
        kind = cfg["kind"]
        params = {k: v for k, v in cfg.items() if k != "kind"}
        if kind in ("epca", "alternating", "randomized"):
            params["window"] = tuple(params["window"])
        return make_schedule(kind, **params)
    except (KeyError, TypeError, ValueError, ScheduleValidationError) as exc:
        raise ConfigError(f"schedule config invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

_SOLVER_DEFAULTS = {"step": 0.05, "tol": 1e-8, "max_iter": 50}
_MANIFOLD_DEFAULTS = {
    "tol": 1e-8, "quad_step": 0.05, "cache_box": 2.0, "cache_resolution": 9,
    "time_period": None, "time_subdiv": 4,
}
_STABILITY_DEFAULTS = {
    "radii": [0.1, 0.01, 0.001], "horizon": None, "t0_samples": None,
    "final_frac": 0.01, "n_random_dirs": 8, "step": 0.1,
}
# every section value is finite and lies above 0, or above the bound listed
# in _ABOVE (n_random_dirs >= 0, cache_resolution >= 2); a count is also at
# most its bound in _AT_MOST.  A step lays at most _MAX_NODES nodes on the
# longest interval of the schedule.
_ABOVE = {"n_random_dirs": -1, "cache_resolution": 1,
          "t0_samples": -math.inf, "cache_box": -math.inf}
_AT_MOST = {"n_random_dirs": 1000}
_MAX_NODES = 100_000
_SECTIONS = frozenset({"recipe", "system", "schedule", "solver", "manifold",
                       "stability", "run", "seed"})
_STEPS = (("solver", "step"), ("stability", "step"), ("manifold", "quad_step"))


def _integer(val) -> int:
    """``val`` as an int; a non-integral or non-finite number is an error."""
    if isinstance(val, int):
        return int(val)
    f = float(val)
    if not f.is_integer():
        raise ValueError("must be an integer")
    return int(f)


def _number(key: str, val):
    """A section value read as the type its key takes."""
    if key in ("radii", "t0_samples"):
        if len(val) == 0:
            raise ValueError("needs at least one entry")
        return [float(v) for v in val]
    if key == "cache_box":  # one half-width, or (lo, hi) per coordinate
        return np.asarray(val, dtype=float).tolist()
    if key in ("max_iter", "cache_resolution", "time_subdiv", "n_random_dirs"):
        return _integer(val)
    return float(val)


def _merged(defaults: dict, given: dict, section: str) -> dict:
    """Defaults updated by the given section, every value read as a finite
    number above its bound in ``_ABOVE`` (0 if unlisted); null stays null
    only where the default is null."""
    out = dict(defaults)
    if not isinstance(given or {}, dict):
        raise ConfigError(f"{section} must be an object, got {given!r}")
    for key, val in (given or {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown key {section}.{key}")
        out[key] = val
    for key, val in out.items():
        if val is None and defaults[key] is None:
            continue
        try:
            out[key] = _number(key, val)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{section}.{key} = {val!r} is not numeric: "
                              f"{exc}") from exc
        vals = np.asarray(out[key], dtype=float)
        above, at_most = _ABOVE.get(key, 0), _AT_MOST.get(key, math.inf)
        if not (np.all(np.isfinite(vals)) and np.all(vals > above)
                and np.all(vals <= at_most)):
            raise ConfigError(f"{section}.{key} = {val!r} must be finite"
                              + (f" and > {above}" if above > -math.inf else "")
                              + (f" and <= {at_most}" if at_most < math.inf
                                 else ""))
    return out


@dataclass
class ExperimentConfig:
    recipe: str
    system: dict
    schedule: dict
    solver: dict
    manifold: dict
    stability: dict
    run_params: dict
    seed: int = 0

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        unknown = sorted(set(cfg) - _SECTIONS, key=str)
        if unknown:
            raise ConfigError(f"unknown top-level key(s) {unknown}; a config "
                              f"takes {sorted(_SECTIONS)}")
        recipe = cfg.get("recipe")
        if recipe not in RECIPES:
            raise ConfigError(f"recipe must be one of {RECIPES}, got {recipe!r}")
        if recipe != "example1" and "schedule" not in cfg:
            raise ConfigError("config needs a 'schedule' section")
        if recipe != "example1" and "system" not in cfg:
            raise ConfigError("config needs a 'system' section")
        solver = _merged(_SOLVER_DEFAULTS, cfg.get("solver", {}), "solver")
        manifold = _merged(_MANIFOLD_DEFAULTS, cfg.get("manifold", {}), "manifold")
        stability = _merged(_STABILITY_DEFAULTS, cfg.get("stability", {}),
                            "stability")
        val = cfg.get("seed", 0)
        try:
            seed = _integer(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed = {val!r} must be an integer: {exc}") from exc
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        return cls(
            recipe=recipe,
            system=cfg.get("system", {}),
            schedule=cfg.get("schedule", {}),
            solver=solver,
            manifold=manifold,
            stability=stability,
            run_params=cfg.get("run", {}),
            seed=seed,
        )

    def describe(self) -> dict:
        return {
            "recipe": self.recipe, "system": self.system,
            "schedule": self.schedule, "solver": self.solver,
            "manifold": self.manifold, "stability": self.stability,
            "run": self.run_params, "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# recipe plumbing
# ---------------------------------------------------------------------------

def _write_manifest(cfg: ExperimentConfig, out_dir):
    lines = [
        f"timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
        f"epcag_version: {__version__}",
        f"python: {platform.python_version()}",
        f"numpy: {np.__version__}",
        f"seed: {cfg.seed}",
        "config: " + json.dumps(cfg.describe(), sort_keys=True),
    ]
    (out_dir / "manifest").write_text("\n".join(lines) + "\n")


def _write_report(out_dir, payload: dict):
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2,
                                                    sort_keys=True) + "\n")


def _error_record(err: Exception) -> dict:
    module = type(err).__module__.split(".")[-1]
    tags = {
        "BlowUpError": "solver", "NonContractionError": "solver",
        "ScheduleWindowError": "schedule", "ScheduleValidationError": "schedule",
        "SpectrumError": "analysis", "ConditioningError": "analysis",
        "ParameterError": "analysis", "SmallnessError": "manifolds",
        "DivergenceError": "manifolds", "BoxExceededError": "manifolds",
        "EnvelopeError": "manifolds", "SystemValidationError": "solver",
        "DegenerateDimensionError": "reduction",
        "ContractionFailureError": "reduction", "ConfigError": "harness",
    }
    rec = {"type": type(err).__name__, "message": str(err),
           "module": tags.get(type(err).__name__, module)}
    for attr in ("interval", "last_finite_time", "ratios", "deltas", "excess"):
        if hasattr(err, attr):
            val = getattr(err, attr)
            if isinstance(val, (list, tuple)):
                val = [float(v) for v in val]
            rec[attr] = val
    return rec


def _analysis_stack(sys, sched):
    split = spectral_split(sys.A)
    return split, compute_constants(sys.A, split, sched, sys.lipschitz_l)


def _default_t0_samples(sched: ArgumentSchedule, horizon: float):
    """Five start times spread over the anchors that leave room for the
    horizon."""
    ok = [float(z) for z in sched.zetas if z + horizon <= sched.t_max + 1e-9]
    if not ok:
        raise ConfigError(
            f"no start time admits horizon {horizon} inside the schedule window")
    idx = np.unique(np.linspace(0, len(ok) - 1, 5).astype(int))
    return [ok[j] for j in idx]


def run(config: ExperimentConfig, out_dir) -> int:
    """Execute the configured recipe, writing artifacts into out_dir.

    Returns 0 on success, 1 on an internal error (any other exception),
    2 on configuration errors, 3 on numerical failures; failures leave a
    machine-readable error record in report.json, an internal error's with
    module "internal" and the formatted traceback.
    """
    import traceback
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(config, out_dir)
    try:
        _write_report(out_dir, _dispatch(config, out_dir))
    except ConfigError as err:
        _write_report(out_dir, {"error": _error_record(err)})
        return 2
    except EpcagError as err:
        _write_report(out_dir, {"error": _error_record(err)})
        return 3
    except Exception as err:
        _write_report(out_dir, {"error": {
            "type": type(err).__name__, "message": str(err),
            "module": "internal", "traceback": traceback.format_exc()}})
        return 1
    return 0


def _dispatch(cfg: ExperimentConfig, out_dir) -> dict:
    sched = (make_schedule("alternating", window=(-2, 3))
             if cfg.recipe == "example1" else schedule_from_dict(cfg.schedule))
    for section, key in _STEPS:
        step = getattr(cfg, section)[key]
        if sched.theta_bound / step > _MAX_NODES:
            raise ConfigError(
                f"{section}.{key} = {step!r} lays more than {_MAX_NODES} nodes "
                f"on an interval of length {sched.theta_bound:g}")
    if cfg.recipe == "example1":
        return _recipe_example1(cfg, sched, out_dir)
    sys = build_system(cfg.system)
    if cfg.recipe == "simulate":
        return _recipe_simulate(cfg, sys, sched, out_dir, forward=True)
    if cfg.recipe == "continue-backward":
        return _recipe_simulate(cfg, sys, sched, out_dir, forward=False)
    if cfg.recipe == "conditions":
        return _recipe_conditions(cfg, sys, sched)
    if cfg.recipe == "manifold-F":
        return _recipe_manifold(cfg, sys, sched, out_dir, kind="F")
    if cfg.recipe == "manifold-G":
        return _recipe_manifold(cfg, sys, sched, out_dir, kind="G")
    if cfg.recipe == "phase":
        return _recipe_phase(cfg, sys, sched, out_dir)
    if cfg.recipe == "stability":
        return _recipe_stability(cfg, sys, sched)
    if cfg.recipe == "reduce":
        return _recipe_reduce(cfg, sys, sched)
    raise ConfigError(f"unhandled recipe {cfg.recipe!r}")


def _check_z0(z0: np.ndarray, dim: int):
    if z0.shape != (dim,) or not np.all(np.isfinite(z0)):
        raise ConfigError(f"run.z0 must be {dim} finite numbers, got {z0.tolist()}")


def _recipe_simulate(cfg, sys, sched, out_dir, forward: bool) -> dict:
    rp = cfg.run_params
    key = "t_end" if forward else "t_start"
    try:
        t0 = float(rp["t0"])
        z0 = np.asarray(rp["z0"], dtype=float)
        t1 = float(rp.get(key, sched.t_max if forward else sched.t_min))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"run.t0 / run.z0 / run.{key} invalid: {exc}") from exc
    _check_z0(z0, sys.dim)
    if not (t0 < t1 if forward else t1 < t0):
        raise ConfigError(f"run.{key} = {t1} must lie "
                          f"{'after' if forward else 'before'} run.t0 = {t0}")
    sv = cfg.solver
    solve = solve_forward if forward else solve_backward
    traj = solve(sys, sched, t0, z0, t1, sv["step"], sv["tol"], sv["max_iter"])
    name = f"trajectory_{'forward' if forward else 'backward'}.csv"
    write_trajectory_csv(traj, out_dir / name)
    return {"trajectory": trajectory_report(traj), "csv": name}


def _recipe_conditions(cfg, sys, sched) -> dict:
    split, bundle = _analysis_stack(sys, sched)
    report = check_conditions(sys, sched, split, bundle, seed=cfg.seed)
    print(report.table())
    out = report.as_dict()
    out["constants"] = {
        "Omega": bundle.Omega, "M": bundle.M_up, "m": bundle.m_low,
        "sigma": split.sigma, "alpha": bundle.alpha, "gamma": bundle.gamma,
        "K": split.K_const, "m_pow": split.m_pow, "p": bundle.p_const,
        "two_p_l": 2 * bundle.p_const * bundle.l,
    }
    return out


def _grid_1d(grid_cfg: dict) -> np.ndarray:
    """``count`` points from ``lo`` to ``hi``: finite ends, at most 1,000
    points, checked before the grid is laid."""
    lo = float(grid_cfg.get("lo", -1.0))
    hi = float(grid_cfg.get("hi", 1.0))
    count = _integer(grid_cfg.get("count", 21))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"lo and hi must be finite, got {lo} and {hi}")
    if not 1 <= count <= 1000:
        raise ValueError(f"count must lie in [1, 1000], got {count}")
    return np.linspace(lo, hi, count)


def _recipe_manifold(cfg, sys, sched, out_dir, kind: str) -> dict:
    mf = cfg.manifold
    rp = cfg.run_params
    try:
        i = _integer(rp.get("anchor_index", sched.i_min))
        zeta = sched.zeta(i)
        grid = _grid_1d(rp.get("grid", {}))
    except (AttributeError, TypeError, ValueError, OverflowError,
            ScheduleWindowError) as exc:
        raise ConfigError(f"run.anchor_index / run.grid invalid: {exc}") from exc
    split, bundle = _analysis_stack(sys, sched)
    coord_dim = split.k if kind == "F" else sys.dim - split.k
    if coord_dim != 1:
        raise ConfigError(
            f"manifold grid dumps support one-dimensional graphs; the "
            f"{'decaying' if kind == 'F' else 'neutral'} block has dimension "
            f"{coord_dim}")
    res = (eval_F if kind == "F" else eval_G)(
        sys, sched, split, bundle, zeta, grid[:, None], tol=mf["tol"],
        quad_step=mf["quad_step"])
    diag = [{"coord": float(x), "iterates": it, "last_delta": last}
            for x, it, last in zip(grid, res.iterates, res.last_delta)]
    name = f"manifold_{kind}.csv"
    header = ("c_1," if kind == "F" else "v_1,") + ",".join(
        (f"F_{j + 1}" if kind == "F" else f"G_{j + 1}")
        for j in range(res.value.shape[1]))
    lines = [header]
    for x, val in zip(grid, res.value):
        lines.append(",".join([repr(float(x))] + [repr(float(v)) for v in val]))
    (out_dir / name).write_text("\n".join(lines) + "\n")
    return {"anchor_index": i, "anchor_time": zeta, "csv": name,
            "evaluations": diag,
            "lipschitz_bound": float(
                bundle.p_const * split.K_const * bundle.l)}


def _recipe_phase(cfg, sys, sched, out_dir) -> dict:
    rp = cfg.run_params
    try:
        z0 = np.asarray(rp["z0"], dtype=float)
        zeta = sched.zeta(_integer(rp.get("anchor_index", sched.i_min)))
    except (KeyError, TypeError, ValueError, OverflowError,
            ScheduleWindowError) as exc:
        raise ConfigError(f"run.z0 / run.anchor_index invalid: {exc}") from exc
    _check_z0(z0, sys.dim)
    split, bundle = _analysis_stack(sys, sched)
    res = asymptotic_phase(sys, sched, split, bundle, zeta, z0,
                           tol=cfg.manifold["tol"], step=cfg.solver["step"],
                           quad_step=cfg.manifold["quad_step"])
    write_trajectory_csv(res.companion, out_dir / "trajectory_companion.csv")
    write_trajectory_csv(res.solution, out_dir / "trajectory_solution.csv")
    return {
        "anchor_time": zeta,
        "d_star": [float(v) for v in res.d_star],
        "iterations": res.iterations,
        "ball_radius": res.ball_radius,
        "empirical_P": res.empirical_P,
        "decay": {"bound": res.report.bound,
                  "max_weighted_distance": res.report.max_weighted,
                  "bounded": res.report.bounded},
    }


def _stability_kwargs(cfg, sched):
    st = dict(cfg.stability)
    horizon = st.pop("horizon")
    if horizon is None:
        horizon = 20.0 * sched.theta_bound
    t0_samples = st.pop("t0_samples")
    if t0_samples is None:
        t0_samples = _default_t0_samples(sched, horizon)
    radii = st.pop("radii")
    return radii, horizon, t0_samples, st


def _recipe_stability(cfg, sys, sched) -> dict:
    radii, horizon, t0_samples, kw = _stability_kwargs(cfg, sched)
    verdict = classify_stability(sys, sched, radii, horizon, t0_samples,
                                 seed=cfg.seed, tol=cfg.solver["tol"],
                                 max_iter=cfg.solver["max_iter"], **kw)
    print(f"classification: {verdict.classification}"
          + (f" (rate {verdict.rate:.4g})" if verdict.rate else ""))
    return {"verdict": verdict.as_dict()}


def _recipe_reduce(cfg, sys, sched) -> dict:
    split, bundle = _analysis_stack(sys, sched)
    mf = cfg.manifold
    radii, horizon, t0_samples, kw = _stability_kwargs(cfg, sched)
    g_eval = CenterEvaluator(
        sys, sched, split, bundle, box=mf["cache_box"],
        resolution=mf["cache_resolution"], tol=mf["tol"],
        quad_step=mf["quad_step"], time_period=mf["time_period"],
        time_subdiv=mf["time_subdiv"])
    result = reduction_check(sys, sched, split, bundle, g_eval, radii=radii,
                             horizon=horizon, t0_samples=t0_samples,
                             seed=cfg.seed, tol=cfg.solver["tol"],
                             max_iter=cfg.solver["max_iter"], **kw)
    width = 24
    print(f"{'':{width}}{'full':<24}reduced")
    print(f"{'classification':{width}}{result.full.classification:<24}"
          f"{result.reduced.classification}")
    print(f"{'agree':{width}}{result.agree}")
    return result.as_dict()


def _recipe_example1(cfg, sched, out_dir) -> dict:
    """Continuation pathologies of the anchored quadratic equation
    z' = 3 z - z(beta(t))^2 on the alternating schedule: a data point with no
    forward continuation, and two distinct solutions colliding at t = 1 so
    the backward continuation from the collision point is non-unique."""
    try:
        x0 = float(cfg.run_params.get("x0", -10.0))
        z0v = float(cfg.run_params.get("z0", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"run.x0 / run.z0 must be numbers: {exc}") from exc
    A = np.array([[3.0]])
    f, l = _CATALOG["example1-quadratic"]["factory"]({"radius": 15.0}, 1)
    sys = HybridSystem(A, f, l, 1, probe_radius=15.0)
    sv = cfg.solver
    e3 = math.exp(3.0)

    # forward non-continuation from (t, x0) = (-1, -10): the anchor value
    # w = z(0) must solve  (e^3 - 1) w^2 + 3 w - 3 e^3 x0 = 0  (variation of
    # constants for z' = 3 z - w^2 from t = -1 to 0); for x0 = -10 the
    # discriminant is negative, so no real anchor exists.
    qa, qb, qc = e3 - 1.0, 3.0, -3.0 * e3 * x0
    disc = qb * qb - 4.0 * qa * qc
    forward = {"x0": x0, "quadratic": [qa, qb, qc], "discriminant": disc,
               "real_anchor_exists": bool(disc >= 0)}
    try:
        solve_forward(sys, sched, -1.0, np.array([x0]), 1.0, sv["step"],
                      sv["tol"], sv["max_iter"])
        forward["outcome"] = "continued"
    except NonContractionError as err:
        forward["outcome"] = "non-continuation"
        forward["diagnostic"] = _error_record(err)
    except BlowUpError as err:
        forward["outcome"] = "blow-up"
        forward["diagnostic"] = _error_record(err)

    # backward non-uniqueness: pick z0 + z1 = 3 e^3/(e^3 - 1) so the two
    # interval solutions z' = 3 z - z_j^2 from t = 0 collide at t = 1.
    z1v = 3.0 * e3 / (e3 - 1.0) - z0v
    endpoint = lambda zj: e3 * zj - zj**2 * (e3 - 1.0) / 3.0
    collide = abs(endpoint(z0v) - endpoint(z1v))
    traj0 = solve_forward(sys, sched, 0.0, np.array([z0v]), 1.0, sv["step"],
                          sv["tol"])
    traj1 = solve_forward(sys, sched, 0.0, np.array([z1v]), 1.0, sv["step"],
                          sv["tol"])
    write_trajectory_csv(traj0, out_dir / "trajectory_branch0.csv")
    write_trajectory_csv(traj1, out_dir / "trajectory_branch1.csv")
    num_collide = abs(float(traj0.eval(1.0)[0] - traj1.eval(1.0)[0]))
    backward = {
        "z0": z0v, "z1": z1v,
        "closed_form_endpoint_gap": collide,
        "numerical_endpoint_gap": num_collide,
        "collision_value": endpoint(z0v),
    }
    try:
        traj_b = solve_backward(sys, sched, 1.0, np.array([endpoint(z0v)]),
                                -1.0, sv["step"], sv["tol"], sv["max_iter"])
        backward["outcome"] = ("nonuniqueness-warning"
                               if traj_b.nonuniqueness_warning else "continued")
    except NonContractionError as err:
        backward["outcome"] = "non-uniqueness (iteration diverged)"
        backward["diagnostic"] = _error_record(err)
    return {"forward_noncontinuation": forward,
            "backward_nonuniqueness": backward}
