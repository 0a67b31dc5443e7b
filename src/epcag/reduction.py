"""Reduced dynamics on the center surface, companion solutions with
asymptotic phase, empirical Lyapunov classification of the trivial solution,
and the full-versus-reduced agreement check."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .analysis import ConstantsBundle, SpectralSplit, check_conditions
from .errors import (
    BlowUpError,
    ContractionFailureError,
    DegenerateDimensionError,
    DivergenceError,
    ParameterError,
    SmallnessError,
)
from .manifolds import CenterEvaluator, _PanelGrid, _block_f, _eval_g_panels, \
    _picard, _sampled_P, _snap_up, eval_G, default_stable_horizon
from .schedule import ArgumentSchedule
from .solver import HybridSystem, Trajectory, solve_forward, _locate_right_closed, \
    _march
from .solver import solve_anchor  # noqa: F401  (bench/selftest.py traces this alias)

__all__ = [
    "StabilityVerdict",
    "PhaseResult",
    "DecayReport",
    "ReductionCheckResult",
    "build_reduced",
    "asymptotic_phase",
    "classify_stability",
    "reduction_check",
]

# classify_stability's fixed thresholds, reported with every verdict
ESCAPE_FACTOR, BOUND_FACTOR, FIT_R2, MIN_EFOLDS = 10.0, 3.0, 0.98, 1.0

_VERDICT_RANK = {
    "unstable": 0,
    "inconclusive": 0,
    "stable": 1,
    "asymptotically-stable": 2,
    "exponential": 3,
}


@dataclass
class StabilityVerdict:
    """Sampled Lyapunov classification of the trivial solution.

    classification is one of unstable / stable / asymptotically-stable /
    exponential, plus "inconclusive" when excursions land between the bound
    and escape thresholds so neither claim is supported.  The lattice
    ordering exponential => asymptotically-stable => stable holds by
    construction.
    """

    classification: str
    rate: float | None
    evidence: list              # (radius, max_excursion, final_norm, horizon)
    t0_sweep: list
    fit: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def implies(self, level: str) -> bool:
        return _VERDICT_RANK[self.classification] >= _VERDICT_RANK[level]

    def as_dict(self) -> dict:
        return {
            "classification": self.classification,
            "rate": self.rate,
            "t0_sweep": [float(t) for t in self.t0_sweep],
            "evidence": [
                {"radius": r, "max_excursion": e, "final_norm": f, "horizon": h}
                for (r, e, f, h) in self.evidence
            ],
            "fit": self.fit,
            "params": self.params,
        }


@dataclass(frozen=True)
class _ReducedSystem(HybridSystem):
    """A reduced system, whose f reads the anchor's point on the center
    surface: :meth:`anchor_argument` lifts w to (G(zeta, w), w)."""

    g_eval: CenterEvaluator = None

    def anchor_argument(self, zeta, w):
        return np.concatenate([self.g_eval.at(zeta, w), w], axis=-1)


def build_reduced(sys: HybridSystem, sched: ArgumentSchedule,
                  split: SpectralSplit, g_eval: CenterEvaluator) -> HybridSystem:
    """The lower-dimensional system governing the neutral coordinates on the
    center surface: state v, linear part B_minus, nonlinearity

        (t, v, wb) -> f_minus(t, (G(t, v), v), wb)

    with G read through the memoized evaluator.  On interval i the solver
    hands it wb = (G(zeta_i, vbar), vbar), the anchor's point on the center
    surface, lifted once per interval by the system's ``anchor_argument``.
    It takes stacked rows as well as one point, with one lookup for all
    rows.  The declared Lipschitz constant l (1 + P l) uses the sampled P
    inflated by the margin 1.25 so it stays an upper bound under sampling
    error.
    """
    k = split.k
    nm = sys.dim - k
    if nm == 0:
        raise DegenerateDimensionError(
            "every direction decays (k = n); there is nothing to reduce")
    fblock = _block_f(sys.f_stacked, split)

    def f_red(t, v, wb):
        if np.ndim(v) < 2:  # one point is a stack of one row
            return f_red(np.reshape(t, 1), np.reshape(v, (1, nm)),
                         np.reshape(wb, (1, sys.dim)))[0]
        zb = np.concatenate([g_eval.at(t, v), v], axis=1)
        return fblock(t, zb, wb)[:, k:]

    P = g_eval.empirical_P()
    l = sys.lipschitz_l
    l_red = l * (1.0 + 1.25 * P * l)
    pr = float(min(np.min(g_eval.hi), np.min(-g_eval.lo)))
    pr = min(1.0, 0.5 * pr) if pr > 0 else 0.1
    mids = np.linspace(0, len(sched.zetas) - 1, 3).astype(int)
    times = tuple(float(sched.zetas[m]) for m in mids)
    return _ReducedSystem(split.B_minus, f_red, l_red, nm, probe_radius=pr,
                          probe_times=times, g_eval=g_eval)


# ---------------------------------------------------------------------------
# asymptotic phase
# ---------------------------------------------------------------------------

@dataclass
class DecayReport:
    bound: float
    max_weighted: float     # largest |z - companion| e^{alpha (t - zeta)}
    bounded: bool


@dataclass
class PhaseResult:
    companion: Trajectory
    solution: Trajectory  # through (zeta, z0): the decay report's other side
    d_star: np.ndarray
    report: DecayReport
    iterations: int
    ball_radius: float
    empirical_P: float


def asymptotic_phase(sys: HybridSystem, sched: ArgumentSchedule,
                     split: SpectralSplit, bundle: ConstantsBundle,
                     zeta: float, z0, tol: float = 1e-8, *, step: float = 0.05,
                     quad_step: float = 0.05) -> PhaseResult:
    """Companion solution on the center surface that the solution through
    (zeta, z0) approaches exponentially.

    The neutral coordinate d of the companion solves the implicit relation
    d = v0 - Ftil(zeta, u0 - G(zeta, d), d) by direct iteration from d0 = v0,
    where Ftil is the decaying-graph map of the system translated by the
    companion.  Iterates must stay in the ball |d - v0| <= |u0 - G(zeta, v0)|.
    At most 25 steps; graph evaluations stop at ``tol / 10`` or 60 sweeps,
    trajectories use anchor tolerance 1e-10, and the decay report covers
    10 theta_bound past ``zeta``.
    """
    k = split.k
    zb0 = split.to_block(np.asarray(z0, dtype=float))
    u0, v0 = zb0[:k], zb0[k:]
    picard_tol = tol / 10.0
    g_kwargs = dict(horizon=None, tol=picard_tol, max_iter=60,
                    quad_step=quad_step)

    p, K, l = bundle.p_const, split.K_const, bundle.l
    scale = max(0.1, 0.5 * float(np.linalg.norm(v0)))
    draws = v0 + np.random.default_rng(3).normal(size=(3, 2, len(v0))) * scale
    # G(zeta, v0) is solved in the draws' stacked call, ahead of them
    P, (G_v0,) = _sampled_P(
        lambda D: eval_G(sys, sched, split, bundle, zeta, D, **g_kwargs).value,
        draws, bundle.l, min_gap=1e-12, lead=v0)
    r0 = float(np.linalg.norm(u0 - G_v0))
    if 1.0 - p * P * K * l * l <= 0:
        raise SmallnessError(f"1 - pPKl^2 = {1 - p * P * K * l * l:.4g} <= 0")
    if p * K * l * (1.0 + P * l) > 1.0:
        raise SmallnessError(
            f"pKl(1 + Pl) = {p * K * l * (1 + P * l):.4g} > 1")

    fblock = _block_f(sys.f_stacked, split)
    t_traj_end = _snap_up(
        sched, zeta + default_stable_horizon(split, picard_tol))
    grid = _PanelGrid(sched, zeta, t_traj_end, quad_step)
    d = v0.copy()
    G_d = G_v0
    iterations = 0
    converged = r0 == 0.0
    for j in range(1, 26):
        if converged:
            break
        mu0 = split.from_block(np.concatenate([G_d, d]))
        mu_traj = solve_forward(sys, sched, zeta, mu0, t_traj_end, step, 1e-10)
        # the system translated by the companion: g(Z) = f(MU + Z) - f(MU),
        # one column
        MU = split.to_block(mu_traj.eval(grid.ts))[:, None]
        f_mu = _eval_g_panels(fblock, grid, MU)
        Z, _, _, (err,) = _picard(
            split.B_plus, split.B_minus,
            lambda Z: _eval_g_panels(fblock, grid, Z + MU) - f_mu,
            grid, (u0 - G_d)[None], np.zeros((1, len(v0))), picard_tol, 60)
        if err:
            raise err
        d_next = v0 - Z[0, 0, k:]
        if float(np.linalg.norm(d_next - v0)) > r0 * (1 + 1e-8) + 1e-12:
            raise ContractionFailureError(
                f"iterate left the admissible ball: |d - v0| = "
                f"{float(np.linalg.norm(d_next - v0)):.4g} > {r0:.4g}")
        delta = float(np.linalg.norm(d_next - d))
        d = d_next
        G_d = eval_G(sys, sched, split, bundle, zeta, d, **g_kwargs).value
        iterations = j
        if delta < tol:
            converged = True
    if not converged:
        raise DivergenceError(
            "companion iteration did not settle within 25 steps")

    t_rep_end = min(_snap_up(sched, zeta + 10.0 * sched.theta_bound), sched.t_max)
    mu0 = split.from_block(np.concatenate([G_d, d]))
    companion = solve_forward(sys, sched, zeta, mu0, t_rep_end, step, 1e-10)
    ztraj = solve_forward(sys, sched, zeta, np.asarray(z0, dtype=float),
                          t_rep_end, step, 1e-10)
    ts = np.linspace(zeta, t_rep_end, 201)
    diff = split.to_block(ztraj.eval(ts)) - split.to_block(companion.eval(ts))
    w = np.linalg.norm(diff, axis=1) * np.exp(bundle.alpha * (ts - zeta))
    X0 = u0 - G_d
    bound = K * (1.0 + 2.0 * p * l) * float(np.linalg.norm(X0))
    max_w = float(np.max(w))
    report = DecayReport(bound=bound, max_weighted=max_w,
                         bounded=bool(max_w <= 1.1 * bound + 1e-12))
    return PhaseResult(companion=companion, solution=ztraj, d_star=d,
                       report=report, iterations=max(iterations, 1),
                       ball_radius=r0, empirical_P=P)


# ---------------------------------------------------------------------------
# empirical stability classification
# ---------------------------------------------------------------------------

def _directions(n: int, n_random: int, rng) -> list:
    dirs = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    for _ in range(n_random):
        v = rng.normal(size=n)
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            dirs.append(v / nv)
    return dirs


def _march_star(sys, sched, t0, horizon, intervals, star, step, tol,
                max_iter) -> list:
    """March every ``(radius, direction)`` member of one start time's star
    as one stacked state.

    Returns per member ``(radius, max_excursion, final_norm, t_reached,
    escaped, envelope)``, the envelope being the ``(times since t0, norms)``
    of a member that did not escape.  A member leaves the march when it
    blows up or its excursion passes ESCAPE_FACTOR radii.  Each row's
    arithmetic is that of the member marched alone; a
    :class:`NonContractionError` is raised after the march, the one of the
    first failing member in star order.
    """
    t_end = t0 + horizon
    z0 = np.array([radius * direction for radius, direction in star])
    max_exc = [float(np.linalg.norm(z)) for z in z0]
    final_norm = list(max_exc)
    t_reached = [0.0] * len(star)
    escaped = [False] * len(star)
    env_ts = array("d", [0.0])  # compact: all envelopes are held at once
    env = [array("d", [n]) for n in max_exc]
    stalled: dict = {}
    members = np.arange(len(star))  # the member of each row still marching
    for res in _march(sys, sched, t0, z0, intervals, step, tol, max_iter):
        for q, err in zip(members, res.errors):
            if isinstance(err, BlowUpError):
                escaped[q] = True
                max_exc[q] = final_norm[q] = float("inf")
                t_reached[q] = max(t_reached[q], err.last_finite_time - t0)
            elif err is not None:
                stalled[q] = err
        rows = np.flatnonzero(res.live)
        if not rows.size:  # no member left: the march ends here
            continue
        seg = res.segment
        mask = (seg.ts >= t0 - 1e-12) & (seg.ts <= t_end + 1e-12)
        norms = np.linalg.norm(seg.zs[mask][:, rows], axis=2)
        env_ts.extend(np.asarray(seg.ts[mask]) - t0)
        reached = min(sched.theta(seg.index + 1), t_end) - t0
        for r, col, peak in zip(rows, norms.T.tolist(),
                                norms.max(axis=0).tolist()):
            q = members[r]
            env[q].extend(col)
            max_exc[q] = max(max_exc[q], peak)
            final_norm[q], t_reached[q] = col[-1], reached
            if max_exc[q] > ESCAPE_FACTOR * star[q][0]:
                escaped[q] = True
                res.live[r] = False
            elif seg.index == intervals[-1]:
                final_norm[q] = float(np.linalg.norm(seg.eval(t_end)[r]))
                t_reached[q] = horizon
        members = members[res.live]
    if stalled:
        raise stalled[min(stalled)]
    times = np.asarray(env_ts)
    return [(radius, max_exc[q], final_norm[q], t_reached[q], escaped[q],
             None if escaped[q] else (times, np.asarray(env[q])))
            for q, (radius, _) in enumerate(star)]


def classify_stability(sys: HybridSystem, sched: ArgumentSchedule,
                       radii, horizon: float, t0_samples, *, seed: int = 0,
                       final_frac: float = 0.01, n_random_dirs: int = 8,
                       step: float = 0.1, tol: float = 1e-8,
                       max_iter: int = 50) -> StabilityVerdict:
    """Classify the trivial solution by integrating stars of initial points.

    For each start time and radius a star of directions is integrated over
    the horizon.  Any excursion beyond 10 radii (or a blow-up) makes the
    verdict unstable; all excursions within 3 radii make it stable, refined
    to asymptotically-stable when every final norm is below final_frac*radius
    and to exponential when the log envelope over the latter half of the
    horizon fits a line with R^2 >= 0.98 AND the fitted rate amounts to at
    least one e-fold of decay across the fit window (algebraic tails look
    locally log-linear but only manage a fixed fraction of an e-fold there,
    whatever the horizon).  Excursions between the two thresholds yield
    "inconclusive".  The envelope is resampled on 201 points of the horizon.
    All thresholds are sampling heuristics, not proofs.
    """
    rng = np.random.default_rng(seed)
    dirs = _directions(sys.dim, n_random_dirs, rng)
    tau_grid = np.linspace(0.0, horizon, 201)
    evidence = []
    curves = []
    saw_escape = False
    all_bounded = True
    all_final_small = True

    for t0 in t0_samples:
        t_end = t0 + horizon
        if t_end > sched.t_max + 1e-9:
            raise ParameterError(
                f"horizon {horizon} from t0={t0} leaves the schedule window "
                f"(ends at {sched.t_max})")
        intervals = range(sched.interval_index(t0),
                          _locate_right_closed(sched, t_end) + 1)
        star = _march_star(sys, sched, t0, horizon, intervals,
                           [(r, d) for r in radii for d in dirs], step, tol,
                           max_iter)
        for radius, max_exc, final_norm, t_reached, escaped, env in star:
            if escaped:
                saw_escape = True
                all_bounded = False
                all_final_small = False
            else:
                if max_exc > BOUND_FACTOR * radius:
                    all_bounded = False
                if final_norm > final_frac * radius:
                    all_final_small = False
                env_ts, env_ns = env
                order = np.argsort(env_ts)
                curves.append(np.interp(tau_grid, env_ts[order],
                                        env_ns[order]) / radius)
            evidence.append((float(radius), max_exc, final_norm,
                             float(t_reached)))

    fit: dict = {}
    rate = None
    if saw_escape:
        classification = "unstable"
    elif not all_bounded:
        classification = "inconclusive"
    else:
        classification = "stable"
        if all_final_small:
            classification = "asymptotically-stable"
            envelope = np.max(np.vstack(curves), axis=0)
            mask = tau_grid >= horizon / 2.0
            y = np.log(np.maximum(envelope[mask], 1e-300))
            x = tau_grid[mask]
            slope, intercept = np.polyfit(x, y, 1)
            resid = y - (slope * x + intercept)
            ss_tot = float(np.sum((y - np.mean(y)) ** 2))
            r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
            efolds = -slope * (horizon - horizon / 2.0)
            fit = {"slope": float(slope), "intercept": float(intercept),
                   "r_squared": r2, "efolds_over_window": float(efolds)}
            if r2 >= FIT_R2 and slope < 0 and efolds >= MIN_EFOLDS:
                classification = "exponential"
                rate = float(-slope)
    return StabilityVerdict(
        classification=classification, rate=rate, evidence=evidence,
        t0_sweep=list(t0_samples), fit=fit,
        params={"radii": list(map(float, radii)), "horizon": float(horizon),
                "escape_factor": ESCAPE_FACTOR, "bound_factor": BOUND_FACTOR,
                "final_frac": final_frac, "fit_r2": FIT_R2,
                "min_efolds": MIN_EFOLDS, "seed": seed, "step": step},
    )


# ---------------------------------------------------------------------------
# the reduction-principle check
# ---------------------------------------------------------------------------

@dataclass
class ReductionCheckResult:
    full: StabilityVerdict
    reduced: StabilityVerdict
    agree: bool

    def as_dict(self) -> dict:
        return {"full": self.full.as_dict(), "reduced": self.reduced.as_dict(),
                "agree": bool(self.agree)}


def _effective(classification: str) -> str:
    # the reduced neutral system cannot exhibit the exponential refinement
    return ("asymptotically-stable" if classification == "exponential"
            else classification)


def reduction_check(sys: HybridSystem, sched: ArgumentSchedule,
                    split: SpectralSplit, bundle: ConstantsBundle,
                    g_eval: CenterEvaluator, *, radii, horizon, t0_samples,
                    seed: int = 0, **classify_kwargs) -> ReductionCheckResult:
    """Classify the full system and its reduced neutral system with matched
    parameters; agreement compares verdicts with the exponential refinement
    collapsed onto asymptotic stability.  The paper's hypotheses are checked
    first, with 100 probes, and any failing one raises ParameterError."""
    report = check_conditions(sys, sched, split, bundle, probes=100, seed=seed)
    failing = [e.name for e in report.entries if not e.passed]
    if failing:
        raise ParameterError(
            f"hypotheses not satisfied on this system: {failing}")
    reduced = build_reduced(sys, sched, split, g_eval)
    full_verdict = classify_stability(sys, sched, radii, horizon, t0_samples,
                                      seed=seed, **classify_kwargs)
    reduced_verdict = classify_stability(reduced, sched, radii, horizon,
                                         t0_samples, seed=seed,
                                         **classify_kwargs)
    agree = _effective(full_verdict.classification) == _effective(
        reduced_verdict.classification)
    return ReductionCheckResult(full=full_verdict, reduced=reduced_verdict,
                                agree=agree)
