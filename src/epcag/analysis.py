"""Spectral block splitting of the linear part and every explicit constant
and smallness inequality used by the solver and manifold constructions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, SpectrumError, ConditioningError
from .schedule import ArgumentSchedule
from .solver import HybridSystem

__all__ = [
    "SpectralSplit",
    "ConstantsBundle",
    "ConditionEntry",
    "ConditionReport",
    "spectral_split",
    "compute_constants",
    "check_conditions",
    "fit_growth_constant",
]


@dataclass(frozen=True)
class SpectralSplit:
    """Block decomposition of A into a decaying block and a neutral block.

    ``transform @ A @ inverse(transform)`` is block diagonal with B_plus
    (eigenvalues with negative real part, dimension k) first and B_minus
    (eigenvalues on the imaginary axis, dimension n-k) second.  sigma is a
    certified decay exponent for exp(B_plus t); K_const and m_pow bound the
    two matrix exponentials on a sampled grid:

        |exp(B_plus t)|  <= K_const exp(-sigma t)
        |exp(-B_minus t)| <= K_const (1 + t**m_pow)      for t >= 0.

    The center-graph map works under the exponential shift z e^{kappa t}
    with kappa = sigma / 2 and weight exponent kappa_bar = 0.9 kappa;
    K_shifted bounds the shifted blocks B + kappa I the same way with weight
    e^{-kappa_bar t}.
    """

    k: int
    transform: np.ndarray
    B_plus: np.ndarray
    B_minus: np.ndarray
    sigma: float
    K_const: float
    m_pow: int
    mu: float = field(default=float("nan"))

    @property
    def dim(self) -> int:
        return self.k + self.B_minus.shape[0]

    @property
    def transform_inv(self) -> np.ndarray:
        return np.linalg.inv(self.transform)

    def to_block(self, z: np.ndarray) -> np.ndarray:
        """Block coordinates of a state or of stacked state rows."""
        return (self.transform @ np.asarray(z, dtype=float).T).T

    def from_block(self, zh: np.ndarray) -> np.ndarray:
        """Original coordinates of a block vector or of stacked block rows."""
        return (self.transform_inv @ np.asarray(zh, dtype=float).T).T

    @property
    def is_identity_transform(self) -> bool:
        return np.allclose(self.transform, np.eye(self.dim), atol=1e-13)

    @property
    def kappa(self) -> float:
        return self.sigma / 2.0

    @property
    def kappa_bar(self) -> float:
        return 0.9 * self.kappa

    @cached_property
    def K_shifted(self) -> float:
        """Growth constant of the shifted blocks on [0, 60], fitted once per
        split: every center-graph evaluation of a run asks for it."""
        weight = lambda t: math.exp(-self.kappa_bar * t)
        nm = self.B_minus.shape[0]
        return fit_growth_constant(self.B_plus + self.kappa * np.eye(self.k),
                                   self.B_minus + self.kappa * np.eye(nm),
                                   weight, weight, 60.0)


@dataclass(frozen=True)
class ConstantsBundle:
    """The explicit constants entering the contraction and manifold bounds,
    plus the pass/fail record of the smallness inequalities."""

    Omega: float
    M_up: float
    m_low: float
    alpha: float
    gamma: float
    p_const: float
    c5_pass: tuple
    c10_pass: bool
    l: float
    theta: float
    c5_values: tuple = ()

    @property
    def c5_all(self) -> bool:
        return all(self.c5_pass)


def _max_jordan_block(B: np.ndarray, tol: float = 1e-7) -> int:
    """Largest Jordan-block size over all eigenvalues, from rank stabilization
    of powers of (B - lambda I)."""
    n = B.shape[0]
    if n == 0:
        return 0
    lams = np.linalg.eigvals(B)
    scale = max(1.0, float(np.linalg.norm(B, 2)))
    centers = []
    for lam in lams:
        if not any(abs(lam - c) <= 10 * tol * scale for c in centers):
            centers.append(lam)
    largest = 1
    for lam in centers:
        N = B.astype(complex) - lam * np.eye(n)
        prev = n
        P = np.eye(n, dtype=complex)
        size = n
        for j in range(1, n + 1):
            P = P @ N
            r = np.linalg.matrix_rank(P, tol=tol * scale**j if scale > 0 else None)
            if r == prev:
                size = j - 1
                break
            prev = r
            size = j
        largest = max(largest, size)
    return largest


def _sampled_sup(B: np.ndarray, weight, T_check: float) -> float:
    """max over a 400-step t-grid of |exp(B t)| / weight(t), via repeated
    squaring-free stepping exp(B (j dt)) = E^j."""
    if B.shape[0] == 0:
        return 0.0
    import scipy.linalg as sla  # deferred: most of epcag's import time
    steps = 400
    dt = T_check / steps
    E = sla.expm(B * dt)
    powers = [np.eye(B.shape[0])]
    for _ in range(steps):
        powers.append(E @ powers[-1])
    norms = np.linalg.norm(np.array(powers), 2, axis=(1, 2))
    return float(max(nj / weight(j * dt) for j, nj in enumerate(norms)))


def fit_growth_constant(B_plus: np.ndarray, B_minus: np.ndarray, w_plus, w_minus,
                        T_check: float) -> float:
    """Numerically fitted K with 10% inflation (grid gaps absorbed):
    |exp(B_plus t)| <= K w_plus(t) and |exp(-B_minus t)| <= K w_minus(t)
    on [0, T_check]."""
    r1 = _sampled_sup(B_plus, w_plus, T_check)
    r2 = _sampled_sup(-B_minus, w_minus, T_check)
    return 1.1 * max(1.0, r1, r2)


def spectral_split(A: np.ndarray) -> SpectralSplit:
    """Order-and-split A into its decaying and neutral blocks.

    Every eigenvalue must satisfy Re < -1e-7 or |Re| <= 1e-7; anything
    with Re > 1e-7 is rejected (the constructions assume no expanding
    directions).  The change of basis comes from an ordered real Schur form
    with the coupling block removed by a Sylvester solve.  The decay rate
    is sigma = |mu| / 2 for the slowest decaying eigenvalue real part mu
    (1 when nothing decays), and the growth constant is fitted over
    [0, 20 / sigma].
    """
    tol_eig = 1e-7
    import scipy.linalg as sla  # deferred: most of epcag's import time
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    lams = np.linalg.eigvals(A)
    if np.any(lams.real > tol_eig):
        bad = lams[lams.real > tol_eig]
        raise SpectrumError(
            f"eigenvalue(s) with positive real part: {bad}; "
            "outside the admissible spectrum"
        )
    stable_mask = lams.real < -tol_eig
    k = int(np.sum(stable_mask))
    mu = float(np.max(lams.real[stable_mask])) if k > 0 else float("-inf")

    S = np.eye(n)
    if k in (0, n):
        T, Z = sla.schur(A, output="real")
    else:
        T, Z, sdim = sla.schur(A, output="real", sort=lambda re, im: re < -tol_eig)
        if sdim != k:
            raise SpectrumError(
                f"Schur ordering placed {sdim} eigenvalues in the decaying "
                f"block, expected {k}"
            )
        T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
        S[:k, k:] = sla.solve_sylvester(T11, -T22, -T12)
    # A = Z T Z^T, T = S diag S^{-1}  =>  transform = S^{-1} Z^T
    transform = np.linalg.solve(S, Z.T)
    cond = np.linalg.cond(transform)
    if cond > 1e8:
        raise ConditioningError(
            f"block-diagonalizing transform has condition number {cond:.3g}"
        )
    D = transform @ A @ np.linalg.inv(transform)
    B_plus = D[:k, :k].copy()
    B_minus = D[k:, k:].copy()

    sigma = abs(mu) / 2.0 if k > 0 else 1.0

    m_pow = max(0, _max_jordan_block(B_minus) - 1)
    K_const = fit_growth_constant(B_plus, B_minus, lambda t: math.exp(-sigma * t),
                                  lambda t: 1.0 + t**m_pow, 20.0 / sigma)
    return SpectralSplit(
        k=k, transform=transform, B_plus=B_plus, B_minus=B_minus,
        sigma=float(sigma), K_const=K_const, m_pow=m_pow, mu=mu,
    )


def _exp(y: float) -> float:
    """e^y, inf where it overflows a float (math.exp raises there)."""
    return math.exp(y) if y < 709.0 else math.inf


def gamma_closed_form(alpha: float, m_pow: int) -> float:
    """integral over [0, inf) of (1 + t**m) e^{-alpha t} dt."""
    return 1.0 / alpha + math.factorial(m_pow) / alpha ** (m_pow + 1)


def compute_constants(A: np.ndarray, split: SpectralSplit,
                      sched: ArgumentSchedule, l: float,
                      alpha: float | None = None) -> ConstantsBundle:
    """Fill the constants bundle and evaluate the smallness inequalities.

    Omega is the spectral norm of A (a certified exponent for |exp(At)|);
    the three contraction inequalities and the manifold smallness 2 p l < 1
    are each recorded separately.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sigma, K, m_pow = split.sigma, split.K_const, split.m_pow
    if alpha is None:
        alpha = sigma / 2.0
    if not (0 < alpha < sigma):
        raise ParameterError(f"alpha must lie in (0, sigma={sigma}), got {alpha}")
    theta = float(sched.theta_bound)
    Omega = float(np.linalg.norm(A, 2))
    M = _exp(Omega * theta)
    m_low = math.exp(-Omega * theta)
    gamma = gamma_closed_form(alpha, m_pow)
    p = K * (1.0 + _exp(alpha * theta)) * (1.0 / (sigma - alpha) + gamma)

    x = M * l * theta
    xe = x * _exp(x)   # inf or nan when the constants overflow: c5 fails
    v1 = xe
    v2 = 2.0 * x
    if xe < 1.0:
        v3 = M * x * ((xe + 1.0) / (1.0 - xe) + xe)
    else:
        v3 = float("inf")
    c5 = (v1 < 1.0, v2 < 1.0, v3 < m_low)
    c10 = 2.0 * p * l < 1.0
    return ConstantsBundle(
        Omega=Omega, M_up=M, m_low=m_low, alpha=float(alpha), gamma=gamma,
        p_const=p, c5_pass=c5, c10_pass=bool(c10), l=float(l), theta=theta,
        c5_values=(v1, v2, v3),
    )


@dataclass
class ConditionEntry:
    name: str
    passed: bool
    detail: dict


@dataclass
class ConditionReport:
    entries: list

    def entry(self, name: str) -> ConditionEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def passed(self, *names: str) -> bool:
        if not names:
            return all(e.passed for e in self.entries)
        return all(self.entry(n).passed for n in names)

    def as_dict(self) -> dict:
        return {
            "entries": [
                {"name": e.name, "passed": bool(e.passed), "detail": e.detail}
                for e in self.entries
            ]
        }

    def table(self) -> str:
        width = max(len(e.name) for e in self.entries)
        lines = [f"{'condition':<{width + 2}}status   note"]
        for e in self.entries:
            note = e.detail.get("note", "")
            status = "pass" if e.passed else "FAIL"
            lines.append(f"{e.name:<{width + 2}}{status:<9}{note}")
        return "\n".join(lines)


def check_conditions(sys: HybridSystem, sched: ArgumentSchedule,
                     split: SpectralSplit, bundle: ConstantsBundle,
                     probes: int = 200, seed: int = 0) -> ConditionReport:
    """One entry per structural/smallness condition; failures are recorded,
    never raised."""
    rng = np.random.default_rng(seed)
    n = sys.dim
    entries = []

    # Monte-Carlo Lipschitz probe and origin check for the nonlinearity.
    t_lo, t_hi = sched.t_min, sched.t_max
    samples = []
    for _ in range(probes):
        t = float(rng.uniform(t_lo, t_hi))
        samples.append((t, *(rng.normal(size=(4, n)) * (sys.probe_radius / 2.0))))
    max_ratio, max_origin, lip_ok, origin_ok = sys.probe_f(
        [s[0] for s in samples], samples)
    entries.append(ConditionEntry(
        "lipschitz-nonlinearity", bool(lip_ok and origin_ok),
        {"probe_ratio": max_ratio, "declared_l": sys.lipschitz_l,
         "origin_residual": max_origin,
         "note": f"probe ratio {max_ratio:.3g} vs l={sys.lipschitz_l:.3g}"},
    ))

    lams = np.linalg.eigvals(sys.A)
    k = split.k
    center = lams[np.argsort(lams.real)][k:] if k < n else np.array([])
    center_on_axis = bool(np.all(np.abs(center.real) <= 1e-7)) if k < n else True
    entries.append(ConditionEntry(
        "neutral-spectrum-on-axis", center_on_axis,
        {"k": k, "mu": split.mu,
         "note": f"k={k} decaying, {n - k} neutral eigenvalue(s); "
         + ("all non-decaying eigenvalues have zero real part"
            if center_on_axis else "non-decaying eigenvalue off the axis")},
    ))

    v1, v2, v3 = bundle.c5_values
    margin = (bundle.m_low - v3) / bundle.m_low if np.isfinite(v3) else float("-inf")
    entries.append(ConditionEntry(
        "contraction-smallness", bundle.c5_all,
        {"values": [v1, v2, v3], "m_low": bundle.m_low,
         "near_boundary": bool(bundle.c5_all and (
             v1 > 0.9 or v2 > 0.9 or margin < 0.1)),
         "note": f"xe^x={v1:.3g}, 2x={v2:.3g}, third={v3:.3g} vs m={bundle.m_low:.3g}"},
    ))
    entries.append(ConditionEntry(
        "manifold-smallness", bundle.c10_pass,
        {"two_p_l": 2 * bundle.p_const * bundle.l,
         "note": f"2pl = {2 * bundle.p_const * bundle.l:.3g}"},
    ))

    # Vanishing Jacobian of f at the origin, by central differences; f
    # reads each anchor value through the system's anchor_argument.
    h = 1e-5
    thresh = 10.0 * sys.lipschitz_l * h
    worst = 0.0
    t_samples = np.linspace(t_lo, t_hi, 5)
    zero, lift = np.zeros(n), sys.anchor_argument
    for t in t_samples:
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            dz = (np.asarray(sys.f(t, e, lift(t, zero)))
                  - np.asarray(sys.f(t, -e, lift(t, zero)))) / (2 * h)
            dw = (np.asarray(sys.f(t, zero, lift(t, e)))
                  - np.asarray(sys.f(t, zero, lift(t, -e)))) / (2 * h)
            worst = max(worst, float(np.max(np.abs(dz))), float(np.max(np.abs(dw))))
    c6_ok = worst <= thresh
    entries.append(ConditionEntry(
        "flat-origin-jacobian", bool(c6_ok),
        {"max_derivative": worst, "threshold": thresh,
         "note": f"max |df(0)| = {worst:.3g} vs {thresh:.3g}"},
    ))
    return ConditionReport(entries=entries)
