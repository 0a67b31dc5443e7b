"""Construction of the forward-decaying surface (graph map F) and the
backward-bounded center surface (graph map G) by successive approximation of
their integral equations, with truncated improper integrals.

All quadrature runs on panel grids aligned to the schedule breakpoints, so
each panel sees a single anchor value and the piecewise-smooth integrands are
integrated at full order.  A grid is a set of arrays laid out in one
vectorized pass: the window is cut at every breakpoint and anchor inside it,
and each panel between two cuts gets an even number of uniform sub-steps no
longer than the quadrature step.  Each sweep samples the nonlinearity on every
panel node in one stacked call, ``f(t, Z, W)`` with one row per node (see
:mod:`epcag.solver` for the contract).  Kernel-weighted composite Simpson
rules then propagate the cumulative integrals in one pass, a few matrix
products per panel shape with one d-by-d step per panel end.  Their kernel
tables are built once per successive approximation, one per distinct panel
shape, and shared by all of its sweeps.

:func:`eval_F` and :func:`eval_G` take one coordinate vector or stacked
rows, points at one anchor.  Stacked rows share the grid, the kernel tables
and one successive approximation, each row a column of every sweep.  A
column is frozen at the sweep where its own change drops below the
tolerance, so it gets the value, deltas and error of its call alone.
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .analysis import ConstantsBundle, SpectralSplit
from .errors import (BoxExceededError, ConfigError, DivergenceError,
                     EnvelopeError, ParameterError, SmallnessError)
from .schedule import ArgumentSchedule
from .solver import HybridSystem, solve_forward

__all__ = [
    "ManifoldApprox",
    "eval_F",
    "eval_G",
    "verify_surface_invariance",
    "CenterEvaluator",
    "InvarianceReport",
    "stable_tail_bound",
    "default_stable_horizon",
]


@dataclass
class ManifoldApprox:
    """Result of one graph-map evaluation.

    ``iterates`` is the index m of the final increment (the change from the
    m-th to the (m+1)-th approximation), so the recorded ``last_delta`` obeys
    the geometric bound K |c| (2pl)^m for the stable kind.

    For m stacked rows, ``value`` has a row and ``zs`` (N, m, n) a column
    per input row, ``iterates`` and ``last_delta`` are lists, and
    ``column_deltas`` holds each row's deltas, those of its own call.
    ``deltas`` has one entry per sweep run (the largest delta of the rows
    still open), so its length counts the sweeps; for one vector it is that
    vector's deltas.
    """

    iterates: int | list
    lipschitz_bound: float
    last_delta: float | list
    value: np.ndarray
    ts: np.ndarray
    zs: np.ndarray
    deltas: list = field(default_factory=list)
    column_deltas: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# panel grids and kernel-weighted cumulative quadrature
# ---------------------------------------------------------------------------

class _PanelGrid:
    """Nodes ``ts`` over [t_lo, t_hi], cut at every breakpoint and anchor
    inside: panel p has ``n_sub[p]`` (even) sub-steps of ``delta[p]`` from
    node ``start[p]``, its node q is a_p + q delta_p (the value of
    ``np.linspace``) and its anchor is node ``beta_idx[p]``.  The
    nonlinearity is sampled panel by panel, so a node shared by two panels
    is sampled twice: ``rows`` holds each sample's node, ``betas`` its
    anchor's node, ``offsets`` where each panel's samples start and then
    the sample count.
    """

    def __init__(self, sched: ArgumentSchedule, t_lo: float, t_hi: float,
                 max_h: float):
        if not t_lo < t_hi:
            raise ParameterError(f"empty quadrature window [{t_lo}, {t_hi}]")
        if not max_h > 0:
            raise ParameterError(f"quadrature step must be positive, got {max_h}")
        marks = np.concatenate([sched.thetas, sched.zetas])
        cuts = np.unique(np.concatenate(
            [[t_lo, t_hi], marks[(t_lo < marks) & (marks < t_hi)]]))
        a, b, panels = cuts[:-1], cuts[1:], np.arange(len(cuts) - 1)
        mids = 0.5 * (a + b)
        for mid in mids[(mids < sched.t_min) | (mids > sched.t_max)][:1]:
            sched.interval_index(float(mid))  # raises ScheduleWindowError
        p = np.minimum(np.searchsorted(sched.thetas, mids, side="right") - 1,
                       len(sched.zetas) - 1)
        t_beta = sched.zetas[p]
        self.n_sub = n_sub = 2 * np.maximum(
            1, np.ceil((b - a) / (2 * max_h) - 1e-12).astype(int))
        self.delta = (b - a) / n_sub
        ends = np.concatenate([[0], np.cumsum(n_sub)])
        self.start = ends[:-1]
        of = np.repeat(panels, n_sub)  # the panel of each node but the first
        q = np.arange(1, ends[-1] + 1) - self.start[of]
        self.ts = ts = np.concatenate([[t_lo], q * self.delta[of] + a[of]])
        ts[ends[1:]] = b  # each panel ends on its cut exactly, as np.linspace
        # the anchor's node: the nearer of the two around it, within 1e-10
        j = np.clip(np.searchsorted(ts, t_beta), 1, len(ts) - 1)
        j -= t_beta - ts[j - 1] < ts[j] - t_beta
        far = np.abs(ts[j] - t_beta) > 1e-10
        if far.any():
            bad = int(np.argmax(far))
            raise ParameterError(
                f"anchor time {float(t_beta[bad])} of interval "
                f"{sched.i_min + int(p[bad])} is not covered by the quadrature "
                f"window [{t_lo}, {t_hi}]")
        self.beta_idx = j
        self.rows = np.arange(ends[-1] + len(a)) - np.repeat(panels, n_sub + 1)
        self.betas = np.repeat(j, n_sub + 1)
        self.offsets = ends + np.arange(len(cuts))


def _panel_table(B: np.ndarray, delta: float, n_sub: int):
    """Kernels of one panel shape, transposed to act on rows: E1 = e^{B delta},
    E2 = E1^2 and E1^{-1}; E2^h (h = n_sub / 2), untransposed; the powers
    E2^1..E2^(h-1) side by side; and the lower-triangular block-Toeplitz
    matrix of E2^(q - r), q >= r."""
    import scipy.linalg as sla  # deferred: most of epcag's import time
    d, h = B.shape[0], n_sub // 2
    E1 = sla.expm(B * delta)
    E1inv = sla.expm(-B * delta)
    E2 = E1 @ E1
    powers = [np.eye(d)]
    for _ in range(h):
        powers.append(powers[-1] @ E2)
    lag = np.subtract.outer(np.arange(h), np.arange(h))
    T = np.stack(powers[:h])[np.maximum(lag, 0)] * (lag >= 0)[:, :, None, None]
    return (delta, E1.T, E2.T, E1inv.T, powers[h], np.vstack(powers[:h])[d:].T,
            T.transpose(0, 2, 1, 3).reshape(h * d, h * d).T)


def _sweep_tables(B: np.ndarray, grid: _PanelGrid, backward: bool = False):
    """Sweep kernels of ``B`` on ``grid``: ``(N, d, ends, steps, groups)``.

    The panels are taken in the order the sweep visits them; with
    ``backward`` they are those of the mirrored-time recursion on -B (see
    :func:`_sweep`), their samples those of the reversed sample array.
    ``ends`` holds the node where each panel starts, then the last node;
    ``steps`` the propagator E2^h over each panel.  ``groups`` has one entry
    per distinct panel shape (delta, n_sub): its kernel table, the sweep
    positions of its panels, and per panel the sample indices, the interior
    even nodes and the odd nodes.
    """
    d = B.shape[0]
    ends, offs = np.append(grid.start, len(grid.ts) - 1), grid.offsets
    n_sub, delta = grid.n_sub, grid.delta
    if backward:
        B = -B
        ends, offs = ends[-1] - ends[::-1], offs[-1] - offs[::-1]
        n_sub, delta = n_sub[::-1], delta[::-1]
    if d == 0:  # nothing to propagate
        return len(grid.ts), d, ends, [], []
    shapes: dict = {}
    for pos, (dl, n) in enumerate(zip(delta.tolist(), n_sub.tolist())):
        shapes.setdefault((round(dl, 15), n), []).append(pos)
    groups, steps = [], np.empty((len(n_sub), d, d))
    for (_, n), where in shapes.items():
        table = _panel_table(B, delta[where[0]], n)
        steps[where] = table[4]
        q = np.arange(n + 1)
        start = ends[where][:, None]
        groups.append((table, where, offs[where][:, None] + q,
                       start + q[2:-1:2], start + q[1::2]))
    return len(grid.ts), d, ends, steps, groups


def _sweep(tables, gvals, x0, backward: bool = False):
    """X(t_j) = e^{B(t_j - t_0)} x0 + cumulative integral of
    e^{B(t_j - s)} g(s) ds from t_0, fourth order, with the kernels of
    ``tables`` (:func:`_sweep_tables` of B on the grid) and the samples
    ``gvals`` of g in the grid's sample order (``_PanelGrid.rows``), for m
    columns at once: ``gvals`` is ``(S, m, d)``, ``x0`` is ``(m, d)`` and
    X is ``(N, m, d)``.

    Each panel of 2h sub-steps is one composite Simpson rule weighted by the
    kernel: with c_r = (delta/3)(E2 g_2r + 4 E1 g_2r+1 + g_2r+2), its even
    nodes are x_2r = E2^r x_0 + sum_{s<r} E2^(r-1-s) c_s, and its odd nodes
    follow from the even node before them.  All panels of one shape are done
    together: first their c and sums, then the panel ends one after another
    (x_2h = E2^h x_0 + the last sum, a d-by-d step per panel and column),
    then their other even nodes and their odd nodes.  Every product acts on
    one column's d-vector as a row of a matrix product (:func:`_rows_times`),
    so a column's values do not depend on the others.

    With ``backward`` the start value ``x0`` is X(t_N) and
    X(t_j) = e^{B(t_j - t_N)} x0 - integral over [t_j, t_N]: the same
    recursion in mirrored time s -> -s, run on -B over the reversed panels
    with the samples reversed and negated, its output reversed back.
    """
    n_nodes, d, ends, steps, groups = tables
    m = len(x0)
    X = np.zeros((n_nodes, m, d))
    if d == 0:
        return X
    if backward:
        gvals = -gvals[::-1]
    sums = np.empty((len(steps), m, d, 1))    # the last sum of each panel
    parts = []
    for (dl, E1t, E2t, E1invt, _, _, Tt), where, samples, _, _ in groups:
        g = gvals[samples]                 # (panels, 2h + 1, m, d)
        gE1, gE2, gE1inv = (_rows_times(g.reshape(-1, d), E).reshape(g.shape)
                            for E in (E1t, E2t, E1invt))
        c = (dl / 3.0) * (gE2[:, :-1:2] + 4.0 * gE1[:, 1::2] + g[:, 2::2])
        Tc = _rows_times(c.swapaxes(1, 2).reshape(len(where) * m, -1),
                         Tt).reshape(len(where), m, -1)
        sums[where] = Tc[..., -d:, None]
        parts.append((Tc[..., :-d], (dl / 12.0) * (
            5.0 * gE1[:, :-1:2] + 8.0 * g[:, 1::2] - gE1inv[:, 2::2])))
    X[0] = x0
    x, xends = X[0, ..., None], np.empty_like(sums)   # columns as d-by-1
    for p, E2h in enumerate(steps):
        x = xends[p] = E2h @ x + sums[p]
    X[ends[1:]] = xends[..., 0]
    for (table, where, _, even, odd), (Tc, odd_part) in zip(groups, parts):
        E1t, Pt = table[1], table[5]
        x = X[ends[where]]
        Xe = X[even] = (_rows_times(x.reshape(-1, d), Pt).reshape(Tc.shape)
                        + Tc).reshape(len(where), m, -1, d).swapaxes(1, 2)
        prev = np.concatenate([x[:, None], Xe], axis=1)   # even node before
        X[odd] = odd_part + _rows_times(prev.reshape(-1, d), E1t).reshape(
            prev.shape)
    return X[::-1] if backward else X


def _rows_times(X, E):
    """``X @ E`` for rows ``X``.  One row is multiplied as a stack of two:
    alone it would go to the matrix-vector kernel, which rounds differently,
    and a row's value must not depend on how many rows share the product."""
    return X @ E if len(X) > 1 else (np.concatenate([X, X]) @ E)[:1]


def _eval_g_panels(fblock, grid: _PanelGrid, Z: np.ndarray):
    """fblock(t_j, Z_j, Z(beta(t_j))) at every sample of every column of
    ``Z`` (shape ``(N, m, n)``), in one stacked call with one row per sample
    and column; returns ``(S, m, n)``."""
    S, m, n = len(grid.rows), Z.shape[1], Z.shape[2]
    return fblock(np.repeat(grid.ts[grid.rows], m),
                  Z[grid.rows].reshape(S * m, n),
                  Z[grid.betas].reshape(S * m, n)).reshape(S, m, n)


def _block_f(f, split: SpectralSplit):
    """The nonlinearity ``f`` written in the block coordinates of the split.
    Each row is mapped with its own matrix-vector product, so one state or
    stacked rows go through as ``f`` takes them, and a stacked row is
    bitwise the one-state value (a matrix-matrix product rounds
    differently)."""
    if split.is_identity_transform:
        return lambda t, z, w: np.asarray(f(t, z, w), dtype=float)
    T, Tinv = split.transform, split.transform_inv

    def fblock(t, z, w):
        out = np.asarray(f(t, (Tinv @ z[..., None])[..., 0],
                           (Tinv @ w[..., None])[..., 0]), dtype=float)
        return (T @ out[..., None])[..., 0]

    return fblock


def _snap_up(sched: ArgumentSchedule, t: float) -> float:
    i = sched.interval_index(t)
    return sched.theta(i + 1)


def _snap_down(sched: ArgumentSchedule, t: float) -> float:
    return sched.theta(sched.interval_index(t))


# ---------------------------------------------------------------------------
# the forward-decaying surface
# ---------------------------------------------------------------------------

def default_stable_horizon(split: SpectralSplit, tol: float) -> float:
    """Truncation length with the tail factor K e^{-sigma T} pushed below tol."""
    return math.log(split.K_const / tol) / split.sigma


def stable_tail_bound(split: SpectralSplit, bundle: ConstantsBundle,
                      c_norm: float, horizon: float) -> float:
    """Analytic bound on the tail of the graph-map integral beyond the
    truncation horizon, for an on-surface start of size c_norm."""
    K, a, m, th, l = (split.K_const, bundle.alpha, split.m_pow,
                      bundle.theta, bundle.l)
    T = horizon
    tail_poly = sum(math.factorial(m) / math.factorial(j) * T**j / a ** (m + 1 - j)
                    for j in range(m + 1))
    tail = math.exp(-a * T) * (1.0 / a + tail_poly)
    return 2.0 * K**2 * l * c_norm * (1.0 + math.exp(a * th)) * tail


_MAX_COLUMNS = 7  # columns per sweep: wider stacks cost memory, gain little


def _picard(Bp, Bm, g, grid: _PanelGrid, u0, v_end, tol, max_iter, weight=1.0):
    """Successive approximation of the split integral system on ``grid``
    for the m columns of the starts ``u0`` (m, k) and ``v_end`` (m, n - k).

    From the zero iterate, each sweep maps the samples Z (N, m, n) to the
    nonlinearity's samples ``g(Z)`` (S, m, n, in the grid's sample order),
    then integrates the first block forward from ``u0`` at t_0 and the
    second backward from ``v_end`` at t_N.  A column stops when its weighted
    change max_j weight_j |dZ_j| drops below ``tol`` and fails with a
    :class:`DivergenceError` when that change stops decreasing or
    ``max_iter`` sweeps pass.  Stopped columns are frozen and the open ones
    swept at most ``_MAX_COLUMNS`` at a time, so each gets the samples and
    deltas of its run alone.  Returns Z, the largest delta of each sweep,
    and per column its deltas and error (None when it converged).
    """
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    k, m = Bp.shape[0], len(u0)
    Z = np.zeros((len(grid.ts), m, k + Bm.shape[0]))
    fwd = _sweep_tables(Bp, grid)
    bwd = _sweep_tables(Bm, grid, backward=True)
    weight = np.reshape(weight, (-1, 1))
    sweeps, deltas, errors = [], [[] for _ in range(m)], [None] * m
    for first in range(0, m, _MAX_COLUMNS):
        cols = np.arange(first, min(first + _MAX_COLUMNS, m))
        Zc, uc, vc = Z[:, cols], u0[cols], v_end[cols]   # the open columns
        for it in range(max_iter):
            gv = g(Zc)
            Znew = np.concatenate([_sweep(fwd, gv[..., :k], uc),
                                   _sweep(bwd, gv[..., k:], vc, backward=True)],
                                  axis=2)
            step = np.max(weight * np.linalg.norm(Znew - Zc, axis=2),
                          axis=0).tolist()
            Zc = Znew
            sweeps.append(max(step))
            for c, delta in zip(cols.tolist(), step):
                seq = deltas[c]
                seq.append(delta)
                if len(seq) > 1 and delta >= seq[-2] and delta > tol:
                    errors[c] = DivergenceError(
                        f"non-decreasing sweep deltas at m={it}: {seq[-3:]}", seq)
            still = np.array([errors[c] is None and not deltas[c][-1] < tol
                              for c in cols.tolist()])
            if not still.all():   # freeze the columns that stopped
                Z[:, cols] = Zc
                cols, Zc, uc, vc = cols[still], Zc[:, still], uc[still], vc[still]
                if not len(cols):
                    break
        Z[:, cols] = Zc
        for c in cols.tolist():
            errors[c] = DivergenceError(
                f"no convergence within {max_iter} sweeps (last delta "
                f"{deltas[c][-1]:.3g})", deltas[c])
    return Z, sweeps, deltas, errors


def _check_envelope(norms, env, tol, size, label):
    """Raise :class:`EnvelopeError` when sampled norms exceed the analytic
    envelope by more than the quadrature slack for a start of norm size."""
    slack = max(20.0 * tol, 1e-9 * (1.0 + size))
    if not np.all(norms <= env + slack):
        excess = float(np.max(norms - env))
        raise EnvelopeError(f"{label} envelope violated: max excess {excess:.3g}",
                            excess)


def _graph_map(stable: bool, sys: HybridSystem, sched: ArgumentSchedule,
               split: SpectralSplit, bundle: ConstantsBundle, zeta: float, x,
               horizon, tol, max_iter, quad_step) -> ManifoldApprox:
    """The graph-map core of :func:`eval_F` (``stable``) and :func:`eval_G`:
    one coordinate vector ``x`` or stacked rows ``(m, width)``, all solved
    on one grid by one :func:`_picard` run.  Each column is checked against
    its decay envelope; the first failing column in input order raises its
    error, the one its own call raises."""
    if not bundle.c10_pass:
        raise SmallnessError(
            f"2pl = {2 * bundle.p_const * bundle.l:.4g} >= 1: the graph-map "
            "iteration is not guaranteed to contract")
    k, nm = split.k, split.B_minus.shape[0]
    if stable:
        K, rate = split.K_const, bundle.alpha
        lipschitz, name, width = bundle.p_const * K * bundle.l, "c", k
    else:
        kappa, kappa_bar, K = split.kappa, split.kappa_bar, split.K_shifted
        alpha1 = kappa_bar / 4.0
        theta = bundle.theta
        l_shift = bundle.l * math.exp(kappa * theta)
        p_bar = K * (1.0 + math.exp(alpha1 * theta)) * (
            1.0 / (kappa_bar + alpha1) + 1.0 / (kappa_bar - alpha1))
        if 2.0 * p_bar * l_shift >= 1.0:
            raise SmallnessError(
                f"shifted smallness fails: 2 p_bar l e^(kappa theta) = "
                f"{2 * p_bar * l_shift:.4g} >= 1 (shifted Lipschitz constant "
                f"{l_shift:.4g})")
        rate, lipschitz, name, width = kappa - alpha1, p_bar * K * l_shift, "d", nm
    if horizon is None:
        horizon = math.log(K / max(tol, 1e-12)) / split.sigma
    fblock = _block_f(sys.f_stacked, split)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lone = x.ndim == 1
    X = x[None] if lone else x
    if X.ndim != 2 or X.shape[1] != width or not len(X):
        raise ParameterError(f"{name} must have length {width} or shape "
                             f"(m, {width}), got shape {x.shape}")
    zeros = np.zeros((len(X), nm if stable else k))
    if stable:
        grid = _PanelGrid(sched, zeta, _snap_up(sched, zeta + horizon), quad_step)
        starts, weight = (X, zeros), 1.0
    else:
        grid = _PanelGrid(sched, _snap_down(sched, zeta - horizon), zeta,
                          quad_step)
        starts, weight = (zeros, X), np.exp(kappa * grid.ts)
    Z, sweeps, deltas, errors = _picard(
        split.B_plus, split.B_minus, lambda Z: _eval_g_panels(fblock, grid, Z),
        grid, *starts, tol, max_iter, weight=weight)
    decay = np.exp(-rate * (grid.ts - zeta))
    for c, row in enumerate(X):
        size = float(np.linalg.norm(row))
        if errors[c] is None:
            try:
                _check_envelope(np.linalg.norm(Z[:, c], axis=1),
                                2.0 * K * size * decay, tol, size,
                                "decay" if stable else "backward")
            except EnvelopeError as err:
                errors[c] = err
    for err in filter(None, errors):
        raise err   # the first failing column's
    one = (lambda a: a[0]) if lone else (lambda a: a)
    zs = split.from_block(Z.reshape(-1, k + nm)).reshape(Z.shape)
    return ManifoldApprox(
        iterates=one([len(seq) - 1 for seq in deltas]),
        lipschitz_bound=lipschitz, last_delta=one([seq[-1] for seq in deltas]),
        value=one((Z[0, :, k:] if stable else Z[-1, :, :k]).copy()),
        ts=grid.ts.copy(), zs=zs[:, 0] if lone else zs, deltas=sweeps,
        column_deltas=deltas)


def eval_F(sys: HybridSystem, sched: ArgumentSchedule, split: SpectralSplit,
           bundle: ConstantsBundle, zeta: float, c, horizon: float | None = None,
           tol: float = 1e-8, max_iter: int = 60,
           quad_step: float = 0.05) -> ManifoldApprox:
    """Graph value of the forward-decaying surface at (zeta, c) and the
    decaying solution built along the way.

    ``c`` and the returned value live in the block coordinates of the split
    (the decaying and neutral components respectively); the returned sample
    path ``zs`` is mapped back to original coordinates.  ``c`` is one
    vector of length k or stacked rows (m, k), solved together (see the
    module docstring and :class:`ManifoldApprox`).
    """
    return _graph_map(True, sys, sched, split, bundle, zeta, c, horizon, tol,
                      max_iter, quad_step)


# ---------------------------------------------------------------------------
# the backward-bounded center surface
# ---------------------------------------------------------------------------

def eval_G(sys: HybridSystem, sched: ArgumentSchedule, split: SpectralSplit,
           bundle: ConstantsBundle, zeta: float, d, horizon: float | None = None,
           tol: float = 1e-8, max_iter: int = 60,
           quad_step: float = 0.05) -> ManifoldApprox:
    """Graph value of the center surface at (zeta, d) from the
    backward-truncated integral system over [zeta - horizon, zeta].

    The exponential shift eta(t) = z(t) e^{kappa t}, kappa = sigma / 2, turns
    the neutral block into an expanding one: its blocks are B_plus + kappa I
    and B_minus + kappa I and its nonlinearity has Lipschitz constant
    l e^{kappa theta}.  The shift gives the contraction constants (growth
    constant ``split.K_shifted`` with weight exponent ``split.kappa_bar``)
    and the sweep norm max_j e^{kappa t_j} |z_j|; the successive
    approximation runs on the unshifted blocks, which gives the same iterates
    because the kernel-weighted quadrature commutes with the shift.  The
    envelope exponent is alpha1 = kappa_bar / 4.

    ``d`` is one vector of length n - k or stacked rows (m, n - k).
    """
    return _graph_map(False, sys, sched, split, bundle, zeta, d, horizon, tol,
                      max_iter, quad_step)


# ---------------------------------------------------------------------------
# invariance verification
# ---------------------------------------------------------------------------

@dataclass
class InvarianceReport:
    defects: list                  # (interval j, zeta_j, |v - F(zeta_j, u)|)
    off_surface_min_v: float

    @property
    def max_defect(self) -> float:
        return max(d for _, _, d in self.defects) if self.defects else 0.0


def verify_surface_invariance(sys: HybridSystem, sched: ArgumentSchedule,
                              split: SpectralSplit, bundle: ConstantsBundle,
                              i: int, c, span: int, step: float = 0.05,
                              tol: float = 1e-8,
                              manifold_tol: float = 1e-8) -> InvarianceReport:
    """Start on the surface at anchor i, march forward and re-check the graph
    relation at the next ``span`` anchors; also run one start pushed off the
    surface by 0.1 and record that its neutral component does not decay over
    the next 5 time units.
    """
    delta_off, off_window = 0.1, 5.0
    zeta_i = sched.zeta(i)
    k = split.k
    res = eval_F(sys, sched, split, bundle, zeta_i, c, tol=manifold_tol)
    zb0 = np.concatenate([np.atleast_1d(np.asarray(c, dtype=float)), res.value])
    z0 = split.from_block(zb0)
    t_end = sched.zeta(i + span)
    traj = solve_forward(sys, sched, zeta_i, z0, t_end, step, tol)

    defects = []
    for j in range(i + 1, i + span + 1):
        zj = sched.zeta(j)
        zb = split.to_block(traj.eval(zj))
        u_j, v_j = zb[:k], zb[k:]
        rj = eval_F(sys, sched, split, bundle, zj, u_j, tol=manifold_tol)
        defects.append((j, zj, float(np.linalg.norm(v_j - rj.value))))

    # off-surface start: push the neutral component and watch it persist
    nm = sys.dim - k
    off = zb0.copy()
    if nm > 0:
        e = np.zeros(nm)
        e[0] = 1.0
        off[k:] = off[k:] + delta_off * e
    t_off_end = min(zeta_i + off_window, sched.t_max)
    traj_off = solve_forward(sys, sched, zeta_i, split.from_block(off),
                             t_off_end, step, tol)
    ts = np.linspace(zeta_i, t_off_end, 101)
    v_off = [np.linalg.norm(split.to_block(traj_off.eval(t))[k:]) for t in ts]
    return InvarianceReport(defects=defects,
                            off_surface_min_v=float(min(v_off)))


def _sampled_P(graph, draws, l: float, min_gap: float, lead=()):
    """Largest |graph(d1) - graph(d2)| / |d1 - d2| over the pairs in
    ``draws`` (shape (pairs, 2, n)), divided by l; pairs closer than
    ``min_gap`` are skipped.  ``graph`` takes stacked rows and is called
    once, on the rows ``lead`` followed by both points of every kept pair in
    pair order.  Returns the ratio and the graph's values at ``lead``."""
    gaps = [float(np.linalg.norm(d1 - d2)) for d1, d2 in draws]
    kept = [p for p, gap in enumerate(gaps) if not gap < min_gap]
    lead = np.reshape(lead, (-1, draws.shape[2]))
    rows = np.concatenate([lead, draws[kept].reshape(-1, draws.shape[2])])
    vals = graph(rows) if len(rows) else rows
    best = 0.0
    pairs = vals[len(lead):]
    for p, g1, g2 in zip(kept, pairs[0::2], pairs[1::2]):
        best = max(best, float(np.linalg.norm(g1 - g2)) / gaps[p])
    return best / max(l, 1e-300), vals[:len(lead)]


# ---------------------------------------------------------------------------
# memoized center-graph evaluator
# ---------------------------------------------------------------------------

class CenterEvaluator:
    """Pointwise center-graph evaluation with a lazy grid cache.

    Values are computed on a grid over the neutral-coordinate box and on a
    small set of time nodes, then interpolated multilinearly in time and
    the coordinates together.  When the system is autonomous and the
    schedule repeats with period ``time_period``, time is wrapped into one
    period so the cache stays small; otherwise time nodes are laid on the
    breakpoints and anchors at least one horizon into the schedule, and
    earlier times read the first node.  The period starts one horizon plus
    2 theta_bound into the schedule.  A lookup that finds cells missing
    fills them per time node it touches: all of that node's missing
    corners in one stacked :func:`eval_G` of at most 40 sweeps, each cell a
    column that stops at its own tolerance, so it holds the value of its
    own call.  The last lookup's key and result are kept, so a repeated
    lookup (the reads of G at an interval's end) costs one comparison.

    Concurrent readers are safe: a lookup returns a fresh array, and a table
    block is allocated under a lock.  Concurrent fills of the same cell may
    race but agree, so last-write-wins is acceptable.
    """

    def __init__(self, sys: HybridSystem, sched: ArgumentSchedule,
                 split: SpectralSplit, bundle: ConstantsBundle, *,
                 box, resolution: int = 17, tol: float = 1e-6,
                 quad_step: float = 0.1, time_period: float | None = None,
                 time_subdiv: int = 4):
        self.sys = sys
        self.sched = sched
        self.split = split
        self.bundle = bundle
        self.tol = tol
        self.quad_step = quad_step
        nm = sys.dim - split.k
        box = np.asarray(box, dtype=float)
        if box.ndim == 0:
            box = np.stack([-box * np.ones(nm), box * np.ones(nm)])
        elif box.shape == (2,) and nm != 2:
            box = np.stack([box[0] * np.ones(nm), box[1] * np.ones(nm)])
        if box.shape != (2, nm) or not np.all(box[0] < box[1]):
            raise ConfigError(f"box must give (lo, hi) with lo < hi per "
                              f"coordinate, got {box.tolist()}")
        self.lo, self.hi = box[0], box[1]
        self.resolution = int(resolution)
        if self.resolution < 2:
            raise ParameterError("resolution must be at least 2")
        if self.resolution ** nm > 10**6:  # checked before any table exists
            raise ConfigError(f"cache_resolution^{nm} = {self.resolution ** nm}"
                              " cells per time node, more than 10^6")
        self.horizon = horizon = default_stable_horizon(split, max(tol, 1e-10))
        self.time_period = time_period
        if time_period is not None:
            self.t_ref = t_ref = _snap_up(
                sched, sched.t_min + horizon + 2 * sched.theta_bound)
            marks = np.concatenate([sched.thetas, sched.zetas])
            nodes = np.unique(np.concatenate([
                t_ref + np.linspace(0.0, time_period, time_subdiv + 1),
                marks[(t_ref < marks) & (marks < t_ref + time_period)]]))
        else:
            self.t_ref = None
            nodes = np.unique(np.concatenate([sched.thetas, sched.zetas]))
        # keep only times where the graph construction is well posed: the
        # evaluation time must not precede its own interval's anchor (an
        # advanced anchor would fall outside the backward quadrature window),
        # and the backward window must start inside the schedule
        self.time_nodes = np.array([t for t in nodes
                                    if self._anchor_ok(float(t))])
        if len(self.time_nodes) < 2:
            raise ParameterError(
                "fewer than two admissible time nodes; on schedules with "
                "advanced anchors use the native anchor times, and the "
                "schedule must extend one horizon before them")
        self._nodes = self.time_nodes.tolist()  # for bisect
        # one table for all time nodes: node ti's cells are the rows
        # _first[ti] + cell (-1: not touched yet), nan until filled; a block
        # is allocated when its node is first touched
        self._shape = (self.resolution,) * nm
        self._cells = self.resolution ** nm
        self._table = np.full((0, split.k), np.nan)
        self._first = np.full(len(self.time_nodes), -1)
        self._used = 0
        self._grow = threading.Lock()
        # coordinate corners in product order (first coordinate slowest):
        # bits (corner, 1, axis) and offsets (corner, 1) in a node's block
        bits = np.array(list(itertools.product((0, 1), repeat=nm)))
        self._strides = self.resolution ** np.arange(nm - 1, -1, -1)
        self._bits, self._offsets = bits[:, None] > 0, bits @ self._strides
        self._lo_edge, self._hi_edge = self.lo - 1e-12, self.hi + 1e-12
        self._spacing = (self.hi - self.lo) / (self.resolution - 1)
        self._last = (None, None)  # the last lookup's (t, shape, bytes), result
        self._P: float | None = None

    def _anchor_ok(self, t: float) -> bool:
        i = self.sched.interval_index(t)
        return ((self.sched.zeta(i) <= t or self.sched.theta(i) == t)
                and t - self.horizon >= self.sched.t_min)

    # -- raw evaluation ----------------------------------------------------
    def point(self, t: float, d) -> np.ndarray:
        """Uncached graph value at exact time t and coordinates d (one
        vector, or stacked rows solved in one :func:`eval_G` call)."""
        res = eval_G(self.sys, self.sched, self.split, self.bundle, t, d,
                     horizon=self.horizon, tol=self.tol, max_iter=40,
                     quad_step=self.quad_step)
        return res.value

    # -- cached interpolation ----------------------------------------------
    def at(self, t, v) -> np.ndarray:
        """Interpolated graph value; raises BoxExceededError outside the box.

        One point (``v`` of length nm) or stacked rows (``v`` of shape
        ``(m, nm)`` with ``t`` a scalar or one time per row, one output row
        each).  One multilinear interpolation with time as its first axis: a
        cell (time index, coordinate indices...) has 2^(1 + nm) corners,
        gathered from the table in one step.  Corners of zero weight are
        neither read nor filled, so a query on a grid node returns the
        cached value exactly.  Rows that share a time share its time cell;
        each row sums its weighted corners from 0.0 in corner order, time
        slowest, as a one-point call does, so it is bitwise that call.  A
        lookup with the last one's time and rows returns its result again.
        """
        V = np.asarray(v, dtype=float)
        if V.ndim < 2:  # one point is a stack of one row
            return self.at(t, V.reshape(1, -1))[0]
        if np.ndim(t):
            t = np.asarray(t, dtype=float)
            if not np.all(t == t[0]):
                out = np.empty((len(V), self.split.k))
                for tu in np.unique(t):
                    out[t == tu] = self.at(float(tu), V[t == tu])
                return out
            t = t[0]
        t = float(t)
        key = (t, V.shape, V.tobytes())
        last_key, out = self._last
        if key != last_key:
            out = self._lookup(t, V)
            self._last = (key, out)
        return out.copy()

    def _lookup(self, t: float, V: np.ndarray) -> np.ndarray:
        """:meth:`at` of stacked rows ``V`` at one time ``t``."""
        if self.time_period is not None:
            t = self.t_ref + ((t - self.t_ref) % self.time_period)
        nodes = self._nodes
        j = min(max(bisect.bisect_right(nodes, t) - 1, 0), len(nodes) - 2)
        t0, t1 = nodes[j], nodes[j + 1]
        lam = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
        inside = (self._lo_edge <= V) & (V <= self._hi_edge)
        if not inside.all():
            raise BoxExceededError(
                f"coordinates {V[np.argmin(inside.all(axis=1))]} outside the "
                f"cached box [{self.lo}, {self.hi}]")
        # the time nodes of positive weight: j (unless lam = 1), j + 1
        # (unless lam = 0)
        lo, hi = (j if 1.0 - lam > 0 else j + 1), (j + 2 if lam > 0 else j + 1)
        if not lo < hi:  # no time weight is positive (t is nan)
            return np.zeros((len(V), self.split.k))
        pos = (V - self.lo) / self._spacing
        base = np.minimum(np.maximum(np.floor(pos), 0.0), self.resolution - 2)
        frac = pos - base
        # per-axis weights (corner, row, axis), the corners whose weights
        # are all positive (None: every corner, off the cell faces), the
        # corner weights (time, corner, row) and the cells (corner, row)
        axw = np.where(self._bits, frac, 1.0 - frac)
        use = (None if axw.min() > 0.0
               else np.logical_and.reduce(axw > 0, axis=2))
        weight = np.multiply.outer([1.0 - lam, lam][lo - j:hi - j], axw[..., 0])
        for ax in range(1, V.shape[1]):
            weight = weight * axw[..., ax]
        cells = base.astype(int) @ self._strides + self._offsets[:, None]
        if self._first[lo] < 0 or self._first[hi - 1] < 0:
            for ti in range(lo, hi):
                self._block(ti)
        rows = self._first[lo:hi, None, None] + cells
        vals = self._table[rows]
        missing = np.isnan(vals[..., 0])
        if use is not None:
            missing &= use
        if missing.any():
            for ti, miss in zip(range(lo, hi), missing):
                if miss.any():
                    self._fill(ti, np.unique(cells[miss]))
            vals = self._table[rows]
        if use is not None:
            vals[:, ~use] = 0.0  # an unused corner adds +-0.0: the row stays
        terms = (weight[..., None] * vals).reshape(-1, len(V), self.split.k)
        # a running sum in corner order (add.reduce would sum one row
        # pairwise); + 0.0 makes it the sum started from 0.0
        return np.add.accumulate(terms)[-1] + 0.0

    def _block(self, ti: int) -> None:
        """Allocate time node ti's block of the table; the table doubles
        when it is full."""
        with self._grow:
            if self._first[ti] >= 0:
                return
            used = self._used
            if used + self._cells > len(self._table):
                grown = np.full((2 * (used + self._cells), self.split.k), np.nan)
                grown[:used] = self._table[:used]
                self._table = grown
            self._first[ti], self._used = used, used + self._cells

    def _fill(self, ti: int, cells: np.ndarray) -> None:
        """Fill the ``cells`` of time node ti with one stacked :meth:`point`,
        one row per cell."""
        d = self.lo + np.column_stack(np.unravel_index(cells, self._shape)).astype(
            float) * (self.hi - self.lo) / (self.resolution - 1)
        self._table[self._first[ti] + cells] = self.point(
            float(self.time_nodes[ti]), d)

    def empirical_P(self) -> float:
        """Sampled Lipschitz constant of the graph map divided by l, at the
        first time node, over 20 pairs of points drawn from the box with
        seed 0; worked out once per evaluator."""
        if self._P is not None:
            return self._P
        anchor = float(self.time_nodes[0])
        draws = np.random.default_rng(0).uniform(
            self.lo, self.hi, size=(20, 2, len(self.lo)))
        self._P, _ = _sampled_P(lambda D: self.point(anchor, D), draws,
                                self.bundle.l, min_gap=1e-9)
        return self._P
