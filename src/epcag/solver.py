"""Interval-by-interval integration of quasilinear systems whose right-hand
side couples to the state at one anchor time per interval.

On each interval [theta_i, theta_{i+1}) the equation reads

    z' = A z + f(t, z(t), w),      w = z(zeta_i),

so once the anchor value w is known the interval problem is an ordinary ODE.
When zeta_i lies ahead of the data point, w is implicit and is resolved by a
fixed-point iteration on the single vector w (``solve_anchor``), whose sweeps
integrate only the leg from the data point to zeta_i.  The settling sweep's
leg is kept as part of the interval's segment, so only the rest of the
interval is integrated once w is found.  Forward and backward continuation
then march interval by interval.

The marcher takes one state ``(n,)`` or stacked rows ``(m, n)`` that share
the start time, the schedule and the step (the stability star): the rows
step on one node grid, each row's arithmetic is bitwise that of the row
marched alone, and a row that fails leaves the march without stopping the
others.  A lone state combines each RK4 step on Python floats and takes its
linear part with ``ndarray.dot``; stacked rows use numpy throughout.  Both
are the same IEEE operations in the same order, so the values agree bit for
bit; the lone path only spends less per stage on dispatch.

The nonlinearity ``f(t, z, w)`` is called with one state at a time, or with
stacked states (``z`` and ``w`` of shape ``(m, n)``, one row per point,
returning ``(m, n)``): by stacked marches with one float ``t`` shared by the
rows, and by the graph maps with one time per row (``t`` of shape
``(m,)``).  A callable that only takes one state at a time, or that does
not take both forms of ``t``, is detected when the system is built and
wrapped once into a loop over rows (``HybridSystem.f_stacked``).  The ``w`` that f receives on interval i is
``HybridSystem.anchor_argument(zeta_i, w)`` of the anchor state w, worked
out once per sweep and once per interval integration, never per stage; it
is w itself unless a system says otherwise.

A run is single threaded and owns its trajectory; distinct runs over shared
(immutable) systems and schedules may proceed concurrently as long as the
nonlinearity is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, NonContractionError, SystemValidationError
from .schedule import ArgumentSchedule

__all__ = [
    "HybridSystem",
    "Segment",
    "Trajectory",
    "AnchorResult",
    "integrate_interval",
    "solve_anchor",
    "solve_forward",
    "solve_backward",
    "write_trajectory_csv",
    "trajectory_report",
]

# Iteration deltas growing past this factor are reported as non-contraction
# before floats overflow.
_DELTA_EXPLOSION = 1e8


def _row_loop(f):
    """Stacked form of a nonlinearity that takes one state at a time: ``t``
    is one float shared by the rows or one time per row."""
    def rows(t, z, w):
        ts = [t] * len(z) if np.ndim(t) == 0 else t
        return np.array([f(*point) for point in zip(ts, z, w)], dtype=float)
    return rows


@dataclass(frozen=True)
class HybridSystem:
    """Linear part, nonlinearity and its declared Lipschitz constant.

    ``f(t, z, w)`` must be pure; ``w`` plays the role of the state at the
    interval's anchor time, passed through :meth:`anchor_argument`.
    Construction spot-checks that f vanishes at the origin and that sampled
    difference quotients stay below ``lipschitz_l`` on probes of radius
    ``probe_radius`` (the declared constant may be local to that ball).

    ``f_stacked`` is f on stacked states, one row per point: f itself when
    stacked calls on the probe samples, with per-row times and with one
    shared float time, return exactly the per-row values, otherwise a loop
    over rows of f.
    """

    A: np.ndarray
    f: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_l: float
    dim: int
    probe_radius: float = 1.0
    probe_times: tuple = (0.0, 0.37, 1.0)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if not (A.flags.c_contiguous or A.flags.f_contiguous):
            # on a strided matrix ``A.dot(z)`` rounds unlike ``A @ z``
            A = np.ascontiguousarray(A)
        object.__setattr__(self, "A", A)
        if A.shape != (self.dim, self.dim):
            raise SystemValidationError(
                f"A must be {self.dim}x{self.dim}, got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise SystemValidationError("A must be finite")
        if self.lipschitz_l < 0:
            raise SystemValidationError("lipschitz_l must be nonnegative")
        samples = self._spot_check()
        object.__setattr__(self, "f_stacked", self.f if self._takes_stacked(
            samples) else _row_loop(self.f))

    def _spot_check(self) -> list:
        rng = np.random.default_rng(20240817)
        samples = []
        for _ in range(24):
            t = float(rng.choice(self.probe_times))
            z1, z2, w1, w2 = rng.normal(size=(4, self.dim))
            scale = self.probe_radius / max(
                np.linalg.norm(z1), np.linalg.norm(z2),
                np.linalg.norm(w1), np.linalg.norm(w2), 1.0,
            )
            samples.append((t, z1 * scale, z2 * scale, w1 * scale, w2 * scale))
        ratio, origin, ratio_ok, origin_ok = self.probe_f(self.probe_times,
                                                          samples)
        if not origin_ok:
            raise SystemValidationError(
                f"f(t,0,0) != 0 at t in {self.probe_times} (largest norm "
                f"{origin:.4g})")
        if not ratio_ok:
            raise SystemValidationError(
                f"sampled Lipschitz ratio {ratio:.4g} exceeds the declared "
                f"constant {self.lipschitz_l}")
        return samples

    def anchor_argument(self, zeta, w):
        """The argument f receives on an interval whose anchor ``zeta`` holds
        the state ``w`` (one state or stacked rows, one row each): ``w``
        itself.  A system whose f reads the anchor state through a fixed map
        overrides this, so the map is applied once per interval and not at
        every stage."""
        return w

    def _takes_stacked(self, samples) -> bool:
        """Whether f, called once on the stacked ``(t, z1, w1)`` of the probe
        samples, returns exactly its per-row values, both with the samples'
        own times and with the first one shared by all rows."""
        t = np.array([s[0] for s in samples])
        z = np.array([s[1] for s in samples])
        w = self.anchor_argument(t, np.array([s[3] for s in samples]))
        for times in (t, float(t[0])):
            try:
                with np.errstate(all="ignore"):
                    out = np.asarray(self.f(times, z, w), dtype=float)
            except Exception:  # whatever f raises on rows, it takes one state
                return False
            if not (out.shape == z.shape and np.array_equal(
                    out, _row_loop(self.f)(times, z, w))):
                return False
        return True

    def probe_f(self, origin_times, samples) -> tuple:
        """Sampled evidence that f vanishes at the origin and is l-Lipschitz.

        Returns ``(ratio, origin, ratio_ok, origin_ok)``: the largest
        difference quotient |f(t,z1,w1) - f(t,z2,w2)| / (|z1-z2| + |w1-w2|)
        over the ``(t, z1, z2, w1, w2)`` samples, the largest |f(t,0,0)|
        over ``origin_times``, and whether the quotient stays below
        ``lipschitz_l`` and the residual at zero, up to rounding slack.  f
        reads each w through :meth:`anchor_argument` at the sample's time.
        """
        n = self.dim
        zero = np.zeros(n)
        lift = self.anchor_argument
        origin = 0.0
        for t in origin_times:
            val = np.asarray(self.f(t, zero, lift(t, zero)), dtype=float)
            if val.shape != (n,):
                raise SystemValidationError(
                    f"f must return vectors of length {n}")
            origin = max(origin, float(np.linalg.norm(val)))
        ratio = 0.0
        for t, z1, z2, w1, w2 in samples:
            num = np.linalg.norm(np.asarray(self.f(t, z1, lift(t, w1)))
                                 - np.asarray(self.f(t, z2, lift(t, w2))))
            den = np.linalg.norm(z1 - z2) + np.linalg.norm(w1 - w2)
            if den > 0:
                ratio = max(ratio, float(num / den))
        l = self.lipschitz_l
        return (ratio, origin, ratio <= l * (1 + 1e-6) + 1e-12,
                origin <= 1e-9 * (1 + l))

    def rhs(self, t, z, w):
        """z' at time t: one state, or stacked rows sharing the float t.  A
        stacked row takes its own matrix-vector product, so it is bitwise the
        one-state value (a matrix-matrix product rounds differently).
        ``A.dot`` is the same matrix-vector product as ``A @ z`` with less
        dispatch."""
        if z.ndim == 1:
            return self.A.dot(z) + np.asarray(self.f(t, z, w), dtype=float)
        return (self.A @ z[..., None])[..., 0] + self.f_stacked(t, z, w)


@dataclass
class Segment:
    """Dense output over one interval: nodes, states and state derivatives.

    Evaluation between nodes uses cubic Hermite interpolation, matching the
    fourth-order accuracy of the one-step integrator.
    """

    index: int
    ts: np.ndarray
    zs: np.ndarray
    dzs: np.ndarray
    w: np.ndarray

    @property
    def t_left(self) -> float:
        return float(self.ts[0])

    @property
    def t_right(self) -> float:
        return float(self.ts[-1])

    def value_at_node(self, t: float) -> np.ndarray:
        j = int(np.searchsorted(self.ts, t))
        for cand in (j, j - 1, j + 1):
            if 0 <= cand < len(self.ts) and abs(self.ts[cand] - t) <= 1e-12 * max(1.0, abs(t)):
                return self.zs[cand].copy()
        raise KeyError(f"t={t} is not a node of segment {self.index}")

    def eval(self, t: float) -> np.ndarray:
        if not (self.ts[0] - 1e-12 <= t <= self.ts[-1] + 1e-12):
            raise ValueError(
                f"t={t} outside segment {self.index} span [{self.ts[0]}, {self.ts[-1]}]"
            )
        k = int(np.searchsorted(self.ts, t, side="right")) - 1
        k = min(max(k, 0), len(self.ts) - 2)
        return _hermite(self.ts, self.zs, self.dzs, k, t)


def _hermite(ts, zs, dzs, k, t):
    """Cubic Hermite interpolant between nodes k and k + 1 at t; ``k`` and
    ``t`` are scalars or equal-length arrays (one output row each).  The
    basis is built from products only, so an entry of an array call is
    bitwise the scalar call."""
    h = np.asarray(ts[k + 1] - ts[k])[..., None]
    s = np.asarray(t - ts[k])[..., None] / h
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * zs[k] + (s3 - 2 * s2 + s) * h * dzs[k]
            + (-2 * s3 + 3 * s2) * zs[k + 1] + (s3 - s2) * h * dzs[k + 1])


@dataclass
class Trajectory:
    """Piecewise-smooth numerical solution with breakpoints at the theta_i;
    ``diagnostics`` holds each segment's :class:`AnchorResult`."""

    segments: list
    direction: str
    t_span: tuple
    diagnostics: list
    nonuniqueness_warning: bool = False

    def __post_init__(self):
        # the segments ascend in time; segment i reaches up to _reach[i]
        self._reach = np.array([seg.t_right for seg in self.segments]) + 1e-12

    def segment_for(self, t: float) -> Segment:
        """The first segment whose span, widened by 1e-12, holds t: at a
        breakpoint the one on the left.  Found by bisection."""
        i = int(np.searchsorted(self._reach, t))
        if i < len(self.segments) and self.segments[i].t_left - 1e-12 <= t:
            return self.segments[i]
        raise ValueError(f"t={t} outside trajectory span {self.t_span}")

    def eval(self, t) -> np.ndarray:
        """State at time t, or one row per entry of an array of times, each
        read from the segment :meth:`segment_for` picks, in one pass."""
        if np.ndim(t) == 0:
            return self.segment_for(t).eval(t)
        t = np.asarray(t, dtype=float)
        segs = self.segments
        i = np.minimum(np.searchsorted(self._reach, t), len(segs) - 1)
        lefts = np.array([seg.t_left for seg in segs])
        if not np.all((lefts[i] - 1e-12 <= t) & (t <= self._reach[i])):
            raise ValueError(f"times outside trajectory span {self.t_span}")
        sizes = np.array([len(seg.ts) for seg in segs])
        first = np.cumsum(sizes) - sizes
        ts = np.concatenate([seg.ts for seg in segs])
        k = np.searchsorted(ts, t, side="right") - 1
        k = np.clip(k, first[i], first[i] + sizes[i] - 2)
        return _hermite(ts, np.concatenate([seg.zs for seg in segs]),
                        np.concatenate([seg.dzs for seg in segs]), k, t)


def _node_grid(a: float, b: float, split_at: Optional[float], h: float) -> np.ndarray:
    """Ascending nodes over [a, b] with uniform sub-spacing <= h per stretch,
    hitting ``split_at`` exactly when it lies strictly inside."""
    if b <= a:
        return np.array([a])
    pieces = []
    bounds = [a, b]
    if split_at is not None and a < split_at < b:
        bounds = [a, split_at, b]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = max(1, int(np.ceil((hi - lo) / h - 1e-12)))
        pieces.append(np.linspace(lo, hi, n + 1))
    nodes = pieces[0]
    for p in pieces[1:]:
        nodes = np.concatenate([nodes, p[1:]])
    return nodes


def _rk4_path(sys: HybridSystem, ts: np.ndarray, z0: np.ndarray, w: np.ndarray,
              interval: int, dz0=None):
    """Classical fourth-order steps along the (possibly descending) node list.

    ``z0`` and ``w``, the argument f receives, are one state or stacked
    rows (one w per row); ``dz0``, the derivative at the first node when
    the caller has it, spares that node's rhs.  A lone state that turns
    non-finite raises :class:`BlowUpError`; a stacked row that does is nan
    from that node on, and the other rows go on from their own finite
    values.
    """
    n = len(ts)
    zs = np.empty((n,) + z0.shape)
    dzs = np.empty((n,) + z0.shape)
    zs[0] = z0
    rhs = sys.rhs
    lone = z0.ndim == 1
    tl = ts.tolist()  # Python floats: the same IEEE arithmetic, less overhead
    with np.errstate(over="ignore", invalid="ignore"):
        dzs[0] = rhs(tl[0], z0, w) if dz0 is None else dz0
        z, k1 = zs[0], dzs[0]
        zl = z0.tolist()
        for j in range(n - 1):
            t = tl[j]
            h = tl[j + 1] - t
            k2 = rhs(t + h / 2, z + (h / 2) * k1, w)
            k3 = rhs(t + h / 2, z + (h / 2) * k2, w)
            k4 = rhs(t + h, z + h * k3, w)
            if lone:  # numpy's order of operations, per component
                h6 = h / 6
                zl = [zi + h6 * (a + 2 * b + 2 * c + d) for zi, a, b, c, d
                      in zip(zl, k1.tolist(), k2.tolist(), k3.tolist(),
                             k4.tolist())]
                if not all(map(isfinite, zl)):
                    raise BlowUpError(t, interval=interval)
                znext = np.array(zl)
            else:
                znext = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                if not all(map(isfinite, znext.ravel().tolist())):
                    rest = _rows_path(sys, ts[j + 1:], znext, w, interval,
                                      np.isfinite(znext).all(axis=1))
                    zs[j + 1:], dzs[j + 1:] = rest
                    return zs, dzs
            zs[j + 1] = z = znext
            dzs[j + 1] = k1 = rhs(tl[j + 1], znext, w)
    return zs, dzs


def _two_legs(sys, ts, z0, w, interval, leg=None):
    """:func:`_rk4_path` along ``ts``.  ``leg``, when given, is the path
    ``(zs, dzs)`` over the first nodes, and the rest starts from its last
    node and derivative: the arithmetic of one pass across, so the path is
    the same bit for bit."""
    if leg is None:
        return _rk4_path(sys, ts, z0, w, interval)
    k = len(leg[0]) - 1
    if k + 1 == len(ts):
        return leg
    zs, dzs = _rk4_path(sys, ts[k:], leg[0][-1], w, interval, leg[1][-1])
    return np.concatenate([leg[0], zs[1:]]), np.concatenate([leg[1], dzs[1:]])


def _rows_path(sys, ts, z0, w, interval, rows, leg=None):
    """:func:`_two_legs` of the stacked rows selected by the mask ``rows``;
    the other rows are nan."""
    zs = np.full((len(ts),) + z0.shape, np.nan)
    dzs = zs.copy()
    if rows.any():
        zs[:, rows], dzs[:, rows] = _two_legs(
            sys, ts, z0[rows], w[rows], interval,
            None if leg is None else (leg[0][:, rows], leg[1][:, rows]))
    return zs, dzs


def _blow_ups(ts, zs):
    """``(row, last finite node time)`` for each stacked row of a path that
    turned non-finite.  A row non-finite at the last node blew up at its
    last finite node; one finite there (an interval's left path, which runs
    after the right one) blew up at its first finite node."""
    finite = np.isfinite(zs).all(axis=2)
    for r in np.flatnonzero(~finite.all(axis=0)):
        k = np.flatnonzero(finite[:, r])
        if k.size:  # a row given non-finite is left to its caller
            yield int(r), float(ts[k[0] if finite[-1, r] else k[-1]])


def _interval_step(sched: ArgumentSchedule, i: int, t_anchor: float,
                   step: float) -> float:
    """The step clamped to a quarter of interval i, which must hold t_anchor."""
    th_lo, th_hi = sched.theta(i), sched.theta(i + 1)
    if not (th_lo - 1e-12 <= t_anchor <= th_hi + 1e-12):
        raise ValueError(
            f"t_anchor={t_anchor} outside interval {i} = [{th_lo}, {th_hi}]"
        )
    return min(step, (th_hi - th_lo) / 4.0)


def integrate_interval(sys: HybridSystem, sched: ArgumentSchedule, i: int,
                       t_anchor: float, z_anchor: np.ndarray, w: np.ndarray,
                       step: float, leg=None) -> Segment:
    """Integrate z' = A z + f(t, z, w) with w frozen over all of interval i.

    f receives ``sys.anchor_argument(zeta_i, w)``, worked out once here; the
    segment keeps w itself.  Runs from the data point (t_anchor, z_anchor)
    towards both interval endpoints; nodes land exactly on theta_i,
    theta_{i+1} and zeta_i.  The step is clamped to a quarter of the
    interval length.  ``leg``, when given, is the anchor leg ``(zs, dzs)``
    from the data point to zeta_i, already integrated with this w (by
    :func:`solve_anchor`'s settling sweep): it is taken as it is, and the
    side that holds zeta_i goes on from its last node and derivative.
    Stacked rows (``z_anchor`` and ``w`` of shape ``(m, n)``) share the
    nodes; a row that blows up on the right is not taken left, where a lone
    state would have raised already.
    """
    h = _interval_step(sched, i, t_anchor, step)
    th_lo, th_hi = sched.theta(i), sched.theta(i + 1)
    zeta = sched.zeta(i)
    z_anchor = np.asarray(z_anchor, dtype=float)
    w = np.asarray(w, dtype=float)
    wa = sys.anchor_argument(zeta, w)

    right_ts = _node_grid(t_anchor, th_hi, zeta, h)
    left_ts = _node_grid(th_lo, t_anchor, zeta, h)[::-1]  # descending from anchor
    # the anchor leg starts the side that holds zeta_i
    right_leg, left_leg = (leg, None) if zeta >= t_anchor else (None, leg)

    # a one-node side is the other side's first entry: the same data point
    # and rhs(t_anchor, z_anchor, w), so it takes no rhs of its own
    if len(right_ts) == 1:  # the data point is the right end
        zs_l, dzs_l = _two_legs(sys, left_ts, z_anchor, wa, i, left_leg)
        zs_r, dzs_r = zs_l[:1], dzs_l[:1]
    else:
        zs_r, dzs_r = _two_legs(sys, right_ts, z_anchor, wa, i, right_leg)
        if len(left_ts) == 1:  # the data point is the left end
            zs_l, dzs_l = zs_r[:1], dzs_r[:1]
        elif z_anchor.ndim == 1:
            zs_l, dzs_l = _two_legs(sys, left_ts, z_anchor, wa, i, left_leg)
        else:
            zs_l, dzs_l = _rows_path(sys, left_ts, z_anchor, wa, i,
                                     np.isfinite(zs_r[-1]).all(axis=1),
                                     left_leg)

    ts = np.concatenate([left_ts[::-1][:-1], right_ts])
    zs = np.concatenate([zs_l[::-1][:-1], zs_r])
    dzs = np.concatenate([dzs_l[::-1][:-1], dzs_r])
    return Segment(index=i, ts=ts, zs=zs, dzs=dzs, w=w)


@dataclass
class AnchorResult:
    """One interval's anchor solve.

    For stacked rows, ``w`` and the segment's states hold one row per input
    row, ``last_delta``, ``deltas`` and ``ratios`` one entry per row, and
    ``iterations`` sums the rows' counts.  ``errors`` holds each row's
    :class:`BlowUpError` or :class:`NonContractionError` (None for a row
    that came through); a failed row's values are nan.  ``live`` marks the
    rows that go on to the next interval of a march: the rows without error,
    unless the caller clears an entry first.
    """

    w: np.ndarray
    iterations: int
    last_delta: float
    deltas: list
    ratios: list
    segment: Optional[Segment]
    errors: Optional[list] = None
    live: Optional[np.ndarray] = None


def solve_anchor(sys: HybridSystem, sched: ArgumentSchedule, i: int,
                 t_anchor: float, z_anchor: np.ndarray, step: float,
                 tol: float, max_iter: int = 50) -> AnchorResult:
    """Resolve the implicit anchor value w = z(zeta_i) on interval i.

    The unknown is the single vector w, and only the stretch from t_anchor
    to zeta_i bears on it.  Each sweep integrates that stretch alone, on the
    nodes :func:`integrate_interval` lays there (so values agree bit for
    bit): first with the w-slot frozen at z_anchor, then with the current w,
    each sweep passing ``sys.anchor_argument(zeta_i, w)`` to f.
    Once consecutive values differ by less than tol, the settling sweep's
    path is kept as the segment's anchor leg, and :func:`integrate_interval`
    with that sweep's input w integrates the rest of the interval once;
    ``AnchorResult.w`` is that sweep's output.  An explicit anchor
    (zeta_i = t_anchor) with finite data, ``tol > 0`` and ``max_iter > 0``
    is its own w: it takes no fixed-point work and counts as one iteration
    of delta 0 per row.  Raises :class:`NonContractionError` with the
    observed ratio sequence when the iteration fails to settle; a blow-up
    outside the stretch surfaces from the final integration.

    Stacked rows ``z_anchor`` of shape ``(m, n)`` share the sweeps but
    iterate each on its own: a settled row is frozen, with its path from the
    sweep it settled at, and later sweeps take only the rows still open, so
    every row gets the w, iteration count, deltas, ratios and segment it
    gets alone.  A row's failure does not raise; it is recorded in
    ``AnchorResult.errors``.  The settled rows are integrated together once.
    A lone state goes through the same bookkeeping as a stack of one row;
    only its sweeps and integration take the one-state path, and its error
    is raised at the end.

    Contraction is guaranteed when the smallness report of the analysis
    module passes; when it does not, continuation may genuinely fail or be
    non-unique, and the error's ratio sequence is the diagnostic.
    """
    zeta = sched.zeta(i)
    z_anchor = np.array(z_anchor, dtype=float)  # a copy: it may come back as w
    h = _interval_step(sched, i, t_anchor, step)
    span = _node_grid(min(t_anchor, zeta), max(t_anchor, zeta), None, h)
    span = span if zeta >= t_anchor else span[::-1]
    one = z_anchor.ndim == 1
    Z = z_anchor[None] if one else z_anchor  # a lone state: one row here
    m = len(Z)
    errors: list = [None] * m
    path = legs = None  # the last sweep's (zs, dzs); each stacked row's leg

    def sweep(rows):  # values at zeta_i of ``rows``, w-slots frozen at W
        nonlocal path
        wa = sys.anchor_argument(zeta, W[0] if one else W[rows])
        if one:  # a lone state raises its own BlowUpError
            path = _rk4_path(sys, span, z_anchor, wa, i)
            return path[0][-1:]
        path = _rk4_path(sys, span, Z[rows], wa, i)
        for r, t in _blow_ups(span, path[0]):
            errors[rows[r]] = BlowUpError(t, interval=i)
        return path[0][-1]

    if len(span) == 1 and tol > 0 and max_iter > 0 and all(
            map(isfinite, z_anchor.ravel().tolist())):
        # explicit: each row's w is its data point, settled at once
        W_in = W_out = Z
        deltas, ratios = [[0.0] for _ in range(m)], [[] for _ in range(m)]
    else:
        W = Z
        W = sweep(np.arange(m))
        scales = [max(1.0, float(np.linalg.norm(w))) for w in W]
        deltas, ratios = [[] for _ in range(m)], [[] for _ in range(m)]
        # each row's settling sweep: its input w and its output
        W_in, W_out = np.full((2,) + Z.shape, np.nan)
        # each stacked row's anchor leg, copied from the sweep it settles at
        legs = None if one else np.empty((2,) + path[0].shape)
        rows = [r for r in range(m) if errors[r] is None]
        for _ in range(max_iter):
            if not rows:
                break
            still = []
            for k, (r, w_next) in enumerate(zip(rows, sweep(rows))):
                if errors[r] is not None:
                    continue
                delta = float(np.linalg.norm(w_next - W[r]))
                if deltas[r] and deltas[r][-1] > 0:
                    ratios[r].append(delta / deltas[r][-1])
                deltas[r].append(delta)
                if not isfinite(delta) or delta > _DELTA_EXPLOSION * scales[r]:
                    errors[r] = NonContractionError(
                        deltas[r], ratios[r], interval=i, max_iter=max_iter)
                elif delta < tol:
                    W_in[r], W_out[r] = W[r], w_next
                    if not one:
                        legs[:, :, r] = path[0][:, k], path[1][:, k]
                else:
                    W[r] = w_next
                    still.append(r)
            rows = still
        for r in rows:
            errors[r] = NonContractionError(deltas[r], ratios[r], interval=i,
                                            max_iter=max_iter)
    seg = None
    ok = [r for r in range(m) if errors[r] is None] if any(errors) else None
    if ok is None:  # every row settled: no nan embedding
        seg = integrate_interval(sys, sched, i, t_anchor, z_anchor,
                                 W_in[0] if one else W_in, step,
                                 path if one else legs)
    elif ok:
        part = integrate_interval(sys, sched, i, t_anchor, Z[ok], W_in[ok],
                                  step, legs[:, :, ok])
        zs = np.full((len(part.ts), m, Z.shape[1]), np.nan)
        dzs = zs.copy()
        zs[:, ok], dzs[:, ok] = part.zs, part.dzs
        seg = Segment(index=i, ts=part.ts, zs=zs, dzs=dzs, w=W_in)
    if one:
        if errors[0] is not None:
            raise errors[0]
        return AnchorResult(W_out[0], len(deltas[0]), deltas[0][-1],
                            deltas[0], ratios[0], seg)
    if seg is not None:
        for r, t in _blow_ups(seg.ts, seg.zs):
            errors[r] = BlowUpError(t, interval=i)
    return AnchorResult(W_out, sum(map(len, deltas)),
                        [d[-1] if d else np.nan for d in deltas], deltas,
                        ratios, seg, errors,
                        np.array([e is None for e in errors]))


def _locate_right_closed(sched: ArgumentSchedule, t: float) -> int:
    """Index i with theta_i < t <= theta_{i+1} (for right-end data points)."""
    i = sched.interval_index(t)
    if t <= sched.theta(i) + 1e-12 and i > sched.i_min:
        return i - 1
    return i


def solve_forward(sys: HybridSystem, sched: ArgumentSchedule, t0: float,
                  z0: np.ndarray, t_end: float, step: float, tol: float,
                  max_iter: int = 50) -> Trajectory:
    """March from (t0, z0) to t_end, resolving each interval's anchor in turn.

    On the first interval the data point may sit anywhere (the anchor is
    reached by integrating inside the interval in whichever direction is
    needed); afterwards the left endpoint value carries the march.
    """
    if not t0 < t_end:
        raise ValueError("need t0 < t_end")
    i0 = sched.interval_index(t0)
    i_end = _locate_right_closed(sched, t_end)
    return _trajectory(_march(sys, sched, t0, z0, range(i0, i_end + 1), step,
                              tol, max_iter), "forward", (t0, t_end))


def solve_backward(sys: HybridSystem, sched: ArgumentSchedule, t0: float,
                   z0: np.ndarray, t_start: float, step: float, tol: float,
                   max_iter: int = 50) -> Trajectory:
    """Mirror of :func:`solve_forward`, marching left from (t0, z0).

    The anchor equation may admit several (or no) solutions when the
    smallness conditions fail; the returned trajectory is the iteration's
    limit and ``nonuniqueness_warning`` is set whenever a contraction ratio
    above one was observed along the way.
    """
    if not t_start < t0:
        raise ValueError("need t_start < t0")
    i0 = _locate_right_closed(sched, t0)
    i_end = sched.interval_index(t_start)
    return _trajectory(_march(sys, sched, t0, z0, range(i0, i_end - 1, -1),
                              step, tol, max_iter), "backward", (t_start, t0))


def _march(sys, sched, t_a, z_a, intervals, step, tol, max_iter):
    """Yield each interval's :class:`AnchorResult` in marching order.

    The data point of the next interval is the endpoint value just reached:
    theta_{i+1} for ascending ``intervals``, theta_i for descending ones.
    Stacked rows go on with the result's ``live`` rows only, and the march
    ends when none is left.
    """
    forward = intervals.step > 0
    z_a = np.asarray(z_a, dtype=float)
    for i in intervals:
        res = solve_anchor(sys, sched, i, t_a, z_a, step, tol, max_iter)
        yield res
        if res.live is not None and not res.live.any():
            return
        t_a = sched.theta(i + 1) if forward else sched.theta(i)
        z_a = res.segment.zs[-1 if forward else 0]
        z_a = z_a.copy() if res.live is None else z_a[res.live]


def _trajectory(results, direction, t_span) -> Trajectory:
    results = list(results)
    if direction == "backward":
        results.reverse()
    return Trajectory(
        segments=[res.segment for res in results],
        direction=direction, t_span=t_span, diagnostics=results,
        nonuniqueness_warning=any(r > 1.0 for res in results
                                  for r in res.ratios),
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns t, z_1..z_n, interval_index; one row per stored node in span."""
    lo, hi = min(traj.t_span), max(traj.t_span)
    n = traj.segments[0].zs.shape[1]
    header = "t," + ",".join(f"z_{j + 1}" for j in range(n)) + ",interval_index"
    lines = [header]
    for seg in traj.segments:
        keep = (lo - 1e-12 <= seg.ts) & (seg.ts <= hi + 1e-12)
        rows = np.column_stack([seg.ts, seg.zs])[keep].tolist()
        lines.extend(",".join(map(repr, row)) + f",{seg.index}" for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def trajectory_report(traj: Trajectory) -> dict:
    """Sidecar diagnostics: per-interval iteration counts and ratios."""
    return {
        "direction": traj.direction,
        "t_span": [float(traj.t_span[0]), float(traj.t_span[1])],
        "nonuniqueness_warning": bool(traj.nonuniqueness_warning),
        "intervals": [
            {
                "index": d.segment.index,
                "iterations": d.iterations,
                "last_delta": d.last_delta,
                "contraction_ratios": [float(r) for r in d.ratios],
            }
            for d in traj.diagnostics
        ],
    }
