"""Argument schedules: the interval endpoints, anchor times and the
piecewise constant deviating argument built from them.

A schedule covers a finite index window [i_min, i_max].  ``thetas`` holds the
interval endpoints theta_i for i = i_min..i_max and ``zetas`` the anchor
times zeta_i for i = i_min..i_max-1, so interval i is [theta_i, theta_{i+1})
with anchor zeta_i somewhere inside its closure.  Times outside
[theta_{i_min}, theta_{i_max}] raise :class:`ScheduleWindowError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScheduleValidationError, ScheduleWindowError

__all__ = ["ArgumentSchedule", "make_schedule"]


@dataclass(frozen=True)
class ArgumentSchedule:
    """Immutable pair of sequences (theta_i), (zeta_i) over a finite window.

    Invariants (checked at construction):
      * every theta_i, zeta_i and theta_bound is finite
      * theta_i < theta_{i+1}
      * theta_i <= zeta_i <= theta_{i+1}
      * theta_{i+1} - theta_i <= theta_bound
    """

    thetas: np.ndarray
    zetas: np.ndarray
    i_min: int
    theta_bound: float

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        zetas = np.asarray(self.zetas, dtype=float)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "zetas", zetas)
        thetas.setflags(write=False)
        zetas.setflags(write=False)
        if thetas.ndim != 1 or zetas.ndim != 1:
            raise ScheduleValidationError("thetas and zetas must be 1-d sequences")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(zetas))
                and np.isfinite(self.theta_bound)):
            raise ScheduleValidationError(
                "thetas, zetas and theta_bound must be finite")
        if len(thetas) < 2:
            raise ScheduleValidationError("a schedule needs at least one interval")
        if len(zetas) != len(thetas) - 1:
            raise ScheduleValidationError(
                f"need exactly one anchor per interval: got {len(zetas)} anchors "
                f"for {len(thetas) - 1} intervals"
            )
        if not (self.theta_bound > 0):
            raise ScheduleValidationError("theta_bound must be positive")
        for p in range(len(thetas) - 1):
            i = self.i_min + p
            if not thetas[p] < thetas[p + 1]:
                raise ScheduleValidationError(
                    f"theta_{i} >= theta_{i + 1} ({thetas[p]} >= {thetas[p + 1]})",
                    index=i,
                )
            if not (thetas[p] <= zetas[p] <= thetas[p + 1]):
                raise ScheduleValidationError(
                    f"zeta_{i} = {zetas[p]} outside [theta_{i}, theta_{i + 1}] "
                    f"= [{thetas[p]}, {thetas[p + 1]}]",
                    index=i,
                )
            if thetas[p + 1] - thetas[p] > self.theta_bound * (1 + 1e-12):
                raise ScheduleValidationError(
                    f"gap theta_{i + 1} - theta_{i} = {thetas[p + 1] - thetas[p]} "
                    f"exceeds the bound {self.theta_bound}",
                    index=i,
                )

    @property
    def i_max(self) -> int:
        return self.i_min + len(self.thetas) - 1

    @property
    def t_min(self) -> float:
        return float(self.thetas[0])

    @property
    def t_max(self) -> float:
        return float(self.thetas[-1])

    def theta(self, i: int) -> float:
        """Endpoint theta_i for i in [i_min, i_max]."""
        p = i - self.i_min
        if not 0 <= p < len(self.thetas):
            raise ScheduleWindowError(i, self.i_min, self.i_max, "index i")
        return float(self.thetas[p])

    def zeta(self, i: int) -> float:
        """Anchor zeta_i for i in [i_min, i_max - 1]."""
        p = i - self.i_min
        if not 0 <= p < len(self.zetas):
            raise ScheduleWindowError(i, self.i_min, self.i_max - 1, "index i")
        return float(self.zetas[p])

    def interval_index(self, t: float) -> int:
        """Index i with theta_i <= t < theta_{i+1}.

        t equal to the last endpoint resolves to the last interval by
        convention, so the closed window [t_min, t_max] is covered.
        """
        if not (self.t_min <= t <= self.t_max):
            raise ScheduleWindowError(t, self.t_min, self.t_max)
        p = int(np.searchsorted(self.thetas, t, side="right")) - 1
        p = min(p, len(self.thetas) - 2)
        return self.i_min + p

    def beta(self, t: float) -> float:
        """Deviating-argument value: the anchor of the interval containing t."""
        return self.zeta(self.interval_index(t))


def _window(params) -> tuple:
    """The index window (i_min, i_max) of ``params``: finite, spanning at
    least one interval and at most 10^6, checked before any array is laid."""
    i_min, i_max = params["window"]
    if not np.all(np.isfinite([i_min, i_max])):
        raise ScheduleValidationError(f"window must be finite, got {[i_min, i_max]}")
    i_min, i_max = int(i_min), int(i_max)
    if i_max - i_min < 1:
        raise ScheduleValidationError("window must span at least one interval")
    if i_max - i_min > 10**6:
        raise ScheduleValidationError(
            f"window spans {i_max - i_min} intervals, more than 10^6")
    return i_min, i_max


def make_schedule(kind: str, **params) -> ArgumentSchedule:
    """Build a schedule of one of the four supported kinds.

    kind="epca":        theta_i = zeta_i = i over window=(i_min, i_max).
    kind="alternating": theta_i = 2i - 1, zeta_i = 2i over window=(i_min, i_max);
                        each anchor sits mid-interval, so the dynamics are
                        alternately retarded and advanced.
    kind="explicit":    caller-provided thetas=..., zetas=...,
                        optional i_min (default 0) and theta_bound
                        (default: the largest gap).
    kind="randomized":  window=(i_min, i_max), theta_bound=.., seed=..;
                        gaps drawn uniformly from (theta_bound/4, theta_bound],
                        anchors uniformly from the interval; optional
                        t_start (default 0.0) places theta_{i_min}.
    """
    if kind == "epca":
        i_min, i_max = _window(params)
        thetas = np.arange(i_min, i_max + 1, dtype=float)
        return ArgumentSchedule(thetas, thetas[:-1].copy(), i_min, 1.0)

    if kind == "alternating":
        i_min, i_max = _window(params)
        idx = np.arange(i_min, i_max + 1, dtype=float)
        thetas = 2.0 * idx - 1.0
        zetas = 2.0 * idx[:-1]
        return ArgumentSchedule(thetas, zetas, i_min, 2.0)

    if kind == "explicit":
        thetas = np.asarray(params["thetas"], dtype=float)
        zetas = np.asarray(params["zetas"], dtype=float)
        i_min = int(params.get("i_min", 0))
        bound = params.get("theta_bound")
        if bound is None:
            bound = float(np.max(np.diff(thetas))) if len(thetas) > 1 else 1.0
        return ArgumentSchedule(thetas, zetas, i_min, float(bound))

    if kind == "randomized":
        i_min, i_max = _window(params)
        bound = float(params["theta_bound"])
        if not 0 < bound < np.inf:
            raise ScheduleValidationError(
                f"theta_bound must be finite and positive, got {bound}")
        seed = params["seed"]
        t_start = float(params.get("t_start", 0.0))
        n = i_max - i_min
        rng = np.random.default_rng(seed)
        # bound - U[0, 3*bound/4) lies in (bound/4, bound]
        gaps = bound - rng.uniform(0.0, 0.75 * bound, size=n)
        thetas = t_start + np.concatenate(([0.0], np.cumsum(gaps)))
        zetas = thetas[:-1] + rng.uniform(0.0, 1.0, size=n) * gaps
        return ArgumentSchedule(thetas, zetas, i_min, bound)

    raise ScheduleValidationError(f"unknown schedule kind {kind!r}")
