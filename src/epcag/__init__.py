"""Simulation and integral-manifold analysis of quasilinear systems with
piecewise constant deviating argument of generalized type."""

from . import errors
from .schedule import ArgumentSchedule, make_schedule
from .solver import (
    AnchorResult,
    HybridSystem,
    Segment,
    Trajectory,
    integrate_interval,
    solve_anchor,
    solve_backward,
    solve_forward,
    trajectory_report,
    write_trajectory_csv,
)
from .analysis import (
    ConditionReport,
    ConstantsBundle,
    SpectralSplit,
    check_conditions,
    compute_constants,
    spectral_split,
)
from .manifolds import (
    CenterEvaluator,
    InvarianceReport,
    ManifoldApprox,
    eval_F,
    eval_G,
    stable_tail_bound,
    verify_surface_invariance,
)
from .reduction import (
    PhaseResult,
    StabilityVerdict,
    asymptotic_phase,
    build_reduced,
    classify_stability,
    reduction_check,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ArgumentSchedule", "make_schedule",
    "HybridSystem", "Segment", "Trajectory", "AnchorResult",
    "integrate_interval", "solve_anchor", "solve_forward", "solve_backward",
    "write_trajectory_csv", "trajectory_report",
    "SpectralSplit", "ConstantsBundle", "ConditionReport",
    "spectral_split", "compute_constants", "check_conditions",
    "ManifoldApprox", "CenterEvaluator", "InvarianceReport",
    "eval_F", "eval_G", "verify_surface_invariance", "stable_tail_bound",
    "StabilityVerdict", "PhaseResult",
    "build_reduced", "asymptotic_phase", "classify_stability", "reduction_check",
]
