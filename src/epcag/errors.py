"""Exception hierarchy shared by all epcag modules."""


class EpcagError(Exception):
    """Base class for all errors raised by this package."""


class ScheduleWindowError(EpcagError):
    """A time, or an interval index (``what`` names which), fell outside the
    finite window of a schedule."""

    def __init__(self, t, lo, hi, what="time t"):
        super().__init__(
            f"{what}={t!r} is outside the schedule window [{lo!r}, {hi!r}]"
        )
        self.t = t
        self.lo = lo
        self.hi = hi


class ScheduleValidationError(EpcagError):
    """An explicit schedule violated an ordering or bound invariant."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class BlowUpError(EpcagError):
    """The integrated state became non-finite."""

    def __init__(self, last_finite_time, interval=None):
        msg = f"state blew up; last finite time t={last_finite_time!r}"
        if interval is not None:
            msg += f" (interval {interval})"
        super().__init__(msg)
        self.last_finite_time = last_finite_time
        self.interval = interval


class NonContractionError(EpcagError):
    """The anchor fixed-point iteration failed to contract.

    Carries the observed delta and ratio sequences; ratios above one signal
    that the smallness conditions do not hold on this interval and that
    existence/uniqueness of the continuation is not guaranteed.
    """

    def __init__(self, deltas, ratios, interval=None, max_iter=None):
        msg = f"anchor iteration did not contract (interval {interval}); "
        msg += f"deltas={[float(d) for d in deltas[:6]]}..."
        super().__init__(msg)
        self.deltas = list(deltas)
        self.ratios = list(ratios)
        self.interval = interval
        self.max_iter = max_iter


class SpectrumError(EpcagError):
    """The linear part has an eigenvalue with positive real part."""


class ConditioningError(EpcagError):
    """The block-diagonalizing change of basis is too ill-conditioned."""


class ParameterError(EpcagError):
    """A numeric parameter fell outside its admissible range."""


class SmallnessError(EpcagError):
    """A smallness condition required by a construction does not hold."""


class DivergenceError(EpcagError):
    """A successive-approximation sweep stopped making progress."""

    def __init__(self, message, deltas=None):
        super().__init__(message)
        self.deltas = list(deltas) if deltas is not None else []


class EnvelopeError(EpcagError):
    """A converged graph-map solution left its analytic decay envelope."""

    def __init__(self, message, excess):
        super().__init__(message)
        self.excess = excess


class BoxExceededError(EpcagError):
    """A center-graph lookup fell outside the cached coordinate box."""


class DegenerateDimensionError(EpcagError):
    """The requested reduced system would have dimension zero."""


class ContractionFailureError(EpcagError):
    """A companion-solution iterate left its admissible ball."""


class ConfigError(EpcagError):
    """An experiment configuration failed validation."""


class SystemValidationError(ConfigError, ValueError):
    """A system's linear part, declared constant or nonlinearity is invalid."""
