import numpy as np
import pytest
from hypothesis import settings

from epcag import (
    HybridSystem,
    compute_constants,
    make_schedule,
    spectral_split,
)

# property tests draw the same examples on every run and have no deadline:
# on a small shared host one example can take many times its usual time
settings.register_profile("epcag", deadline=None, derandomize=True)
settings.load_profile("epcag")


@pytest.fixture(scope="session")
def epca_sched():
    return make_schedule("epca", window=(-60, 80))


@pytest.fixture(scope="session")
def diag_split():
    return spectral_split(np.diag([-1.0, 0.0]))


@pytest.fixture(scope="session")
def tanh_system():
    """A = diag(-1, 0) with the neutral rate fed by the anchored decaying
    component: f = amp (0, tanh(w_1))."""
    amp = 0.01

    def f(t, z, w):
        return np.array([0.0, amp * np.tanh(w[0])])

    return HybridSystem(np.diag([-1.0, 0.0]), f, amp, 2)


@pytest.fixture(scope="session")
def tanh_bundle(tanh_system, diag_split, epca_sched):
    return compute_constants(tanh_system.A, diag_split, epca_sched,
                             tanh_system.lipschitz_l, alpha=0.25)


@pytest.fixture(scope="session")
def mixed_star():
    """A = diag(-1, 0.5) with a strong cubic on the decaying coordinate, fed
    weakly by the anchored growing one: small starts along e_1 stay bounded,
    unit ones blow up within an interval, and starts along e_2 escape by
    growth."""
    b, eps = 20.0, 0.05

    def f(t, z, w):
        z0 = z.T[0]
        return np.array([b * z0 * z0 * z0 + eps * np.tanh(w.T[1]),
                         np.zeros_like(z0)]).T

    return HybridSystem(np.diag([-1.0, 0.5]), f, 3.0 * b + eps, 2)


@pytest.fixture(scope="session")
def star_schedules():
    """(schedule, t0) per kind: explicit anchors, implicit ones mid-interval
    (so rows settle at different iterations), and randomized implicit ones."""
    return {
        "epca": (make_schedule("epca", window=(-1, 30)), 0.0),
        "alternating": (make_schedule("alternating", window=(-2, 12)), 1.0),
        "randomized": (make_schedule("randomized", window=(0, 60),
                                     theta_bound=1.0, seed=5), 0.0),
    }
