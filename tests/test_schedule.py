import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epcag import make_schedule
from epcag.errors import ScheduleValidationError, ScheduleWindowError


class TestBeta:
    def test_epca_floor(self):
        sched = make_schedule("epca", window=(-3, 3))
        assert sched.beta(2.7) == 2.0

    def test_left_closed_at_breakpoint(self):
        sched = make_schedule("epca", window=(-3, 3))
        assert sched.beta(2.0) == 2.0

    def test_alternating(self):
        sched = make_schedule("alternating", window=(0, 2))
        assert sched.beta(0.5) == 0.0

    def test_window_exceeded(self):
        sched = make_schedule("epca", window=(0, 3))
        with pytest.raises(ScheduleWindowError) as ei:
            sched.beta(3.5)
        assert "0.0" in str(ei.value) and "3.0" in str(ei.value)

    def test_index_out_of_window_names_the_index(self):
        sched = make_schedule("epca", window=(0, 3))
        with pytest.raises(ScheduleWindowError) as ei:
            sched.zeta(3)
        assert str(ei.value) == "index i=3 is outside the schedule window [0, 2]"
        with pytest.raises(ScheduleWindowError) as ei:
            sched.theta(-1)
        assert str(ei.value) == "index i=-1 is outside the schedule window [0, 3]"


class TestIntervalIndex:
    def test_epca(self):
        sched = make_schedule("epca", window=(-3, 3))
        assert sched.interval_index(2.7) == 2

    def test_alternating_left_endpoint(self):
        sched = make_schedule("alternating", window=(-2, 2))
        assert sched.interval_index(-1.0) == 0

    def test_just_below_breakpoint(self):
        sched = make_schedule("epca", window=(-3, 3))
        assert sched.interval_index(2.0 - 1e-12) == 1

    def test_last_endpoint_convention(self):
        sched = make_schedule("epca", window=(0, 3))
        assert sched.interval_index(3.0) == 2


class TestMakeSchedule:
    def test_epca_window(self):
        sched = make_schedule("epca", window=(-3, 3))
        np.testing.assert_array_equal(sched.thetas, np.arange(-3.0, 4.0))
        np.testing.assert_array_equal(sched.zetas, np.arange(-3.0, 3.0))
        assert sched.theta_bound == 1.0

    def test_alternating_window(self):
        sched = make_schedule("alternating", window=(0, 2))
        np.testing.assert_array_equal(sched.thetas, [-1.0, 1.0, 3.0])
        np.testing.assert_array_equal(sched.zetas, [0.0, 2.0])

    def test_randomized_deterministic(self):
        a = make_schedule("randomized", window=(0, 30), theta_bound=1.0, seed=42)
        b = make_schedule("randomized", window=(0, 30), theta_bound=1.0, seed=42)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.zetas, b.zetas)

    def test_randomized_gap_range(self):
        sched = make_schedule("randomized", window=(0, 200), theta_bound=0.8,
                              seed=3)
        gaps = np.diff(sched.thetas)
        assert np.all(gaps > 0.2) and np.all(gaps <= 0.8)
        assert np.all(sched.zetas >= sched.thetas[:-1])
        assert np.all(sched.zetas <= sched.thetas[1:])

    def test_explicit_validation_reports_first_bad_index(self):
        with pytest.raises(ScheduleValidationError) as ei:
            make_schedule("explicit", thetas=[0.0, 1.0, 0.5], zetas=[0.5, 1.2],
                          i_min=0, theta_bound=2.0)
        assert ei.value.index == 1

    def test_explicit_anchor_out_of_interval(self):
        with pytest.raises(ScheduleValidationError) as ei:
            make_schedule("explicit", thetas=[0.0, 1.0], zetas=[1.5])
        assert ei.value.index == 0

    def test_anchor_at_right_endpoint_allowed(self):
        sched = make_schedule("explicit", thetas=[0.0, 1.0], zetas=[1.0])
        assert sched.beta(0.3) == 1.0


class TestInvariants:
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_index_brackets_time(self, frac):
        sched = make_schedule("randomized", window=(0, 40), theta_bound=1.0,
                              seed=11)
        t = sched.t_min + frac * (sched.t_max - sched.t_min)
        i = sched.interval_index(t)
        assert sched.theta(i) <= t < sched.theta(i + 1)

    def test_beta_constant_and_right_continuous(self):
        sched = make_schedule("randomized", window=(0, 10), theta_bound=1.0,
                              seed=5)
        for i in range(sched.i_min, sched.i_max - 1):
            lo, hi = sched.theta(i), sched.theta(i + 1)
            vals = {sched.beta(t) for t in np.linspace(lo, hi - 1e-9, 7)}
            assert vals == {sched.zeta(i)}
            assert sched.beta(lo) == sched.zeta(i)

    def test_beta_idempotent_where_anchor_interior(self):
        sched = make_schedule("randomized", window=(0, 50), theta_bound=1.0,
                              seed=9)
        for i in range(sched.i_min, sched.i_max - 1):
            z = sched.zeta(i)
            if z < sched.theta(i + 1):
                assert sched.beta(sched.beta(z + 1e-12)) == sched.beta(z + 1e-12)

    def test_immutability(self):
        sched = make_schedule("epca", window=(0, 3))
        with pytest.raises(ValueError):
            sched.thetas[0] = 99.0


class TestRandomizedInvariants:
    @given(bound=st.floats(min_value=0.01, max_value=10.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           i_min=st.integers(min_value=-50, max_value=50),
           n=st.integers(min_value=1, max_value=300),
           t_start=st.floats(min_value=-1e3, max_value=1e3),
           fracs=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=1, max_size=10))
    @settings(max_examples=200)
    def test_gaps_anchors_and_beta(self, bound, seed, i_min, n, t_start,
                                   fracs):
        sched = make_schedule("randomized", window=(i_min, i_min + n),
                              theta_bound=bound, seed=seed, t_start=t_start)
        assert (sched.i_min, sched.i_max) == (i_min, i_min + n)
        # gaps are drawn in (bound/4, bound]; the endpoints are their
        # running sums, exact up to rounding of the endpoint values
        slack = 1e-13 * max(1.0, float(np.max(np.abs(sched.thetas))))
        gaps = np.diff(sched.thetas)
        assert np.all(gaps > bound / 4 - slack)
        assert np.all(gaps <= bound + slack)
        assert np.all(sched.thetas[:-1] <= sched.zetas)
        assert np.all(sched.zetas <= sched.thetas[1:])
        for frac in fracs:
            t = sched.t_min + frac * (sched.t_max - sched.t_min)
            t = min(max(t, sched.t_min), sched.t_max)
            i = sched.interval_index(t)
            lo, hi = sched.theta(i), sched.theta(i + 1)
            assert lo <= t <= hi and (t < hi or t == sched.t_max)
            assert lo <= sched.beta(t) <= hi
