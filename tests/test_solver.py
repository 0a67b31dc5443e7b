import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from epcag import (
    HybridSystem,
    integrate_interval,
    make_schedule,
    solve_anchor,
    solve_backward,
    solve_forward,
)
from epcag.errors import BlowUpError, NonContractionError
from epcag.solver import (_DELTA_EXPLOSION, AnchorResult, Segment, _blow_ups,
                          _interval_step, _march, _node_grid, _rk4_path)

E3 = math.exp(3.0)


def example1_system():
    """z' = 3 z - z(beta(t))^2 with the alternating schedule."""
    sys = HybridSystem(np.array([[3.0]]), lambda t, z, w: np.array([-w[0] ** 2]),
                       30.0, 1, probe_radius=15.0)
    sched = make_schedule("alternating", window=(-2, 3))
    return sys, sched


def example1_interval_exact(z0, t):
    """Variation of constants for z' = 3z - z0^2 from (0, z0).

    Note the minus sign: the anchored term enters the rhs negatively, so
    z(t) = e^{3t} z0 - (z0^2/3)(e^{3t} - 1)."""
    return E3**0 * np.exp(3.0 * t) * z0 - (z0**2 / 3.0) * (np.exp(3.0 * t) - 1.0)


def small_random_system(rng, n, l):
    """Globally Lipschitz nonlinearity with constant <= l and |A| <= 1."""
    A = rng.normal(size=(n, n))
    A *= rng.uniform(0.3, 1.0) / np.linalg.norm(A, 2)
    Q1 = rng.normal(size=(n, n))
    Q1 /= np.linalg.norm(Q1, 2)
    Q2 = rng.normal(size=(n, n))
    Q2 /= np.linalg.norm(Q2, 2)

    def f(t, z, w):
        return l * (0.5 * np.tanh(Q1 @ w) + 0.5 * np.sin(Q2 @ z))

    return HybridSystem(A, f, l, n)


class TestHybridSystemValidation:
    def test_nonzero_origin_rejected(self):
        with pytest.raises(ValueError, match="f\\(t,0,0\\)"):
            HybridSystem(np.array([[-1.0]]),
                         lambda t, z, w: np.array([0.1 + z[0]]), 1.0, 1)

    def test_understated_lipschitz_rejected(self):
        with pytest.raises(ValueError, match="Lipschitz"):
            HybridSystem(np.array([[-1.0]]),
                         lambda t, z, w: 5.0 * w, 0.1, 1)

    def test_wrong_output_shape_rejected(self):
        with pytest.raises(ValueError, match="length"):
            HybridSystem(np.eye(2) * -1.0,
                         lambda t, z, w: np.zeros(3), 0.0, 2)


class TestStackedContract:
    """f_stacked: f itself when f takes stacked rows, otherwise one loop over
    rows of f, decided once at construction."""

    Z = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.05]])
    W = np.array([[0.2, 0.1], [-0.3, 0.6], [0.4, -0.1]])
    T = np.array([0.0, 0.5, 1.0])

    def rows(self, f):
        return np.array([f(*point) for point in zip(self.T, self.Z, self.W)],
                        dtype=float)

    def test_vectorized_f_is_kept(self):
        def f(t, z, w):
            return 0.2 * np.tanh(w) - 0.1 * z * z

        sys = HybridSystem(-np.eye(2), f, 0.5, 2)
        assert sys.f_stacked is f

    @pytest.mark.parametrize("f", [
        # indexes components and returns a list: fails on stacked input
        lambda t, z, w: [0.2 * math.tanh(w[1]), -0.1 * z[0] * z[0]],
        # right shape on stacked input but other values: the mean runs over
        # every row instead of one point's components
        lambda t, z, w: 0.1 * np.tanh(w * np.mean(w)),
        # a scalar-only use of t
        lambda t, z, w: 0.2 * w * math.cos(t),
    ], ids=["indexing", "mixes-rows", "scalar-time"])
    def test_scalar_only_f_is_wrapped_into_a_row_loop(self, f):
        sys = HybridSystem(-np.eye(2), f, 0.5, 2)
        assert sys.f_stacked is not f
        assert same_bits(sys.f_stacked(self.T, self.Z, self.W), self.rows(f))

    def test_per_row_time_only_f_marches_as_before(self):
        """A callable that reads stacked times as a column ``t[:, None]``
        fails the shared-float probe and is wrapped into a row loop; its
        stacked march is bitwise the march that passed ``np.full(m, t)``."""
        def f(t, z, w):
            if z.ndim == 1:
                return 0.2 * np.tanh(w) / (1.0 + t * t) - 0.1 * z * z
            tc = t[:, None]
            return 0.2 * np.tanh(w) / (1.0 + tc * tc) - 0.1 * z * z

        def full_times(t, z, w):  # a stacked call as the march made it
            return f(np.full(len(z), t) if np.ndim(t) == 0 and np.ndim(z) == 2
                     else t, z, w)

        A = np.array([[-0.5, 0.3], [0.0, -0.2]])
        sys, before = (HybridSystem(A, g, 0.5, 2) for g in (f, full_times))
        assert sys.f_stacked is not f and before.f_stacked is full_times
        assert same_bits(sys.f_stacked(0.7, self.Z, self.W),
                         [f(0.7, z, w) for z, w in zip(self.Z, self.W)])
        assert same_bits(sys.f_stacked(self.T, self.Z, self.W), self.rows(f))
        sched = make_schedule("alternating", window=(0, 8))
        Z0 = star_points([0.1, 1.0])
        intervals = range(sched.interval_index(1.0), sched.interval_index(7.0))
        marches = [list(_march(s, sched, 1.0, Z0, intervals, 0.25, 1e-10, 50))
                   for s in (sys, before)]
        assert len(marches[0]) == len(marches[1]) == len(intervals)
        for new, old in zip(*marches):
            assert same_bits(new.segment.zs, old.segment.zs)
            assert same_bits(new.segment.dzs, old.segment.dzs)
            assert same_bits(new.w, old.w)


class TestIntegrateInterval:
    def test_linear_homogeneous(self):
        sys = HybridSystem(np.array([[-1.0]]), lambda t, z, w: np.zeros(1), 0.0, 1)
        sched = make_schedule("epca", window=(0, 2))
        seg = integrate_interval(sys, sched, 0, 0.0, np.array([1.0]),
                                 np.array([1.0]), 0.02)
        for t in np.linspace(0.0, 1.0, 11):
            assert abs(seg.eval(t)[0] - math.exp(-t)) < 1e-8

    def test_example1_interval_closed_form(self):
        sys, sched = example1_system()
        z0 = 2.0
        seg = integrate_interval(sys, sched, 0, 0.0, np.array([z0]),
                                 np.array([z0]), 0.004)
        for t in np.linspace(0.0, 1.0, 9):
            assert abs(seg.eval(t)[0] - example1_interval_exact(z0, t)) < 1e-7

    def test_order_four_convergence(self):
        sys, sched = example1_system()
        z0 = 2.0
        exact = example1_interval_exact(z0, 1.0)
        errors = []
        for step in (0.05, 0.025):
            seg = integrate_interval(sys, sched, 0, 0.0, np.array([z0]),
                                     np.array([z0]), step)
            errors.append(abs(seg.value_at_node(1.0)[0] - exact))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0

    def test_integrates_both_directions_from_interior_anchor(self):
        sys = HybridSystem(np.array([[-1.0]]), lambda t, z, w: np.zeros(1), 0.0, 1)
        sched = make_schedule("epca", window=(0, 2))
        seg = integrate_interval(sys, sched, 0, 0.5, np.array([1.0]),
                                 np.array([1.0]), 0.02)
        assert seg.t_left == 0.0 and seg.t_right == 1.0
        assert abs(seg.eval(0.0)[0] - math.exp(0.5)) < 1e-8
        assert abs(seg.eval(1.0)[0] - math.exp(-0.5)) < 1e-8

    def test_blowup_reports_last_finite_time(self):
        sys = HybridSystem(np.array([[0.0]]),
                           lambda t, z, w: np.array([z[0] ** 3]), 3.0, 1)
        sched = make_schedule("explicit", thetas=[0.0, 4.0], zetas=[0.0],
                              theta_bound=4.0)
        with pytest.raises(BlowUpError) as ei:
            integrate_interval(sys, sched, 0, 0.0, np.array([3.0]),
                               np.array([3.0]), 0.5)
        assert 0.0 <= ei.value.last_finite_time < 4.0


class TestSolveAnchor:
    def test_linear_one_iteration(self):
        A = np.array([[-0.3, 1.0], [0.0, -0.5]])
        sys = HybridSystem(A, lambda t, z, w: np.zeros(2), 0.0, 2)
        sched = make_schedule("alternating", window=(0, 2))
        z0 = np.array([1.0, -0.5])
        res = solve_anchor(sys, sched, 0, -1.0, z0, 0.01, 1e-10)
        assert res.iterations == 1
        expected = sla.expm(A * (0.0 - (-1.0))) @ z0
        np.testing.assert_allclose(res.w, expected, atol=1e-8)

    def test_contraction_ratio_bound(self):
        rng = np.random.default_rng(12)
        l, theta = 0.02, 1.0
        for trial in range(5):
            sys = small_random_system(rng, 2, l)
            sched = make_schedule("randomized", window=(0, 6),
                                  theta_bound=theta, seed=100 + trial)
            M = math.exp(np.linalg.norm(sys.A, 2) * theta)
            bound = 2 * M * l * theta + 0.05
            res = solve_anchor(sys, sched, 2, sched.theta(2),
                               rng.normal(size=2), 0.05, 1e-13, 60)
            meaningful = [r for r, d in zip(res.ratios, res.deltas[1:])
                          if d > 1e-12]
            assert meaningful, "expected at least one measurable ratio"
            assert all(r <= bound for r in meaningful)

    def test_example1_no_forward_continuation(self):
        # Independent oracle: the anchor value w = z(0) of a solution through
        # (-1, x0) must solve (e^3-1) w^2 + 3 w - 3 e^3 x0 = 0 (variation of
        # constants); for x0 = -10 the discriminant is negative.
        x0 = -10.0
        roots = np.roots([E3 - 1.0, 3.0, -3.0 * E3 * x0])
        assert np.all(np.abs(roots.imag) > 0), "oracle: no real anchor"
        sys, sched = example1_system()
        with pytest.raises(NonContractionError) as ei:
            solve_anchor(sys, sched, 0, -1.0, np.array([x0]), 0.02, 1e-10, 40)
        assert ei.value.interval == 0
        assert any(r > 1.0 for r in ei.value.ratios)


def two_pass_anchor(sys, sched, i, t_anchor, z_anchor, step, tol,
                    max_iter=50):
    """Oracle: the anchor iteration with every sweep over the whole interval,
    seeded by a full pass with the w-slot frozen at z_anchor."""
    zeta = sched.zeta(i)
    z_anchor = np.asarray(z_anchor, dtype=float)
    seg = integrate_interval(sys, sched, i, t_anchor, z_anchor, z_anchor, step)
    w = seg.value_at_node(zeta)
    deltas, ratios = [], []
    for m in range(1, max_iter + 1):
        seg = integrate_interval(sys, sched, i, t_anchor, z_anchor, w, step)
        w_next = seg.value_at_node(zeta)
        delta = float(np.linalg.norm(w_next - w))
        if deltas and deltas[-1] > 0:
            ratios.append(delta / deltas[-1])
        deltas.append(delta)
        w = w_next
        if delta < tol:
            return w, m, deltas, ratios, seg
    raise AssertionError(f"oracle did not settle on interval {i}")


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestIntegrateIntervalWork:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("forward", [True, False])
    def test_data_point_at_an_end_takes_one_rhs_per_stage(self, forward,
                                                          stacked, monkeypatch):
        # a forward march enters an interval at its left end, a backward
        # one at its right end: the one-node side reuses the other side's
        # first derivative, and the path is the one RK4 pass across
        sys = small_random_system(np.random.default_rng(5), 2, 0.15)
        sched = make_schedule("alternating", window=(0, 3))  # [1, 3], zeta 2
        z = np.array([[0.9, -0.6], [0.2, 0.4], [-0.5, 0.1]])
        w = z[::-1] + 0.1
        if not stacked:
            z, w = z[0], w[0]
        t_a = 1.0 if forward else 3.0
        nodes = _node_grid(1.0, 3.0, 2.0, 0.1)
        want = _rk4_path(sys, nodes if forward else nodes[::-1], z, w, 1)
        calls = []
        rhs = HybridSystem.rhs

        def counted(self, t, z, w):
            calls.append(t)
            return rhs(self, t, z, w)

        monkeypatch.setattr(HybridSystem, "rhs", counted)
        seg = integrate_interval(sys, sched, 1, t_a, z, w, 0.1)
        assert len(calls) == 4 * 20 + 1
        assert same_bits(seg.ts, nodes)
        for got, ref in zip((seg.zs, seg.dzs), want):
            assert same_bits(got, ref if forward else ref[::-1])


class TestSolveAnchorWork:
    """Span-only sweeps and the explicit-anchor shortcut change the work,
    never the numbers."""

    @pytest.mark.parametrize("kind, forward, stacked", [
        pytest.param("epca", True, False, id="epca-True"),
        pytest.param("alternating", True, False, id="alternating-True"),
        pytest.param("alternating", False, False, id="alternating-False"),
        pytest.param("randomized", True, False, id="randomized-True"),
        pytest.param("randomized", False, False, id="randomized-False"),
        pytest.param("randomized", True, True, id="randomized-True-stacked"),
        pytest.param("randomized", False, True, id="randomized-False-stacked"),
    ])
    def test_bitwise_equal_to_full_interval_sweeps(self, kind, forward,
                                                   stacked):
        sys = small_random_system(np.random.default_rng(5), 2, 0.15)
        if kind == "randomized":
            sched = make_schedule(kind, window=(0, 8), theta_bound=1.0,
                                  seed=31)
        else:
            sched = make_schedule(kind, window=(0, 8))
        intervals = range(0, 8) if forward else range(7, -1, -1)
        # a forward march starts inside interval 0, past its anchor, so the
        # first sweep runs backwards; a backward march has every anchor behind
        t_a = 0.5 * (sched.zeta(0) + sched.theta(1)) if forward else sched.t_max
        # stacked rows of different size settle at different sweeps, so each
        # row's anchor leg comes from a different sweep of the stack
        Z = np.array([[0.9, -0.6], [1e-3, 2e-3], [-2.0, 1.5], [0.0, 0.0]])
        Z = Z if stacked else Z[:1]
        zeta_sides, spread = set(), 0
        for i in intervals:
            zeta_sides.add(int(np.sign(sched.zeta(i) - t_a)))
            res = solve_anchor(sys, sched, i, t_a, Z, 0.05, 1e-12) \
                if stacked else None
            for r, z_a in enumerate(Z):
                one = solve_anchor(sys, sched, i, t_a, z_a, 0.05, 1e-12)
                w, m, deltas, ratios, seg = two_pass_anchor(
                    sys, sched, i, t_a, z_a, 0.05, 1e-12)
                assert same_bits(one.w, w)
                assert (one.iterations, one.deltas, one.ratios) == (
                    m, deltas, ratios)
                for name in ("ts", "zs", "dzs", "w"):
                    assert same_bits(getattr(one.segment, name),
                                     getattr(seg, name))
                if stacked:
                    assert same_bits(res.w[r], w)
                    assert (res.deltas[r], res.ratios[r]) == (deltas, ratios)
                    assert same_bits(res.segment.ts, seg.ts)
                    for name in ("zs", "dzs", "w"):
                        assert same_bits(getattr(res.segment, name)[..., r, :],
                                         getattr(seg, name))
            t_a = sched.theta(i + 1) if forward else sched.theta(i)
            if stacked:
                assert res.live.all()
                spread = max(spread, len({len(d) for d in res.deltas}))
                Z = res.segment.value_at_node(t_a)
            else:
                Z = seg.value_at_node(t_a)[None]
        assert zeta_sides == ({-1} if not forward else
                              {-1, 0} if kind == "epca" else {-1, 1})
        assert spread > 2 if stacked else spread == 0

    def test_explicit_anchor_integrates_once(self):
        calls = []

        def f(t, z, w):
            calls.append(t)
            return 0.25 * w

        sys = HybridSystem(np.array([[-1.0]]), f, 0.25, 1)
        sched = make_schedule("epca", window=(0, 3))
        z = np.array([0.7])
        calls.clear()
        res = solve_anchor(sys, sched, 1, 1.0, z, 0.1, 1e-12)
        # ten RK4 steps of four calls each and the first node's derivative;
        # the one-node left path takes none of its own
        assert len(calls) == 4 * 10 + 1
        assert (res.iterations, res.deltas, res.ratios) == (1, [0.0], [])
        assert same_bits(res.w, z)

    def test_sweeps_integrate_only_the_anchor_span(self):
        calls = []

        def f(t, z, w):
            calls.append(t)
            return 0.25 * np.tanh(w)

        sys = HybridSystem(np.array([[-1.0]]), f, 0.25, 1)
        sched = make_schedule("alternating", window=(0, 2))
        calls.clear()
        res = solve_anchor(sys, sched, 0, -1.0, np.array([0.7]), 0.1, 1e-12)
        # the span [-1, 0] takes ten steps; the seeding pass and every sweep
        # walk it, then the settling sweep's path is kept and only [0, 1] is
        # integrated, from the span's last node and derivative
        span, rest = 4 * 10 + 1, 4 * 10
        assert res.iterations > 2
        assert len(calls) == (res.iterations + 1) * span + rest
        assert max(calls[:-rest]) <= 0.0
        assert 0.0 <= min(calls[-rest:]) and max(calls[-rest:]) <= 1.0

    def test_blowup_beyond_the_anchor_surfaces_at_final_integration(self):
        def f(t, z, w):
            return np.array([np.inf if t > 0.75 else 0.5 * w[0]])

        sys = HybridSystem(np.array([[0.0]]), f, 0.5, 1, probe_times=(0.0, 0.5))
        sched = make_schedule("explicit", thetas=[0.0, 1.0], zetas=[0.5])
        with pytest.raises(BlowUpError) as ei:
            solve_anchor(sys, sched, 0, 0.0, np.array([1.0]), 0.05, 1e-12)
        assert ei.value.interval == 0
        assert 0.5 <= ei.value.last_finite_time < 1.0


# ---------------------------------------------------------------------------
# explicit anchors against the fixed-point loop they used to go through
# ---------------------------------------------------------------------------

def parent_solve_anchor(sys, sched, i, t_anchor, z_anchor, step, tol,
                        max_iter=50):
    """The anchor solve before explicit anchors returned early: a one-node
    span runs the fixed-point loop, each sweep handing back the data point."""
    zeta = sched.zeta(i)
    z_anchor = np.array(z_anchor, dtype=float)
    h = _interval_step(sched, i, t_anchor, step)
    span = _node_grid(min(t_anchor, zeta), max(t_anchor, zeta), None, h)
    span = span if zeta >= t_anchor else span[::-1]
    one = z_anchor.ndim == 1
    Z = np.atleast_2d(z_anchor)
    m = len(Z)
    errors = [None] * m
    path = None

    def sweep(rows):
        nonlocal path
        if len(span) == 1:
            return Z[rows]
        if one:
            path = _rk4_path(sys, span, z_anchor, W[0], i)
            return path[0][-1:]
        path = _rk4_path(sys, span, Z[rows], W[rows], i)
        for r, t in _blow_ups(span, path[0]):
            errors[rows[r]] = BlowUpError(t, interval=i)
        return path[0][-1]

    W = Z
    W = sweep(np.arange(m))
    scales = [max(1.0, float(np.linalg.norm(w))) for w in W]
    deltas = [[] for _ in range(m)]
    ratios = [[] for _ in range(m)]
    settled = {}
    legs = None if one or path is None else np.empty((2,) + path[0].shape)
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
            if not np.isfinite(delta) or delta > _DELTA_EXPLOSION * scales[r]:
                errors[r] = NonContractionError(deltas[r], ratios[r],
                                                interval=i, max_iter=max_iter)
            elif delta < tol:
                settled[r] = W[r], w_next
                if legs is not None:
                    legs[0][:, r], legs[1][:, r] = path[0][:, k], path[1][:, k]
            else:
                W[r] = w_next
                still.append(r)
        rows = still
    for r in rows:
        errors[r] = NonContractionError(deltas[r], ratios[r], interval=i,
                                        max_iter=max_iter)
    if one:
        if errors[0] is not None:
            raise errors[0]
        w, w_next = settled[0]
        seg = integrate_interval(sys, sched, i, t_anchor, z_anchor, w, step,
                                 path)
        return AnchorResult(w=w_next, iterations=len(deltas[0]),
                            last_delta=deltas[0][-1], deltas=deltas[0],
                            ratios=ratios[0], segment=seg)
    W_in, W_out = np.full_like(Z, np.nan), np.full_like(Z, np.nan)
    for r, (w, w_next) in settled.items():
        W_in[r], W_out[r] = w, w_next
    seg = None
    ok = sorted(settled)
    if ok:
        part = integrate_interval(sys, sched, i, t_anchor, Z[ok], W_in[ok],
                                  step, None if legs is None else
                                  (legs[0][:, ok], legs[1][:, ok]))
        zs = np.full((len(part.ts), m, Z.shape[1]), np.nan)
        dzs = zs.copy()
        zs[:, ok], dzs[:, ok] = part.zs, part.dzs
        for r, t in _blow_ups(part.ts, part.zs):
            errors[ok[r]] = BlowUpError(t, interval=i)
        seg = Segment(index=i, ts=part.ts, zs=zs, dzs=dzs, w=W_in)
    return AnchorResult(
        w=W_out, iterations=sum(map(len, deltas)),
        last_delta=[d[-1] if d else np.nan for d in deltas], deltas=deltas,
        ratios=ratios, segment=seg, errors=errors,
        live=np.array([e is None for e in errors]))


def error_record(err):
    """What an anchor error reports, with nan deltas comparable."""
    if err is None:
        return None
    return (type(err), str(err), getattr(err, "interval", None),
            getattr(err, "last_finite_time", None),
            np.asarray(getattr(err, "deltas", [])).tobytes(),
            np.asarray(getattr(err, "ratios", [])).tobytes())


def same_anchor_result(new, old):
    assert same_bits(new.w, old.w)
    # repr is exact for floats and makes nan entries comparable
    assert repr((new.iterations, new.deltas, new.ratios, new.last_delta)) == (
        repr((old.iterations, old.deltas, old.ratios, old.last_delta)))
    for name in ("ts", "zs", "dzs", "w"):
        assert same_bits(getattr(new.segment, name),
                         getattr(old.segment, name))
    assert new.segment.index == old.segment.index
    assert [error_record(e) for e in new.errors or []] == [
        error_record(e) for e in old.errors or []]
    assert same_bits(new.live, old.live) and (new.live is None) == (
        old.live is None)


class TestExplicitAnchor:
    """An explicit anchor (zeta_i = t_anchor) returns its one integration at
    once: bitwise the fixed-point loop's result, rows, errors and all."""

    @staticmethod
    def cases():
        # EPCA (zeta_i = theta_i) and an explicit schedule whose anchors sit
        # at the left end, inside and at the right end of their intervals
        yield make_schedule("epca", window=(-1, 6)), [0, 2, 4]
        thetas = [0.0, 0.8, 1.7, 2.3, 3.2]
        yield make_schedule("explicit", thetas=thetas,
                            zetas=[0.0, 1.2, 2.3, 3.2]), [0, 1, 2, 3]

    @pytest.mark.parametrize("stacked", [False, True])
    def test_bitwise_the_parent_loop(self, mixed_star, stacked):
        # on mixed_star unit starts along e_1 blow up inside the interval
        Z = star_points([0.1, 1.0]) if stacked else [0.05, -0.02]
        seen_blowup = False
        for sched, intervals in self.cases():
            for i in intervals:
                t_a = sched.zeta(i)
                new = solve_anchor(mixed_star, sched, i, t_a, Z, 0.1, 1e-10)
                old = parent_solve_anchor(mixed_star, sched, i, t_a, Z, 0.1,
                                          1e-10)
                same_anchor_result(new, old)
                if stacked:
                    seen_blowup |= any(isinstance(e, BlowUpError)
                                       for e in new.errors)
                    assert new.iterations == len(Z)
                else:
                    assert (new.iterations, new.deltas) == (1, [0.0])
        assert seen_blowup == stacked

    def test_lone_blowup_raises_as_the_parent(self, mixed_star):
        sched = make_schedule("epca", window=(-1, 6))
        for solve in (solve_anchor, parent_solve_anchor):
            with pytest.raises(BlowUpError) as ei:
                solve(mixed_star, sched, 1, 1.0, [1.0, 0.0], 0.1, 1e-10)
            if solve is solve_anchor:
                new = ei.value
        assert error_record(new) == error_record(ei.value)

    @pytest.mark.parametrize("tol, max_iter, z", [
        pytest.param(0.0, 7, [0.3, -0.1], id="tol-0"),
        pytest.param(-1.0, 4, [0.3, -0.1], id="tol-negative"),
        pytest.param(1e-10, 0, [0.3, -0.1], id="max_iter-0"),
        pytest.param(1e-10, 50, [np.nan, 0.1], id="nan"),
        pytest.param(1e-10, 50, [0.2, np.inf], id="inf"),
    ])
    def test_no_early_return_raises_as_the_parent(self, mixed_star, tol,
                                                  max_iter, z):
        sched = make_schedule("epca", window=(-1, 6))
        records = []
        for solve in (solve_anchor, parent_solve_anchor):
            with pytest.raises(NonContractionError) as ei, np.errstate(
                    invalid="ignore"):
                solve(mixed_star, sched, 2, 2.0, np.array(z), 0.1, tol,
                      max_iter)
            records.append(error_record(ei.value))
            assert len(ei.value.deltas) == (max_iter if tol <= 0 else
                                            min(max_iter, 1))
        assert records[0] == records[1]

    @pytest.mark.parametrize("tol", [0.0, 1e-10])
    def test_stacked_rows_off_the_early_return_as_the_parent(self, mixed_star,
                                                             tol):
        # tol 0 keeps every row on the loop; a non-finite row keeps the
        # whole stack there, and only that row fails
        sched = make_schedule("epca", window=(-1, 6))
        Z = star_points([0.1])
        Z[2] = [np.nan, 0.0]
        new = solve_anchor(mixed_star, sched, 2, 2.0, Z, 0.1, tol, 5)
        old = parent_solve_anchor(mixed_star, sched, 2, 2.0, Z, 0.1, tol, 5)
        assert [error_record(e) for e in new.errors] == [
            error_record(e) for e in old.errors]
        assert same_bits(new.live, old.live)
        assert new.iterations == old.iterations
        if tol > 0:
            assert isinstance(new.errors[2], NonContractionError)
            assert new.live.sum() == len(Z) - 1
            same_anchor_result(new, old)
        else:
            assert not new.live.any() and new.segment is old.segment is None


class TestZeroFirstDelta:
    """An implicit anchor whose first delta is exactly 0.0 (f = 0, so the w
    the sweeps use never changes the path) settles after one loop sweep on
    its own leg: it is not taken for an explicit anchor."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_settles_on_its_sweep_leg_as_the_parent(self, stacked,
                                                    monkeypatch):
        from epcag.harness import build_system
        sys = build_system({"matrix": [[-1.0, 0.3], [0.0, -0.5]],
                            "nonlinearity": {"name": "zero", "params": {}}})
        sched = make_schedule("alternating", window=(0, 3))  # [1, 3], zeta 2
        z = np.array([[0.9, -0.6], [0.2, 0.4], [-0.5, 0.1]])
        z = z if stacked else z[0]
        calls = []
        rhs = HybridSystem.rhs

        def counted(self, t, z, w):
            calls.append(t)
            return rhs(self, t, z, w)

        monkeypatch.setattr(HybridSystem, "rhs", counted)
        counts, results = [], []
        for solve in (solve_anchor, parent_solve_anchor):
            calls.clear()
            results.append(solve(sys, sched, 1, 1.0, z, 0.1, 1e-12))
            counts.append(len(calls))
        new, old = results
        same_anchor_result(new, old)
        # the seeding sweep and one loop sweep walk [1, 2] (ten RK4 steps
        # and the first node's derivative each); then only [2, 3] is
        # integrated, from the settling sweep's last node and derivative
        assert counts == [2 * (4 * 10 + 1) + 4 * 10] * 2
        assert new.deltas == ([[0.0]] * len(z) if stacked else [0.0])


def star_points(radii, n_random=2, seed=3):
    rng = np.random.default_rng(seed)
    dirs = [np.array(d, dtype=float) for d in ([1, 0], [-1, 0], [0, 1], [0, -1])]
    for _ in range(n_random):
        v = rng.normal(size=2)
        dirs.append(v / np.linalg.norm(v))
    return np.array([r * d for r in radii for d in dirs])


class TestStackedMarch:
    """Stacked rows march as one state; each row is bitwise the row marched
    alone, and a failing row leaves without touching the others."""

    @pytest.mark.parametrize("kind", ["alternating", "epca", "randomized"])
    def test_rows_equal_the_member_by_member_march(self, mixed_star,
                                                   star_schedules, kind):
        sys = mixed_star
        sched, t0 = star_schedules[kind]
        intervals = range(sched.interval_index(t0),
                          sched.interval_index(t0 + 12.0) + 1)
        Z0 = star_points([0.1, 1.0])
        stacked = list(_march(sys, sched, t0, Z0, intervals, 0.25, 1e-10, 50))
        blown = finished = 0
        iteration_counts = set()
        for q, z0 in enumerate(Z0):
            ref, err = [], None
            try:
                for res in _march(sys, sched, t0, z0, intervals, 0.25, 1e-10,
                                  50):
                    ref.append(res)
            except BlowUpError as exc:
                err = exc
            members = np.arange(len(Z0))
            for p, res in enumerate(stacked):
                (r,) = np.flatnonzero(members == q)
                assert res.iterations == sum(len(d) for d in res.deltas)
                if p == len(ref):
                    assert isinstance(res.errors[r], BlowUpError)
                    assert res.errors[r].last_finite_time == err.last_finite_time
                    assert res.errors[r].interval == err.interval
                    blown += 1
                    break
                one = ref[p]
                assert res.errors[r] is None
                assert same_bits(res.segment.ts, one.segment.ts)
                assert same_bits(res.segment.zs[:, r], one.segment.zs)
                assert same_bits(res.segment.dzs[:, r], one.segment.dzs)
                assert same_bits(res.segment.w[r], one.segment.w)
                assert same_bits(res.w[r], one.w)
                assert len(res.deltas[r]) == one.iterations
                assert res.deltas[r] == one.deltas
                assert res.ratios[r] == one.ratios
                assert res.last_delta[r] == one.last_delta
                iteration_counts.add(one.iterations)
                members = members[res.live]
            else:
                assert err is None and len(ref) == len(stacked)
                finished += 1
        assert blown and finished
        if kind != "epca":
            assert len(iteration_counts) > 1

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_rhs_rows_are_the_one_state_values(self, layout):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 6))
        A = {"C": A[:3, :3].copy(), "F": np.asfortranarray(A[:3, :3]),
             "strided": A[::2, 1::2]}[layout]
        sys = HybridSystem(A, lambda t, z, w: 0.1 * np.tanh(w - z), 0.2, 3)
        Z, W = rng.normal(size=(2, 7, 3))
        got = sys.rhs(0.4, Z, W)
        assert same_bits(got, [sys.rhs(0.4, z, w) for z, w in zip(Z, W)])
        assert same_bits(sys.rhs(0.4, Z[2:4], W[2:4]), got[2:4])

    def test_a_blown_row_leaves_the_others_their_step(self):
        # z' = z + 0.5 w until z passes 5: row 1 turns non-finite in the
        # step from node 12; row 0 keeps that step's value and needs only
        # its derivative at node 13, so the path takes one rhs per stage
        calls = []

        def f(t, z, w):
            calls.append(z.shape)
            return 0.5 * w + np.where(z > 5.0, np.inf, 0.0)

        sys = HybridSystem(np.array([[1.0]]), f, 0.5, 1)
        assert sys.f_stacked is f
        ts = np.linspace(0.0, 2.0, 21)
        Z0 = np.array([[0.1], [1.0]])
        calls.clear()
        zs, dzs = _rk4_path(sys, ts, Z0, Z0, 0)
        assert len(calls) == 1 + 4 * 20
        assert calls.count((2, 1)) == 1 + 4 * 12 + 3
        assert np.isfinite(zs[:13, 1]).all() and np.isnan(zs[13:, 1]).all()
        assert np.isnan(dzs[13:, 1]).all()
        assert list(_blow_ups(ts, zs)) == [(1, float(ts[12]))]
        one = _rk4_path(sys, ts, Z0[0], Z0[0], 0)
        assert same_bits(zs[:, 0], one[0]) and same_bits(dzs[:, 0], one[1])


def numpy_rk4(sys, ts, z, w):
    """Reference RK4 path of one state, each step combined on numpy arrays;
    the node after the last one it reaches is non-finite."""
    zs = [z]
    for t, t1 in zip(ts.tolist()[:-1], ts.tolist()[1:]):
        h = t1 - t
        with np.errstate(all="ignore"):
            k1 = sys.rhs(t, z, w)
            k2 = sys.rhs(t + h / 2, z + (h / 2) * k1, w)
            k3 = sys.rhs(t + h / 2, z + (h / 2) * k2, w)
            k4 = sys.rhs(t + h, z + h * k3, w)
            z = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        zs.append(z)
        if not np.isfinite(z).all():
            break
    return np.array(zs)


class TestLoneStage:
    """A lone state takes its linear part with ``A.dot`` and combines each
    step on Python floats: bitwise the numpy expressions."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rhs_is_the_matrix_product_plus_f(self, n, order):
        rng = np.random.default_rng(50 + n)
        A = np.asarray(rng.normal(size=(n, n)), order=order)

        def f(t, z, w):
            return 0.1 * np.tanh(w - z)

        sys = HybridSystem(A, f, 0.2, n)
        for z, w in rng.normal(size=(25, 2, n)):
            assert same_bits(sys.rhs(0.3, z, w),
                             A @ z + np.asarray(f(0.3, z, w), dtype=float))

    @pytest.mark.parametrize("descending", [False, True])
    def test_path_is_the_numpy_step_combination(self, descending):
        rng = np.random.default_rng(9)
        sys = small_random_system(rng, 3, 0.4)
        ts = np.sort(rng.uniform(0.0, 3.0, size=40))
        ts = ts[::-1] if descending else ts
        z0, w = rng.normal(size=(2, 3))
        zs, dzs = _rk4_path(sys, ts, z0, w, 0)
        assert same_bits(zs, numpy_rk4(sys, ts, z0, w))
        assert same_bits(dzs, [sys.rhs(t, z, w) for t, z in zip(ts, zs)])

    def test_blowup_raises_at_the_same_time(self):
        sys = HybridSystem(np.array([[0.0]]),
                           lambda t, z, w: 0.5 * z * z * z, 1.5, 1)
        ts = np.linspace(0.0, 2.0, 21)
        z0 = np.array([1.0])
        with pytest.raises(BlowUpError) as ei:
            _rk4_path(sys, ts, z0, z0, 4)
        ref = numpy_rk4(sys, ts, z0, z0)
        assert ei.value.last_finite_time == ts[len(ref) - 2]
        assert ei.value.interval == 4
        stacked, _ = _rk4_path(sys, ts, z0[None], z0[None], 4)
        assert list(_blow_ups(ts, stacked)) == [(0, ei.value.last_finite_time)]


class TestSolveForward:
    def test_zero_nonlinearity_matrix_exponential(self):
        A = np.array([[-0.4, 0.8], [-0.8, -0.4]])
        sys = HybridSystem(A, lambda t, z, w: np.zeros(2), 0.0, 2)
        sched = make_schedule("epca", window=(0, 6))
        z0 = np.array([1.0, 0.3])
        traj = solve_forward(sys, sched, 0.0, z0, 5.0, 0.05, 1e-10)
        for t in np.linspace(0.0, 5.0, 21):
            np.testing.assert_allclose(traj.eval(t), sla.expm(A * t) @ z0,
                                       atol=1e-6)

    def test_epca_linear_closed_form(self):
        a, b = -1.0, 0.25
        sys = HybridSystem(np.array([[a]]), lambda t, z, w: b * w, abs(b), 1)
        sched = make_schedule("epca", window=(0, 6))
        traj = solve_forward(sys, sched, 0.0, np.array([1.0]), 5.0, 0.05, 1e-12)
        rho = math.exp(a) + (b / a) * (math.exp(a) - 1.0)
        zi = 1.0
        for i in range(5):
            for t in np.linspace(i, i + 1.0, 7):
                exact = (math.exp(a * (t - i))
                         + (b / a) * (math.exp(a * (t - i)) - 1.0)) * zi
                assert abs(traj.eval(t)[0] - exact) <= 1e-6 * abs(exact)
            zi *= rho

    def test_continuous_dependence_bound(self, tanh_system):
        sched = make_schedule("epca", window=(0, 3))
        l, theta = tanh_system.lipschitz_l, sched.theta_bound
        M = math.exp(np.linalg.norm(tanh_system.A, 2) * theta)
        x = M * l * theta
        bound_coef = M * math.exp(x) * (1.0 + x / (1.0 - x * math.exp(x)))
        z0a = np.array([0.5, 0.2])
        z0b = np.array([0.45, 0.28])
        ta = solve_forward(tanh_system, sched, 0.0, z0a, 1.0, 0.02, 1e-11)
        tb = solve_forward(tanh_system, sched, 0.0, z0b, 1.0, 0.02, 1e-11)
        lim = bound_coef * np.linalg.norm(z0a - z0b)
        for t in np.linspace(0.0, 1.0, 9):
            assert np.linalg.norm(ta.eval(t) - tb.eval(t)) <= lim

    def test_segment_continuity(self, tanh_system):
        sched = make_schedule("epca", window=(0, 6))
        step = 0.05
        traj = solve_forward(tanh_system, sched, 0.0, np.array([1.0, 0.5]),
                             5.0, step, 1e-10)
        for left, right in zip(traj.segments[:-1], traj.segments[1:]):
            t = right.t_left
            gap = np.linalg.norm(left.value_at_node(t) - right.value_at_node(t))
            assert gap < 10.0 * step**4

    def test_anchor_consistency(self, tanh_system):
        sched = make_schedule("epca", window=(0, 6))
        tol = 1e-9
        traj = solve_forward(tanh_system, sched, 0.0, np.array([1.0, 0.5]),
                             5.0, 0.05, tol)
        anchors = {d.segment.index: d.w for d in traj.diagnostics}
        for i, w in anchors.items():
            np.testing.assert_allclose(traj.eval(sched.zeta(i)), w, atol=tol)

    def test_step_halving_agreement(self, tanh_system):
        sched = make_schedule("epca", window=(0, 6))
        t1 = solve_forward(tanh_system, sched, 0.0, np.array([1.0, 0.5]),
                           5.0, 0.05, 1e-11)
        t2 = solve_forward(tanh_system, sched, 0.0, np.array([1.0, 0.5]),
                           5.0, 0.025, 1e-11)
        diff = max(np.linalg.norm(t1.eval(t) - t2.eval(t))
                   for t in np.linspace(0.0, 5.0, 21))
        assert diff <= 50.0 * 0.05**4

    def test_randomized_schedule_march(self, tanh_system):
        sched = make_schedule("randomized", window=(0, 12), theta_bound=1.0,
                              seed=31)
        t_end = sched.theta(10)
        traj = solve_forward(tanh_system, sched, sched.t_min,
                             np.array([1.0, 0.4]), t_end, 0.05, 1e-10)
        back = solve_backward(tanh_system, sched, t_end, traj.eval(t_end),
                              sched.t_min, 0.05, 1e-10)
        assert np.linalg.norm(back.eval(sched.t_min) - [1.0, 0.4]) < 1e-7
        anchors = {d.segment.index: d.w for d in traj.diagnostics}
        for i, w in anchors.items():
            np.testing.assert_allclose(traj.eval(sched.zeta(i)), w, atol=1e-9)

    def test_semigroup_consistency(self, tanh_system):
        sched = make_schedule("epca", window=(0, 6))
        tol = 1e-10
        z0 = np.array([0.8, -0.3])
        whole = solve_forward(tanh_system, sched, 0.3, z0, 4.0, 0.05, tol)
        first = solve_forward(tanh_system, sched, 0.3, z0, 2.0, 0.05, tol)
        second = solve_forward(tanh_system, sched, 2.0, first.eval(2.0), 4.0,
                               0.05, tol)
        for t in np.linspace(2.0, 4.0, 9):
            assert np.linalg.norm(whole.eval(t) - second.eval(t)) <= 10 * tol + 1e-9


class TestRoundTrip:
    """Forward continuation followed by backward continuation from its end
    point returns to the start: the marcher's two directions invert each
    other up to the integration error."""

    @settings(max_examples=8)
    @given(omega=st.floats(0.5, 1.5), damping=st.floats(0.0, 0.3),
           amp=st.floats(0.0, 0.05), phi=st.floats(0.0, 2.0 * math.pi),
           seed=st.integers(0, 2**31 - 1))
    def test_forward_then_backward(self, omega, damping, amp, phi, seed):
        A = np.array([[-damping, omega], [-omega, -damping]])
        sys = HybridSystem(A, lambda t, z, w: amp * np.tanh(w[..., ::-1]),
                           amp, 2)
        sched = make_schedule("randomized", window=(0, 20), theta_bound=1.0,
                              seed=seed)
        z0 = 0.5 * np.array([math.cos(phi), math.sin(phi)])
        t0, t_end = sched.t_min, sched.theta(12)
        fwd = solve_forward(sys, sched, t0, z0, t_end, 0.05, 1e-10)
        back = solve_backward(sys, sched, t_end, fwd.eval(t_end), t0, 0.05,
                              1e-10)
        assert np.linalg.norm(back.eval(t0) - z0) <= 1e-5


class TestSolveBackward:
    def test_zero_nonlinearity(self):
        A = np.array([[-0.4, 0.8], [-0.8, -0.4]])
        sys = HybridSystem(A, lambda t, z, w: np.zeros(2), 0.0, 2)
        sched = make_schedule("epca", window=(-6, 2))
        z0 = np.array([1.0, 0.3])
        traj = solve_backward(sys, sched, 0.0, z0, -5.0, 0.05, 1e-10)
        for t in np.linspace(-5.0, 0.0, 11):
            np.testing.assert_allclose(traj.eval(t), sla.expm(A * t) @ z0,
                                       atol=1e-6)

    def test_example1_backward_nonuniqueness(self):
        # Closed-form oracle: z_j(1) = e^3 z_j - (z_j^2/3)(e^3 - 1), so two
        # solutions from t = 0 collide at t = 1 iff z0 + z1 = 3 e^3/(e^3 - 1)
        # (variation of constants for the interval rate z' = 3z - z_j^2).
        z0 = 1.0
        z1 = 3.0 * E3 / (E3 - 1.0) - z0
        assert abs(example1_interval_exact(z0, 1.0)
                   - example1_interval_exact(z1, 1.0)) < 1e-10
        sys, sched = example1_system()
        # numerical confirmation of the collision through the solver
        ta = solve_forward(sys, sched, 0.0, np.array([z0]), 1.0, 0.005, 1e-12)
        tb = solve_forward(sys, sched, 0.0, np.array([z1]), 1.0, 0.005, 1e-12)
        assert abs(ta.eval(1.0)[0] - tb.eval(1.0)[0]) <= 1e-8
        # the backward continuation from the collision point cannot be pinned
        # down: the anchor iteration fails to contract
        z_coll = example1_interval_exact(z0, 1.0)
        with pytest.raises(NonContractionError) as ei:
            solve_backward(sys, sched, 1.0, np.array([z_coll]), -1.0, 0.02,
                           1e-10, 40)
        assert any(r > 1.0 for r in ei.value.ratios)

    def test_warning_flag_when_ratio_exceeds_one_but_converges(self):
        # saturating anchor coupling: the iteration expands at ratio 1.3 near
        # the origin, then the saturation pins the fixed point, so the run
        # converges but must carry the non-uniqueness warning
        def f(t, z, w):
            return 1.3 * np.clip(w, -0.5, 0.5)

        sys = HybridSystem(np.array([[0.0]]), f, 1.3, 1, probe_radius=0.4)
        sched = make_schedule("explicit", thetas=[-1.0, 0.0, 1.0],
                              zetas=[0.0, 1.0], i_min=-1)
        traj = solve_forward(sys, sched, 0.0, np.array([0.01]), 1.0, 0.1,
                             1e-12)
        assert traj.nonuniqueness_warning
        assert traj.eval(1.0)[0] == pytest.approx(0.01 + 1.3 * 0.5, abs=1e-9)
        back = solve_backward(sys, sched, 1.0, traj.eval(1.0), 0.0, 0.1, 1e-12)
        assert back.eval(0.0)[0] == pytest.approx(0.01, abs=1e-8)

    def test_round_trip(self, tanh_system):
        sched = make_schedule("epca", window=(0, 6))
        tol = 1e-10
        z0 = np.array([0.7, -0.2])
        fwd = solve_forward(tanh_system, sched, 1.0, z0, 4.0, 0.02, tol)
        back = solve_backward(tanh_system, sched, 4.0, fwd.eval(4.0), 1.0,
                              0.02, tol)
        assert np.linalg.norm(back.eval(1.0) - z0) <= 10 * tol + 1e-8


class TestTrajectoryLookup:
    """Bisection in segment_for, against the linear scan it replaced, and
    the one-pass array evaluation against the pointwise one."""

    @staticmethod
    def scan(traj, t):  # the linear scan: the first segment holding t wins
        for seg in traj.segments:
            if seg.t_left - 1e-12 <= t <= seg.t_right + 1e-12:
                return seg
        raise ValueError(t)

    @pytest.fixture(scope="class")
    def backward(self, tanh_system):
        sched = make_schedule("randomized", window=(0, 12), theta_bound=1.2,
                              seed=4, t_start=0.0)
        t_end = float(sched.thetas[-2])
        traj = solve_backward(tanh_system, sched, t_end, np.array([0.6, -0.3]),
                              float(sched.thetas[1]) + 0.3, 0.05, 1e-10)
        return traj

    def test_left_segment_wins_at_every_breakpoint(self, backward):
        segs = backward.segments
        assert len(segs) >= 8
        assert [s.index for s in segs] == sorted(s.index for s in segs)
        for left, right in zip(segs, segs[1:]):
            th = left.t_right
            assert right.t_left == th
            for t in (th, th - 5e-13, th + 5e-13):
                assert backward.segment_for(t) is left
            assert backward.segment_for(th + 2e-12) is right
        assert backward.segment_for(segs[0].t_left - 5e-13) is segs[0]
        assert backward.segment_for(segs[-1].t_right + 5e-13) is segs[-1]
        for t in (segs[0].t_left - 2e-12, segs[-1].t_right + 2e-12, np.nan):
            with pytest.raises(ValueError, match="outside"):
                backward.segment_for(t)

    def test_bisection_matches_the_scan(self, backward):
        segs = backward.segments
        ts = np.concatenate([np.linspace(segs[0].t_left, segs[-1].t_right, 301)]
                            + [s.ts for s in segs])
        for t in ts:
            assert backward.segment_for(t) is self.scan(backward, t)

    def test_array_eval_is_the_pointwise_eval(self, backward):
        segs = backward.segments
        ts = np.concatenate([np.linspace(segs[0].t_left - 5e-13,
                                         segs[-1].t_right + 5e-13, 401)]
                            + [[s.t_left, s.t_right] for s in segs])
        got = backward.eval(ts)
        assert got.shape == (len(ts), 2)
        assert same_bits(got, np.array([backward.eval(t) for t in ts]))
        with pytest.raises(ValueError, match="outside"):
            backward.eval(np.array([segs[0].t_left, segs[-1].t_right + 1e-9]))

    def test_blowup_time_and_interval(self):
        # z' = z^3 / 2 from z(0) = 1 blows up at t = 1; RK4 with step 0.1
        # stays finite up to the node 1.1 of interval 1
        sys = HybridSystem(np.array([[0.0]]),
                           lambda t, z, w: np.array([0.5 * z[0] ** 3]), 1.5, 1)
        sched = make_schedule("epca", window=(0, 30))
        with pytest.raises(BlowUpError) as ei:
            solve_forward(sys, sched, 0.0, np.array([1.0]), 29.0, 0.1, 1e-10)
        assert ei.value.interval == 1
        assert ei.value.last_finite_time == pytest.approx(1.1, abs=1e-12)


class TestExport:
    def test_csv_and_report(self, tanh_system, tmp_path):
        from epcag import trajectory_report, write_trajectory_csv

        sched = make_schedule("epca", window=(0, 4))
        traj = solve_forward(tanh_system, sched, 0.0, np.array([1.0, 0.5]),
                             3.0, 0.25, 1e-9)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,z_1,z_2,interval_index"
        assert len(lines) > 10
        rep = trajectory_report(traj)
        assert rep["direction"] == "forward"
        assert len(rep["intervals"]) == 3
        assert all("contraction_ratios" in d for d in rep["intervals"])
