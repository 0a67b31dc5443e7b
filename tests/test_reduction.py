import json

import numpy as np
import pytest

from epcag import (
    CenterEvaluator,
    HybridSystem,
    asymptotic_phase,
    build_reduced,
    classify_stability,
    compute_constants,
    make_schedule,
    reduction_check,
    solve_forward,
    spectral_split,
)
from epcag import reduction
from epcag.harness import ExperimentConfig, build_system, run
from epcag.errors import (BlowUpError, DegenerateDimensionError,
                          NonContractionError, ParameterError)
from epcag.manifolds import _block_f
from epcag.solver import _march


def center_cubic_system(a=0.012, sign=-1.0, eps=None):
    eps = a if eps is None else eps

    def f(t, z, w):
        return np.array([eps * w[1] ** 2 / (1 + w[1] ** 2),
                         sign * a * z[1] ** 3 / (1 + z[1] ** 2)])

    return HybridSystem(np.diag([-1.0, 0.0]), f, max(1.125 * a, 0.6495 * eps), 2)


@pytest.fixture(scope="module")
def cubic_stack():
    sys = center_cubic_system()
    sched = make_schedule("epca", window=(-60, 80))
    split = spectral_split(sys.A)
    bundle = compute_constants(sys.A, split, sched, sys.lipschitz_l, alpha=0.25)
    g_eval = CenterEvaluator(sys, sched, split, bundle, box=2.0, resolution=9,
                             tol=1e-6, quad_step=0.1, time_period=1.0,
                             time_subdiv=2)
    return sys, sched, split, bundle, g_eval


class TestBuildReduced:
    def test_zero_nonlinearity_reduces_to_linear_part(self):
        sys = HybridSystem(np.diag([-1.0, 0.0]), lambda t, z, w: np.zeros(2),
                           0.0, 2)
        sched = make_schedule("epca", window=(-40, 60))
        split = spectral_split(sys.A)
        bundle = compute_constants(sys.A, split, sched, 0.0, alpha=0.25)
        g_eval = CenterEvaluator(sys, sched, split, bundle, box=2.0,
                                 resolution=5, tol=1e-8, time_period=1.0,
                                 time_subdiv=1)
        red = build_reduced(sys, sched, split, g_eval)
        assert red.dim == 1
        np.testing.assert_allclose(red.A, split.B_minus)
        for v in (0.5, -1.0):
            wb = red.anchor_argument(0.3, np.array([v]))
            assert abs(red.f(0.3, np.array([v]), wb)[0]) < 1e-10

    def test_degenerate_when_everything_decays(self):
        sys = HybridSystem(np.diag([-1.0, -2.0]), lambda t, z, w: np.zeros(2),
                           0.0, 2)
        sched = make_schedule("epca", window=(0, 10))
        split = spectral_split(sys.A)
        bundle = compute_constants(sys.A, split, sched, 0.0, alpha=0.25)
        g_eval = None
        with pytest.raises(DegenerateDimensionError):
            build_reduced(sys, sched, split, g_eval)

    def test_first_order_perturbation_oracle(self, cubic_stack):
        # f_- here depends only on the neutral coordinate, so the reduced
        # rate equals the catalog cubic exactly; the graph correction enters
        # only through f_+ and vanishes from the reduced right-hand side.
        sys, sched, split, bundle, g_eval = cubic_stack
        red = build_reduced(sys, sched, split, g_eval)
        a = 0.012
        for v in (0.5, -0.8, 1.5):
            wb = red.anchor_argument(0.0, np.array([v]))
            got = red.f(0.0, np.array([v]), wb)[0]
            want = -a * v**3 / (1 + v**2)
            assert got == pytest.approx(want, abs=1e-12)

    def test_reduced_with_graph_feedback_is_first_order_close(self):
        # add a genuine decaying-coordinate feedback to the neutral rate:
        # the reduced system then differs from the bare cubic by O(l^2)
        a = 0.005

        def f(t, z, w):
            u, v = z
            return np.array([a * w[1] ** 2 / (1 + w[1] ** 2),
                             -a * v**3 / (1 + v**2)
                             + a * u * v / (1 + u**2 + v**2)])

        sys = HybridSystem(np.diag([-1.0, 0.0]), f, 2.5 * a, 2)
        sched = make_schedule("epca", window=(-60, 80))
        split = spectral_split(sys.A)
        bundle = compute_constants(sys.A, split, sched, sys.lipschitz_l,
                                   alpha=0.25)
        g_eval = CenterEvaluator(sys, sched, split, bundle, box=2.0,
                                 resolution=9, tol=1e-7, quad_step=0.1,
                                 time_period=1.0, time_subdiv=2)
        red = build_reduced(sys, sched, split, g_eval)
        for v in (0.5, -0.8, 1.2):
            wb = red.anchor_argument(0.0, np.array([v]))
            got = red.f(0.0, np.array([v]), wb)[0]
            bare = -a * v**3 / (1 + v**2)
            assert abs(got - bare) <= 30.0 * a**2
        assert red.lipschitz_l > sys.lipschitz_l

    @staticmethod
    def reduced_cubic(matrix):
        """The reduced system of the damped center-cubic family on ``matrix``
        over reduce-damped's epca window and periodic cache."""
        sys = build_system({"matrix": matrix,
                            "nonlinearity": {"name": "center-cubic",
                                             "params": {"a": 0.012}}})
        sched = make_schedule("epca", window=(-60, 80))
        split = spectral_split(sys.A)
        bundle = compute_constants(sys.A, split, sched, sys.lipschitz_l,
                                   alpha=0.25)
        g_eval = CenterEvaluator(sys, sched, split, bundle, box=2.0,
                                 resolution=5, tol=1e-6, quad_step=0.1,
                                 time_period=1.0, time_subdiv=1)
        return split, build_reduced(sys, sched, split, g_eval)

    def test_identity_split_keeps_the_stacked_call(self):
        # reduce-damped's split: a fall back to the per-row loop would slow
        # every stacked stage and show in no output
        split, red = self.reduced_cubic([[-1.0, 0.0], [0.0, 0.0]])
        assert split.is_identity_transform
        assert red.f_stacked is red.f

    def test_non_identity_split_keeps_the_stacked_call(self):
        # the block transform maps each row with its own product, so a
        # stacked f_red call is bitwise its per-row calls
        split, red = self.reduced_cubic([[-1.0, 0.0], [0.3, 0.0]])
        assert not split.is_identity_transform
        assert red.f_stacked is red.f


def anchored_system(a=0.012, eps=0.012, amp=0.005):
    """The damped center-cubic family with the neutral rate also fed by the
    anchored decaying component, so f_minus reads the anchor's point on the
    center surface:

        f = (eps w_2^2 / (1 + w_2^2), amp tanh(w_1) - a z_2^3 / (1 + z_2^2))
    """

    def f(t, z, w):
        w1, w2, z2 = w.T[0], w.T[1], z.T[1]
        return np.array([eps * w2 * w2 / (1 + w2 * w2),
                         amp * np.tanh(w1) - a * z2**3 / (1 + z2 * z2)]).T

    return HybridSystem(np.diag([-1.0, 0.0]), f,
                        max(0.6495 * eps + amp, 1.125 * a), 2)


@pytest.fixture(scope="module")
def anchored_stacks():
    """``(kind, resolution) -> (sys, sched, split, g_eval, reduced)`` for
    :func:`anchored_system` on an alternating or a randomized schedule,
    cached without ``time_period``, so G varies from anchor to anchor.
    Each stack is built on first use."""
    built = {}

    def get(kind, resolution):
        if (kind, resolution) not in built:
            sys = anchored_system()
            sched = (make_schedule("alternating", window=(-25, 30))
                     if kind == "alternating" else
                     make_schedule("randomized", window=(-60, 40),
                                   theta_bound=1.0, seed=5, t_start=-45.0))
            split = spectral_split(sys.A)
            bundle = compute_constants(sys.A, split, sched, sys.lipschitz_l,
                                       alpha=0.25)
            g_eval = CenterEvaluator(sys, sched, split, bundle, box=1.0,
                                     resolution=resolution, tol=1e-7,
                                     quad_step=0.2, time_period=None)
            built[kind, resolution] = (sys, sched, split, g_eval,
                                       build_reduced(sys, sched, split, g_eval))
        return built[kind, resolution]

    return get


class TestReducedAnchor:
    """On interval i the reduced nonlinearity reads the anchor's point on the
    center surface, (G(zeta_i, vbar), vbar), at every stage, end nodes
    included."""

    V0 = np.array([0.6])

    def march(self, stack):
        """The reduced solution from (zeta_i, V0) over four intervals."""
        _, sched, _, _, red = stack
        i = sched.interval_index(5.0)
        t0, t_end = sched.zeta(i), sched.theta(i + 4)
        return t0, t_end, solve_forward(red, sched, t0, self.V0, t_end, 0.25,
                                        1e-10)

    @pytest.mark.parametrize("kind", ["alternating", "randomized"])
    def test_end_node_derivatives_read_the_intervals_own_anchor(
            self, kind, anchored_stacks):
        sys, sched, split, g_eval, red = stack = anchored_stacks(kind, 9)
        fblock = _block_f(sys.f_stacked, split)
        _, _, traj = self.march(stack)
        for seg in traj.segments:
            vbar = seg.w
            wb = np.concatenate([g_eval.at(sched.zeta(seg.index), vbar), vbar])
            for j in (0, -1):
                t, v = seg.ts[j], seg.zs[j]
                zb = np.concatenate([g_eval.at(t, v), v])
                f_minus = fblock(np.array([t]), zb[None], wb[None])[0, split.k:]
                want = red.A.dot(v) + f_minus
                assert seg.dzs[j].tobytes() == want.tobytes(), (seg.index, j)

    @pytest.mark.parametrize("kind", ["alternating", "randomized"])
    def test_on_surface_start_follows_the_reduced_solution(
            self, kind, anchored_stacks):
        # the full solution from (G(t0, v0), v0) stays on the surface, so its
        # neutral part is the reduced solution up to the cache's
        # interpolation error, which shrinks on a finer cache
        full, gaps = None, []
        for resolution in (5, 9):
            sys, sched, split, g_eval, _ = stack = anchored_stacks(kind,
                                                                   resolution)
            t0, t_end, reduced = self.march(stack)
            if full is None:  # G(t0, v0) solved exactly, not read from a cache
                z0 = np.concatenate([g_eval.point(t0, self.V0), self.V0])
                full = solve_forward(sys, sched, t0, z0, t_end, 0.25, 1e-10)
            ts = np.linspace(t0, t_end, 101)
            gap = split.to_block(full.eval(ts))[:, split.k:] - reduced.eval(ts)
            gaps.append(float(np.max(np.abs(gap))))
        assert gaps[0] <= 1e-5
        assert gaps[1] <= 0.5 * gaps[0]


class TestAsymptoticPhase:
    def test_on_surface_start_is_its_own_companion(self, cubic_stack):
        from epcag import eval_G

        sys, sched, split, bundle, g_eval = cubic_stack
        v0 = 0.6
        u0 = eval_G(sys, sched, split, bundle, 0.0, [v0], tol=1e-11).value[0]
        res = asymptotic_phase(sys, sched, split, bundle, 0.0,
                               np.array([u0, v0]), tol=1e-9)
        assert res.ball_radius < 1e-8
        assert res.d_star[0] == pytest.approx(v0, abs=1e-8)
        assert res.report.max_weighted < 1e-5

    def test_linear_decoupled_oracle(self):
        sys = HybridSystem(np.diag([-1.0, 0.0]), lambda t, z, w: np.zeros(2),
                           0.0, 2)
        sched = make_schedule("epca", window=(-60, 80))
        split = spectral_split(sys.A)
        bundle = compute_constants(sys.A, split, sched, 0.0, alpha=0.25)
        res = asymptotic_phase(sys, sched, split, bundle, 0.0,
                               np.array([1.0, 1.0]), tol=1e-10)
        assert res.d_star[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(res.companion.eval(0.0), [0.0, 1.0],
                                   atol=1e-12)
        # |z - mu| = e^{-(t - zeta)} exactly, so the weighted distance is
        # e^{-(1 - alpha) t} with maximum 1 at t = 0
        assert res.report.max_weighted == pytest.approx(1.0, abs=1e-6)
        assert res.report.bounded

    def test_decay_stays_in_theoretical_envelope(self, cubic_stack):
        sys, sched, split, bundle, g_eval = cubic_stack
        rng = np.random.default_rng(17)
        for _ in range(3):
            z0 = rng.normal(size=2) * 0.3
            res = asymptotic_phase(sys, sched, split, bundle, 0.0, z0,
                                   tol=1e-8)
            assert res.report.max_weighted <= 1.1 * res.report.bound + 1e-9


class TestClassify:
    def test_pure_decay_exponential_rate(self):
        sys = HybridSystem(np.array([[-1.0]]), lambda t, z, w: np.zeros(1),
                           0.0, 1)
        sched = make_schedule("epca", window=(-1, 30))
        v = classify_stability(sys, sched, radii=[0.1, 0.01], horizon=20.0,
                               t0_samples=[0.0, 2.0], n_random_dirs=2,
                               step=0.2, seed=1)
        assert v.classification == "exponential"
        assert v.rate == pytest.approx(1.0, abs=0.05)

    def test_cubic_damping_algebraic_not_exponential(self):
        sys = HybridSystem(np.array([[0.0]]),
                           lambda t, z, w: np.array([-z[0] ** 3]), 3.0, 1)
        sched = make_schedule("epca", window=(-1, 820))
        v = classify_stability(sys, sched, radii=[1.0], horizon=800.0,
                               t0_samples=[0.0], n_random_dirs=0, step=0.25,
                               final_frac=0.05, seed=1)
        assert v.classification == "asymptotically-stable"
        # closed-form oracle |v(t)| = (v0^-2 + 2t)^{-1/2}
        oracle = (1.0 + 2.0 * 800.0) ** -0.5
        finals = [e[2] for e in v.evidence]
        for fin in finals:
            assert fin == pytest.approx(oracle, rel=1e-4)

    def test_cubic_blowup_unstable(self):
        sys = HybridSystem(np.array([[0.0]]),
                           lambda t, z, w: np.array([+z[0] ** 3]), 3.0, 1)
        sched = make_schedule("epca", window=(-1, 30))
        v = classify_stability(sys, sched, radii=[1.0], horizon=20.0,
                               t0_samples=[0.0], n_random_dirs=0, step=0.25)
        assert v.classification == "unstable"
        assert any(not np.isfinite(e[1]) for e in v.evidence)

    def test_neutral_direction_stable_only(self):
        sys = HybridSystem(np.array([[0.0]]), lambda t, z, w: np.zeros(1),
                           0.0, 1)
        sched = make_schedule("epca", window=(-1, 30))
        v = classify_stability(sys, sched, radii=[0.1], horizon=20.0,
                               t0_samples=[0.0], n_random_dirs=0, step=0.2)
        assert v.classification == "stable"

    def test_radius_shrink_never_flips_stable_to_unstable(self):
        sys = HybridSystem(np.array([[-1.0]]), lambda t, z, w: np.zeros(1),
                           0.0, 1)
        sched = make_schedule("epca", window=(-1, 30))
        big = classify_stability(sys, sched, radii=[0.1], horizon=20.0,
                                 t0_samples=[0.0], n_random_dirs=0, step=0.2)
        small = classify_stability(sys, sched, radii=[0.001], horizon=20.0,
                                   t0_samples=[0.0], n_random_dirs=0, step=0.2)
        for v in (big, small):
            assert v.classification in ("stable", "asymptotically-stable",
                                        "exponential")

    def test_evidence_excursion_dominates_final(self):
        sys = HybridSystem(np.array([[-1.0]]), lambda t, z, w: np.zeros(1),
                           0.0, 1)
        sched = make_schedule("epca", window=(-1, 30))
        v = classify_stability(sys, sched, radii=[0.1], horizon=20.0,
                               t0_samples=[0.0], n_random_dirs=2, step=0.2)
        for radius, exc, fin, hor in v.evidence:
            assert exc >= fin


class TestClassifierMarch:
    """The classifier's per-direction march is the solver's march."""

    def test_final_norm_is_forward_solution_at_horizon(self):
        sys = HybridSystem(np.array([[-0.5]]),
                           lambda t, z, w: 0.1 * np.tanh(w), 0.1, 1)
        sched = make_schedule("alternating", window=(-1, 10))
        t0, horizon, radius = 0.3, 10.0, 0.4
        v = classify_stability(sys, sched, radii=[radius], horizon=horizon,
                               t0_samples=[t0], n_random_dirs=0, step=0.1)
        _, _, final_norm, t_reached = v.evidence[0]     # direction +e_1
        traj = solve_forward(sys, sched, t0, np.array([radius]), t0 + horizon,
                             0.1, 1e-8)
        assert t_reached == horizon
        assert final_norm == abs(traj.eval(t0 + horizon)[0])

    def test_escape_stops_before_horizon(self):
        sys = HybridSystem(np.array([[0.5]]), lambda t, z, w: np.zeros(1),
                           0.0, 1)
        sched = make_schedule("epca", window=(-1, 30))
        v = classify_stability(sys, sched, radii=[0.1], horizon=20.0,
                               t0_samples=[0.0], n_random_dirs=0, step=0.2)
        assert v.classification == "unstable"
        _, max_exc, final_norm, t_reached = v.evidence[0]
        assert max_exc > 1.0 and t_reached < 20.0
        traj = solve_forward(sys, sched, 0.0, np.array([0.1]), t_reached,
                             0.2, 1e-8)
        assert final_norm == abs(traj.eval(t_reached)[0])


def member_by_member_star(sys, sched, t0, horizon, intervals, star, step, tol,
                          max_iter):
    """Reference for the stacked star march: every member marched alone, in
    star order, stopping at its escape or blow-up."""
    t_end = t0 + horizon
    out = []
    for radius, direction in star:
        z0 = radius * direction
        max_exc = float(np.linalg.norm(z0))
        env_ts, env_ns = [0.0], [max_exc]
        escaped, final_norm, t_reached = False, max_exc, 0.0
        try:
            for res in _march(sys, sched, t0, z0, intervals, step, tol,
                              max_iter):
                seg = res.segment
                mask = (seg.ts >= t0 - 1e-12) & (seg.ts <= t_end + 1e-12)
                norms = np.linalg.norm(seg.zs[mask], axis=1)
                env_ts.extend(np.asarray(seg.ts[mask]) - t0)
                env_ns.extend(norms)
                max_exc = max(max_exc, float(np.max(norms)))
                final_norm = float(norms[-1])
                t_reached = min(sched.theta(seg.index + 1), t_end) - t0
                if max_exc > reduction.ESCAPE_FACTOR * radius:
                    escaped = True
                    break
                if seg.index == intervals[-1]:
                    final_norm = float(np.linalg.norm(seg.eval(t_end)))
                    t_reached = horizon
        except BlowUpError as err:
            escaped = True
            max_exc = final_norm = float("inf")
            t_reached = max(t_reached, err.last_finite_time - t0)
        env = None if escaped else (np.asarray(env_ts), np.asarray(env_ns))
        out.append((radius, max_exc, final_norm, t_reached, escaped, env))
    return out


class TestStackedStar:
    """classify_stability marches each start time's star as one stacked
    state; its verdict equals the member-by-member march bit for bit."""

    def classify_both(self, monkeypatch, sys, sched, **kwargs):
        stacked = classify_stability(sys, sched, **kwargs).as_dict()
        monkeypatch.setattr(reduction, "_march_star", member_by_member_star)
        alone = classify_stability(sys, sched, **kwargs).as_dict()
        return stacked, alone

    @pytest.mark.parametrize("kind", ["alternating", "epca", "randomized"])
    def test_mixed_star_verdict(self, monkeypatch, mixed_star, star_schedules,
                                kind):
        sched, t0 = star_schedules[kind]
        stacked, alone = self.classify_both(
            monkeypatch, mixed_star, sched, radii=[0.1, 1.0],
            horizon=12.0, t0_samples=[t0], n_random_dirs=2, step=0.25,
            tol=1e-10)
        assert stacked == alone
        assert stacked["classification"] == "unstable"
        ev = stacked["evidence"]
        # bounded members, members that escaped before the horizon and
        # members that blew up
        assert any(e["horizon"] == 12.0 for e in ev)
        assert any(np.isfinite(e["max_excursion"]) and e["horizon"] < 12.0
                   for e in ev)
        assert any(not np.isfinite(e["max_excursion"]) for e in ev)

    def test_bounded_star_fit(self, monkeypatch):
        sys = HybridSystem(np.diag([-1.0, -0.4]),
                           lambda t, z, w: 0.05 * np.tanh(w[..., ::-1]), 0.05, 2)
        sched = make_schedule("alternating", window=(-1, 14))
        stacked, alone = self.classify_both(
            monkeypatch, sys, sched, radii=[0.2, 0.5], horizon=20.0,
            t0_samples=[0.0, 1.3], n_random_dirs=3, step=0.2)
        assert stacked == alone
        assert stacked["classification"] == "exponential"

    def test_non_contraction_is_the_first_failing_member(self, mixed_star,
                                                          star_schedules):
        # tol 0 never settles an implicit anchor; the unit members along
        # +-e_1 blow up in their first sweep and escape, so the member along
        # e_2 is the first to fail
        sys = mixed_star
        sched, t0 = star_schedules["alternating"]
        intervals = range(sched.interval_index(t0),
                          sched.interval_index(t0 + 6.0) + 1)
        with pytest.raises(NonContractionError) as ref:
            list(_march(sys, sched, t0, np.array([0.0, 1.0]), intervals,
                        0.25, 0.0, 5))
        with pytest.raises(NonContractionError) as got:
            classify_stability(sys, sched, radii=[1.0, 0.5], horizon=6.0,
                               t0_samples=[t0], n_random_dirs=2, step=0.25,
                               tol=0.0, max_iter=5)
        assert got.value.interval == ref.value.interval
        assert got.value.deltas == ref.value.deltas
        assert got.value.ratios == ref.value.ratios
        assert got.value.max_iter == ref.value.max_iter == 5


class TestReductionCheck:
    def test_zero_family_agrees_stable(self):
        sys = HybridSystem(np.diag([-1.0, 0.0]), lambda t, z, w: np.zeros(2),
                           0.0, 2)
        sched = make_schedule("epca", window=(-40, 60))
        split = spectral_split(sys.A)
        bundle = compute_constants(sys.A, split, sched, 0.0, alpha=0.25)
        g_eval = CenterEvaluator(sys, sched, split, bundle, box=2.0,
                                 resolution=5, tol=1e-8, time_period=1.0,
                                 time_subdiv=1)
        res = reduction_check(sys, sched, split, bundle, g_eval,
                              radii=[0.1], horizon=20.0, t0_samples=[0.0],
                              n_random_dirs=2, step=0.2)
        assert res.full.classification == "stable"
        assert res.reduced.classification == "stable"
        assert res.agree

    def test_precondition_failure_raises(self):
        big = 0.5

        def f(t, z, w):
            return np.array([0.0, big * np.tanh(w[0])])

        sys = HybridSystem(np.diag([-1.0, 0.0]), f, big, 2)
        sched = make_schedule("epca", window=(-40, 60))
        split = spectral_split(sys.A)
        bundle = compute_constants(sys.A, split, sched, big, alpha=0.25)
        with pytest.raises(ParameterError) as ei:
            reduction_check(sys, sched, split, bundle, None, radii=[0.1],
                            horizon=10.0, t0_samples=[0.0])
        assert "smallness" in str(ei.value)

    def test_randomized_schedule_agrees_asymptotically_stable(self, tmp_path):
        """The Reduction Principle off EPCA: anchors inside their intervals
        and an aperiodic cache, whose time nodes lie on every breakpoint and
        anchor, through the ``reduce`` recipe."""
        cfg = {
            "recipe": "reduce",
            "system": {"matrix": [[-1.0, 0.0], [0.0, 0.0]],
                       "nonlinearity": {"name": "center-cubic",
                                        "params": {"a": 0.012, "sign": -1.0}}},
            "schedule": {"kind": "randomized", "window": [-40, 60],
                         "theta_bound": 1.0, "seed": 3},
            "solver": {"step": 0.25, "tol": 1e-8},
            "manifold": {"tol": 1e-5, "quad_step": 0.1, "cache_box": 6.0,
                         "cache_resolution": 13},
            "stability": {"radii": [0.5], "horizon": 30.0, "t0_samples": [0.0],
                          "final_frac": 0.99, "n_random_dirs": 0, "step": 0.25},
        }
        assert run(ExperimentConfig.from_dict(cfg), tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["full"]["classification"] == "asymptotically-stable"
        assert report["reduced"]["classification"] == "asymptotically-stable"
        assert report["agree"] is True
