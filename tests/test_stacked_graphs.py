"""Stacked graph maps: ``eval_F`` and ``eval_G`` on stacked coordinates solve
all rows in one successive approximation, freezing each row once it settles,
so every row keeps the value, delta sequence and error of its own call."""

import dataclasses
import functools
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from epcag import (HybridSystem, compute_constants, eval_F, eval_G,
                   make_schedule, spectral_split)
from epcag.errors import DivergenceError, EnvelopeError
from epcag import harness, manifolds
from epcag.harness import ExperimentConfig, run
from epcag.manifolds import _PanelGrid, _picard, _sampled_P

SCHEDULES = {
    "epca": lambda: make_schedule("epca", window=(-40, 20)),
    "alternating": lambda: make_schedule("alternating", window=(-20, 10)),
    "randomized": lambda: make_schedule("randomized", window=(-60, 20),
                                        theta_bound=1.0, seed=17,
                                        t_start=-40.0),
}


def _cubic_2d(A):
    """The damped center-cubic with its neutral rate fed by the anchored
    decaying component, in IEEE operations only, so that a stacked call is
    its per-row calls bit for bit."""
    a = 0.006

    def f(t, z, w):
        zc, wc = np.asarray(z, dtype=float).T, np.asarray(w, dtype=float).T
        return np.array([a * (wc[1] * wc[1] / (1.0 + wc[1] * wc[1])),
                         -a * (zc[1] * zc[1] * zc[1] / (1.0 + zc[1] * zc[1]))
                         + a * wc[0]]).T

    return HybridSystem(np.array(A), f, 2.25 * a, 2)


def _coupled_4d():
    """Two decaying and two neutral (rotating) directions mixed by a
    non-identity similarity: 2-d blocks and a non-identity split."""
    a = 0.002

    def f(t, z, w):
        zc, wc = np.asarray(z, dtype=float).T, np.asarray(w, dtype=float).T
        return a * np.array([
            wc[2] / (1.0 + wc[2] * wc[2]),
            zc[3] * zc[3] * zc[3] / (1.0 + zc[3] * zc[3]),
            wc[0] * wc[1] / (1.0 + wc[0] * wc[0] + wc[1] * wc[1]),
            zc[2] * zc[2] / (1.0 + zc[2] * zc[2])]).T

    blocks = scipy.linalg.block_diag([[-1.0, 0.4], [0.0, -1.5]],
                                     [[0.0, 1.0], [-1.0, 0.0]])
    V = np.eye(4) + 0.2 * np.array([[0, 1, 0, 1], [0, 0, 1, 0],
                                    [1, 0, 0, 0], [0, 0, 1, 0]])
    return HybridSystem(V @ blocks @ np.linalg.inv(V), f, 3.0 * a, 4)


SYSTEMS = {
    "identity-1d": lambda: _cubic_2d([[-1.0, 0.0], [0.0, 0.0]]),
    "mixed-1d": lambda: _cubic_2d([[-1.0, 0.3], [0.0, 0.0]]),
    "mixed-2d": _coupled_4d,
}


@functools.lru_cache(maxsize=None)
def setup(system, kind):
    """(sys, sched, split, bundle) with the split's constants fitted once."""
    sys = SYSTEMS[system]()
    sched = SCHEDULES[kind]()
    split = _split(system)
    bundle = compute_constants(sys.A, split, sched, sys.lipschitz_l)
    assert bundle.c10_pass
    return sys, sched, split, bundle


@functools.lru_cache(maxsize=None)
def _split(system):
    split = spectral_split(SYSTEMS[system]().A)
    assert split.is_identity_transform == (system == "identity-1d")
    split.K_shifted  # fitted here, not inside a timed or counted call
    return split


def _graph(kind, stack, x, **kw):
    sys, sched, split, bundle = stack
    if kind == "F":
        zeta = sched.zeta(sched.i_min + 2)
        return eval_F(sys, sched, split, bundle, zeta, x, **kw)
    zeta = sched.zeta(sched.i_min + len(sched.zetas) - 4)
    return eval_G(sys, sched, split, bundle, zeta, x, **kw)


KW = dict(horizon=8.0, tol=1e-9, quad_step=0.2)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestColumnsMatchTheirOwnCalls:
    @settings(max_examples=40)
    @given(system=st.sampled_from(sorted(SYSTEMS)),
           kind=st.sampled_from(sorted(SCHEDULES)),
           graph=st.sampled_from(["F", "G"]), data=st.data())
    def test_stacked_rows_are_their_solo_calls(self, system, kind, graph,
                                               data):
        stack = setup(system, kind)
        width = stack[2].k if graph == "F" else stack[0].dim - stack[2].k
        rows = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.2, -1.5]),
                     min_size=width, max_size=width),
            min_size=1, max_size=5)))
        res = _graph(graph, stack, rows, **KW)
        assert len(res.column_deltas) == len(rows)
        assert res.value.shape == (len(rows), stack[0].dim - width)
        assert res.zs.shape == (len(res.ts), len(rows), stack[0].dim)
        for r, x in enumerate(rows):
            one = _graph(graph, stack, x, **KW)
            assert _same_bits(res.value[r], one.value)
            assert _same_bits(res.zs[:, r], one.zs)
            assert res.column_deltas[r] == one.deltas == one.column_deltas[0]
            assert res.iterates[r] == one.iterates == len(one.deltas) - 1
            assert res.last_delta[r] == one.last_delta
        # one entry per sweep taken: the largest delta among the open rows
        longest = max(len(seq) for seq in res.column_deltas)
        assert res.deltas == [max(seq[j] for seq in res.column_deltas
                                  if len(seq) > j) for j in range(longest)]

    def test_more_columns_than_one_run_takes(self, monkeypatch):
        # with two columns per sweep, five rows take three runs in turn
        monkeypatch.setattr(manifolds, "_MAX_COLUMNS", 2)
        stack = setup("identity-1d", "epca")
        rows = np.array([[0.3], [-1.5], [0.0], [1.2], [-0.7]])
        res = _graph("G", stack, rows, **KW)
        counts = [len(seq) for seq in res.column_deltas]
        assert len(res.deltas) == sum(max(counts[j:j + 2])
                                      for j in range(0, 5, 2))
        for r, x in enumerate(rows):
            one = _graph("G", stack, x, **KW)
            assert _same_bits(res.value[r], one.value)
            assert res.column_deltas[r] == one.deltas


def _solo_error(graph, stack, x, **kw):
    with pytest.raises((DivergenceError, EnvelopeError)) as info:
        _graph(graph, stack, x, **kw)
    return info.value


def _assert_same_error(err, want):
    assert type(err) is type(want) and str(err) == str(want)
    for attr in ("deltas", "excess"):
        assert getattr(err, attr, None) == getattr(want, attr, None)


class TestFailingColumns:
    @pytest.mark.parametrize("graph", ["F", "G"])
    def test_columns_that_do_not_converge(self, graph):
        # larger starts take more sweeps: a cap that 0.3 meets stops 1.2 and
        # -1.5, and the first of them in input order is raised
        stack = setup("identity-1d", "epca")
        xs = [0.0, 0.05, 1.2, 0.3, -1.5]
        counts = [_graph(graph, stack, [x], **KW).iterates + 1 for x in xs]
        kw = dict(KW, max_iter=counts[3])
        assert [c > counts[3] for c in counts] == [False, False, True, False,
                                                   True]
        want = _solo_error(graph, stack, [1.2], **kw)
        assert "no convergence" in str(want)
        with pytest.raises(DivergenceError) as info:
            _graph(graph, stack, [[x] for x in xs], **kw)
        _assert_same_error(info.value, want)

    def test_first_failing_column_in_input_order(self):
        # a cap that 0.3 meets stops 1.5; with the horizon given, a tiny
        # growth constant changes no sweep but puts 0.3 outside its envelope
        sys, sched, split, bundle = stack = setup("identity-1d", "epca")
        counts = {x: _graph("G", stack, [x], **KW).iterates + 1
                  for x in (0.3, 1.5)}
        assert counts[0.3] < counts[1.5]
        tight = dataclasses.replace(split)
        tight.__dict__["K_shifted"] = 1e-3
        stack = (sys, sched, tight, bundle)
        kw = dict(KW, max_iter=counts[0.3])
        small, large = (_solo_error("G", stack, [x], **kw) for x in (0.3, 1.5))
        assert isinstance(small, EnvelopeError)
        assert isinstance(large, DivergenceError)
        for rows, want in (([[0.0], [0.3], [1.5]], small),
                           ([[0.0], [1.5], [0.3]], large)):
            with pytest.raises((DivergenceError, EnvelopeError)) as info:
                _graph("G", stack, rows, **kw)
            _assert_same_error(info.value, want)

    def test_non_decreasing_deltas_stop_only_their_column(self):
        # g = 3 Z^3 contracts for small starts and runs away from large ones
        grid = _PanelGrid(SCHEDULES["epca"](), 0.0, 4.0, 0.1)
        Bp, Bm = np.array([[-1.0]]), np.array([[0.0]])

        def g(Z):
            S = Z[grid.rows]
            return 3.0 * S * S * S

        u0 = np.array([[0.05], [2.0], [0.1]])
        v_end = np.zeros((3, 1))
        Z, sweeps, deltas, errors = _picard(Bp, Bm, g, grid, u0, v_end,
                                            1e-12, 40)
        assert errors[0] is None and errors[2] is None
        assert "non-decreasing" in str(errors[1])
        for r in range(3):
            one = _picard(Bp, Bm, g, grid, u0[r:r + 1], v_end[r:r + 1],
                          1e-12, 40)
            assert deltas[r] == one[2][0]
            if errors[r] is None:
                assert _same_bits(Z[:, r], one[0][:, 0])
            else:
                _assert_same_error(errors[r], one[3][0])
        assert len(sweeps) == max(len(seq) for seq in deltas)


def test_sampled_P_skips_close_pairs_in_one_call():
    draws = np.array([[[0.1], [0.6]], [[0.4], [0.4 + 1e-13]],
                      [[-0.2], [0.9]]])
    calls = []

    def graph(D):
        calls.append(D.copy())
        return np.sin(3.0 * D)

    ratio, lead = _sampled_P(graph, draws, 2.0, min_gap=1e-12, lead=[0.7])
    assert len(calls) == 1
    assert calls[0].tolist() == [[0.7], [0.1], [0.6], [-0.2], [0.9]]
    assert lead.tolist() == np.sin(3.0 * np.array([[0.7]])).tolist()
    want = max(abs(np.sin(3.0 * b) - np.sin(3.0 * a)) / abs(b - a)
               for (a,), (b,) in draws[[0, 2]])
    assert ratio == want / 2.0
    calls.clear()
    ratio, lead = _sampled_P(graph, draws[1:2], 2.0, min_gap=1e-12)
    assert ratio == 0.0 and len(lead) == 0
    assert not calls  # nothing to evaluate


def test_manifold_recipe_reports_each_coordinate_as_alone(tmp_path):
    cfg = {"recipe": "manifold-G",
           "system": {"matrix": [[-1.0, 0.0], [0.0, 0.0]],
                      "nonlinearity": {"name": "center-cubic",
                                       "params": {"a": 0.012}}},
           "schedule": {"kind": "epca", "window": [-60, 80]},
           "manifold": {"tol": 1e-8, "quad_step": 0.1},
           "run": {"anchor_index": 3, "grid": {"count": 5}}}
    assert run(ExperimentConfig.from_dict(cfg), tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    rows = (tmp_path / "manifold_G.csv").read_text().splitlines()[1:]
    sys = harness.build_system(cfg["system"])
    sched = harness.schedule_from_dict(cfg["schedule"])
    split, bundle = harness._analysis_stack(sys, sched)
    for ev, line in zip(report["evaluations"], rows):
        one = eval_G(sys, sched, split, bundle, sched.zeta(3), [ev["coord"]],
                     tol=1e-8, quad_step=0.1)
        assert ev["iterates"] == one.iterates
        assert ev["last_delta"] == one.last_delta
        assert line == ",".join(repr(float(v)) for v in
                                [ev["coord"], *one.value])
