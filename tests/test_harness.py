import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epcag import errors, harness
from epcag.cli import main
from epcag.errors import ConfigError
from epcag.harness import (
    _CATALOG,
    ExperimentConfig,
    build_system,
    catalog_list,
    run,
    schedule_from_dict,
)
from epcag.schedule import make_schedule


def simulate_config(**overrides):
    cfg = {
        "recipe": "simulate",
        "system": {"matrix": [[-1.0, 0.0], [0.0, 0.0]],
                   "nonlinearity": {"name": "tanh-coupled",
                                    "params": {"amp": 0.01}}},
        "schedule": {"kind": "epca", "window": [0, 10]},
        "solver": {"step": 0.1, "tol": 1e-8},
        "run": {"t0": 0.0, "z0": [1.0, 0.5], "t_end": 8.0},
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


class TestCatalog:
    def test_required_entries(self):
        entries = {e["name"]: e for e in catalog_list()}
        assert entries["zero"]["lipschitz"] == "l = 0"
        assert "-w^2" in entries["example1-quadratic"]["doc"]
        assert "b w" in entries["epca-linear"]["doc"]
        assert "center-cubic" in entries and "tanh-coupled" in entries

    def test_build_epca_linear(self):
        sys = build_system({"matrix": [[-1.0]],
                            "nonlinearity": {"name": "epca-linear",
                                             "params": {"b": 0.25}}})
        assert sys.lipschitz_l == 0.25
        np.testing.assert_allclose(sys.f(0.0, np.array([0.0]),
                                         np.array([2.0])), [0.5])

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            build_system({"matrix": [[-1.0]],
                          "nonlinearity": {"name": "nope"}})


# Each catalog entry's one-point formula before entries took stacked states.
PARENT_FORMULAS = {
    "zero": lambda p, t, z, w: np.zeros(len(z)),
    "example1-quadratic": lambda p, t, z, w: np.array([-w[0] ** 2]),
    "epca-linear": lambda p, t, z, w: p["b"] * np.asarray(w, dtype=float),
    "tanh-coupled": lambda p, t, z, w: np.array([0.0,
                                                 p["amp"] * math.tanh(w[0])]),
    "center-cubic": lambda p, t, z, w: np.array([
        p["eps"] * (w[1] ** 2 / (1.0 + w[1] ** 2)),
        p["sign"] * p["a"] * (z[1] ** 3 / (1.0 + z[1] ** 2))]),
}
CATALOG_CASES = {  # name: (params, dim)
    "zero": ({}, 3),
    "example1-quadratic": ({"radius": 15.0}, 1),
    "epca-linear": ({"b": -0.3}, 2),
    "tanh-coupled": ({"amp": 0.2}, 2),
    "center-cubic": ({"a": 0.012, "eps": 0.02, "sign": -1.0}, 2),
}


class TestCatalogStackedContract:
    def test_every_entry_has_a_case(self):
        assert set(CATALOG_CASES) == set(_CATALOG) == set(PARENT_FORMULAS)

    @given(name=st.sampled_from(sorted(CATALOG_CASES)), m=st.integers(1, 40),
           scale=st.floats(1e-3, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_stacked_call_is_the_per_row_calls(self, name, m, scale, seed):
        params, dim = CATALOG_CASES[name]
        f, _ = _CATALOG[name]["factory"](params, dim)
        rng = np.random.default_rng(seed)
        t = rng.uniform(-5.0, 5.0, size=m)
        z, w = scale * rng.normal(size=(2, m, dim))
        rows = [f(*point) for point in zip(t, z, w)]
        stacked = f(t, z, w)
        assert stacked.shape == (m, dim)
        assert np.array(rows).tobytes() == np.ascontiguousarray(stacked).tobytes()
        # one point: the old formula up to rounding (products replace
        # powers, np.tanh replaces math.tanh)
        for point, got in zip(zip(t, z, w), rows):
            old = PARENT_FORMULAS[name](params, *point)
            assert got.shape == old.shape == (dim,)
            assert np.all(np.abs(got - old) <= 4 * np.spacing(np.abs(old)))

    @pytest.mark.parametrize("name", sorted(CATALOG_CASES))
    def test_one_state_call_is_a_float64_row_of_the_stacked_call(self, name):
        # the last two rows overflow: the one-state call, on Python floats,
        # must give the stacked call's inf or nan and raise nothing
        params, dim = CATALOG_CASES[name]
        f, _ = _CATALOG[name]["factory"](params, dim)
        rng = np.random.default_rng(12)
        t = np.array([0.0, 0.4, 1.0, 2.5])
        z, w = rng.normal(size=(2, 4, dim))
        z[2:] = w[2:] = 1e200
        z[3, -1] = w[3, -1] = -1e200
        with np.errstate(all="ignore"):
            stacked = f(t, z, w)
        for point, row in zip(zip(t, z, w), stacked):
            one = f(*point)
            assert isinstance(one, np.ndarray)
            assert one.dtype == np.float64 and one.shape == (dim,)
            assert np.array_equal(one, row, equal_nan=True)
            if np.isfinite(row).all():
                assert one.tobytes() == row.tobytes()
        if name in ("example1-quadratic", "center-cubic"):
            assert not np.isfinite(stacked[2:]).all()

    def test_catalog_systems_keep_their_f_stacked(self):
        for name, (params, dim) in CATALOG_CASES.items():
            sys = build_system({"matrix": (-np.eye(dim)).tolist(),
                                "nonlinearity": {"name": name,
                                                 "params": params}})
            assert sys.f_stacked is sys.f, name


class TestScheduleRoundTrip:
    def test_invalid(self):
        with pytest.raises(ConfigError):
            schedule_from_dict({"kind": "epca"})

    @given(kind=st.sampled_from(["epca", "alternating", "randomized"]),
           i_min=st.integers(-50, 50), span=st.integers(1, 40),
           bound=st.floats(0.1, 5.0), seed=st.integers(0, 2**32 - 1),
           t_start=st.floats(-100.0, 100.0))
    def test_round_trip_property(self, kind, i_min, span, bound, seed, t_start):
        # a generated schedule's arrays, given as an explicit config through
        # JSON, build the same schedule
        cfg = {"kind": kind, "window": [i_min, i_min + span]}
        if kind == "randomized":
            cfg.update(theta_bound=bound, seed=seed, t_start=t_start)
        sched = schedule_from_dict(cfg)
        explicit = {"kind": "explicit", "thetas": sched.thetas.tolist(),
                    "zetas": sched.zetas.tolist(), "i_min": sched.i_min,
                    "theta_bound": sched.theta_bound}
        again = schedule_from_dict(json.loads(json.dumps(explicit)))
        np.testing.assert_array_equal(again.thetas, sched.thetas)
        np.testing.assert_array_equal(again.zetas, sched.zetas)
        assert (again.i_min, again.theta_bound) == (sched.i_min, sched.theta_bound)


class TestConfig:
    def test_unknown_recipe(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"recipe": "nope"})

    def test_missing_schedule(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"recipe": "simulate", "system": {}})

    def test_unknown_solver_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(simulate_config(
                solver={"step": 0.1, "bogus": 1}))

    def test_nonpositive_step(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(simulate_config(
                solver={"step": -0.1}))


class TestRun:
    def test_simulate_writes_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(simulate_config())
        status = run(cfg, tmp_path)
        assert status == 0
        assert (tmp_path / "manifest").exists()
        assert (tmp_path / "trajectory_forward.csv").exists()
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["trajectory"]["direction"] == "forward"
        manifest = (tmp_path / "manifest").read_text()
        assert "seed: 3" in manifest and "config:" in manifest

    def test_deterministic_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(simulate_config())
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        csv_a = (tmp_path / "a" / "trajectory_forward.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory_forward.csv").read_bytes()
        assert csv_a == csv_b
        ma = [ln for ln in (tmp_path / "a" / "manifest").read_text().splitlines()
              if not ln.startswith("timestamp:")]
        mb = [ln for ln in (tmp_path / "b" / "manifest").read_text().splitlines()
              if not ln.startswith("timestamp:")]
        assert ma == mb

    def test_numerical_failure_status_and_record(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "recipe": "simulate",
            "system": {"matrix": [[3.0]],
                       "nonlinearity": {"name": "example1-quadratic",
                                        "params": {"radius": 15.0}}},
            "schedule": {"kind": "alternating", "window": [-2, 3]},
            "solver": {"step": 0.02, "tol": 1e-8},
            "run": {"t0": -1.0, "z0": [-10.0], "t_end": 1.0},
        })
        status = run(cfg, tmp_path)
        assert status == 3
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["error"]["type"] == "NonContractionError"
        assert rep["error"]["module"] == "solver"
        assert (tmp_path / "manifest").exists()  # crash forensics

    def test_backward_recipe(self, tmp_path):
        cfg = ExperimentConfig.from_dict(simulate_config(
            recipe="continue-backward",
            run={"t0": 5.0, "z0": [0.2, 0.5], "t_start": 1.0}))
        assert run(cfg, tmp_path) == 0
        assert (tmp_path / "trajectory_backward.csv").exists()

    def test_conditions_recipe(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_dict(simulate_config(recipe="conditions"))
        assert run(cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        names = {e["name"] for e in rep["entries"]}
        assert "contraction-smallness" in names
        assert "two_p_l" in rep["constants"]
        assert "condition" in capsys.readouterr().out

    def test_manifold_F_recipe(self, tmp_path):
        cfg = ExperimentConfig.from_dict(simulate_config(
            recipe="manifold-F",
            schedule={"kind": "epca", "window": [-50, 60]},
            manifold={"tol": 1e-7, "quad_step": 0.1},
            run={"anchor_index": 0, "grid": {"lo": -1.0, "hi": 1.0,
                                             "count": 5}}))
        assert run(cfg, tmp_path) == 0
        lines = (tmp_path / "manifold_F.csv").read_text().strip().splitlines()
        assert lines[0] == "c_1,F_1"
        assert len(lines) == 6
        # the middle grid point is c = 0, whose graph value is 0
        mid = lines[3].split(",")
        assert float(mid[0]) == 0.0 and abs(float(mid[1])) < 1e-10

    def test_stability_recipe(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_dict({
            "recipe": "stability",
            "system": {"matrix": [[-1.0]],
                       "nonlinearity": {"name": "zero"}},
            "schedule": {"kind": "epca", "window": [0, 25]},
            "stability": {"radii": [0.1], "horizon": 20.0,
                          "t0_samples": [0.0], "n_random_dirs": 0,
                          "step": 0.2},
        })
        assert run(cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["verdict"]["classification"] == "exponential"
        assert "exponential" in capsys.readouterr().out
        # the fixed classifier thresholds are still reported with the verdict
        params = rep["verdict"]["params"]
        assert {key: params[key] for key in ("escape_factor", "bound_factor",
                                             "fit_r2", "min_efolds")} == {
            "escape_factor": 10.0, "bound_factor": 3.0, "fit_r2": 0.98,
            "min_efolds": 1.0}

    def test_example1_recipe(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"recipe": "example1",
                                          "solver": {"step": 0.01}})
        assert run(cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        fwd = rep["forward_noncontinuation"]
        assert fwd["discriminant"] < 0 and not fwd["real_anchor_exists"]
        assert fwd["outcome"] == "non-continuation"
        bwd = rep["backward_nonuniqueness"]
        assert bwd["closed_form_endpoint_gap"] < 1e-10
        assert "non-uniqueness" in bwd["outcome"]
        assert (tmp_path / "trajectory_branch0.csv").exists()


class TestCli:
    def test_catalog_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "example1-quadratic" in out

    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(simulate_config()))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out_dir), "--step", "0.2"]) == 0
        manifest = (out_dir / "manifest").read_text()
        assert "'step': 0.2" in manifest or '"step": 0.2' in manifest

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"system": {}}))
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(simulate_config()))
        plain = tmp_path / "plain"
        plain.write_text("")
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(plain / "out")]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("error: cannot write output directory")

    def test_internal_error_exits_1_with_a_record(self, tmp_path, capsys,
                                                  monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("defect in a recipe")

        monkeypatch.setattr(harness, "_recipe_simulate", broken)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(simulate_config()))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "run failed (status 1)" in captured.err
        err = json.loads((out_dir / "report.json").read_text())["error"]
        assert (err["type"], err["message"], err["module"]) == (
            "RuntimeError", "defect in a recipe", "internal")
        assert err["traceback"].startswith("Traceback")
        assert "_dispatch" in err["traceback"]
        assert (out_dir / "manifest").exists()

    def _max_iter_one(self, recipe, cfg, tmp_path):
        # mid-interval anchors need several anchor iterations, so a solver
        # allowed only one must stop with a non-contraction record
        cfg["solver"] = {"max_iter": 1, "step": 0.25}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main([recipe, "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 3
        err = json.loads((out_dir / "report.json").read_text())["error"]
        assert err["type"] == "NonContractionError"

    def test_solver_max_iter_reaches_stability(self, tmp_path, capsys):
        self._max_iter_one("stability", {
            "system": {"matrix": [[-1.0, 0.0], [0.0, 0.0]],
                       "nonlinearity": {"name": "epca-linear",
                                        "params": {"b": 0.05}}},
            "schedule": {"kind": "alternating", "window": [-2, 30]},
            "stability": {"radii": [0.1], "t0_samples": [1.0],
                          "horizon": 20.0, "step": 0.2}}, tmp_path)

    def test_solver_max_iter_reaches_reduce(self, tmp_path, capsys):
        thetas = [float(i) for i in range(-30, 31)]
        self._max_iter_one("reduce", {
            "system": {"matrix": [[-1.0, 0.0], [0.0, 0.0]],
                       "nonlinearity": {"name": "center-cubic",
                                        "params": {"a": 0.012}}},
            "schedule": {"kind": "explicit", "thetas": thetas, "i_min": -30,
                         "zetas": [t + 0.5 for t in thetas[:-1]]},
            "manifold": {"tol": 1e-5, "quad_step": 0.1, "cache_box": 2.0,
                         "cache_resolution": 5, "time_period": 1.0},
            "stability": {"radii": [0.5], "t0_samples": [0.5],
                          "horizon": 10.0, "step": 0.25,
                          "n_random_dirs": 0}}, tmp_path)


class TestHeavyRecipes:
    def test_manifold_G_recipe(self, tmp_path):
        cfg = ExperimentConfig.from_dict(simulate_config(
            recipe="manifold-G",
            schedule={"kind": "epca", "window": [-50, 60]},
            manifold={"tol": 1e-6, "quad_step": 0.1},
            run={"anchor_index": 0, "grid": {"lo": -1.0, "hi": 1.0,
                                             "count": 3}}))
        assert run(cfg, tmp_path) == 0
        lines = (tmp_path / "manifold_G.csv").read_text().strip().splitlines()
        assert lines[0] == "v_1,G_1"
        assert len(lines) == 4

    def test_repeated_run_repeats_its_work(self, tmp_path, monkeypatch):
        # a run may memoize within itself but carries nothing over to the
        # next run in the same process: each run fits its constants anew
        from epcag import analysis
        fit = analysis.fit_growth_constant
        calls = []

        def counted(*args):
            calls.append(args)
            return fit(*args)

        monkeypatch.setattr(analysis, "fit_growth_constant", counted)
        cfg = ExperimentConfig.from_dict(simulate_config(
            recipe="manifold-G",
            schedule={"kind": "epca", "window": [-50, 60]},
            manifold={"tol": 1e-6, "quad_step": 0.1},
            run={"anchor_index": 0, "grid": {"count": 3}}))
        counts = []
        for rep in range(2):
            calls.clear()
            assert run(cfg, tmp_path / str(rep)) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_reduce_recipe_zero_family(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_dict({
            "recipe": "reduce",
            "system": {"matrix": [[-1.0, 0.0], [0.0, 0.0]],
                       "nonlinearity": {"name": "zero"}},
            "schedule": {"kind": "epca", "window": [-40, 60]},
            "solver": {"step": 0.2, "tol": 1e-8},
            "manifold": {"tol": 1e-6, "quad_step": 0.1, "cache_box": 1.5,
                         "cache_resolution": 5, "time_period": 1.0,
                         "time_subdiv": 1},
            "stability": {"radii": [0.1], "horizon": 20.0,
                          "t0_samples": [0.0], "n_random_dirs": 2,
                          "step": 0.2},
        })
        assert run(cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["agree"] is True
        assert rep["full"]["classification"] == "stable"
        assert "reduced" in capsys.readouterr().out

    def test_phase_recipe(self, tmp_path):
        cfg = ExperimentConfig.from_dict(simulate_config(
            recipe="phase",
            schedule={"kind": "epca", "window": [-60, 80]},
            manifold={"tol": 1e-7, "quad_step": 0.1},
            run={"anchor_index": 0, "z0": [0.5, 0.8]}))
        assert run(cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["decay"]["bounded"] is True
        assert (tmp_path / "trajectory_companion.csv").exists()
        assert (tmp_path / "trajectory_solution.csv").exists()

    def test_phase_writes_the_solution_it_marched(self, tmp_path, monkeypatch):
        # implicit anchors mid-interval: the CSV is the solution the decay
        # report was computed on, and the recipe marches nothing of its own
        from epcag import reduction
        results, marches = [], {"harness": 0, "reduction": 0}
        for mod in (harness, reduction):
            def counted(*args, _f=mod.solve_forward, _m=mod, **kwargs):
                marches[_m.__name__.split(".")[-1]] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(mod, "solve_forward", counted)

        def phase(*args, _f=harness.asymptotic_phase, **kwargs):
            results.append(_f(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(harness, "asymptotic_phase", phase)
        cfg = ExperimentConfig.from_dict(simulate_config(
            recipe="phase",
            schedule={"kind": "alternating", "window": [-30, 40]},
            manifold={"tol": 1e-7, "quad_step": 0.1},
            run={"anchor_index": 0, "z0": [0.5, 0.8]}))
        assert run(cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        # one companion march per iteration, the companion and the solution
        assert marches == {"harness": 0, "reduction": rep["iterations"] + 2}
        sol = results[0].solution
        lines = (tmp_path / "trajectory_solution.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        lo, hi = sol.t_span
        want = np.concatenate([
            np.column_stack([seg.ts, seg.zs, np.full(len(seg.ts), seg.index)])
            for seg in sol.segments])
        want = want[(want[:, 0] >= lo - 1e-12) & (want[:, 0] <= hi + 1e-12)]
        assert rows.tobytes() == want.tobytes()
        assert any(len(res.deltas) > 1 for res in sol.diagnostics)


class TestConfigFailuresLeaveRecord:
    """Invalid configs exit with status 2 and an error record, not a
    traceback."""

    def _error(self, cfg, tmp_path):
        assert run(ExperimentConfig.from_dict(cfg), tmp_path) == 2
        return json.loads((tmp_path / "report.json").read_text())["error"]

    def test_phase_without_z0(self, tmp_path):
        cfg = simulate_config(recipe="phase", run={"anchor_index": 0})
        assert self._error(cfg, tmp_path)["type"] == "ConfigError"

    def test_short_schedule_window(self, tmp_path):
        cfg = simulate_config(schedule={"kind": "epca", "window": [1]})
        assert self._error(cfg, tmp_path)["type"] == "ConfigError"

    def test_understated_lipschitz_constant(self, tmp_path):
        cfg = simulate_config()
        cfg["system"] = dict(cfg["system"], lipschitz_l=0.01,
                             nonlinearity={"name": "tanh-coupled",
                                           "params": {"amp": 0.5}})
        err = self._error(cfg, tmp_path)
        assert err["type"] == "SystemValidationError"
        assert "Lipschitz" in err["message"]

    def test_simulate_t_end_not_after_t0(self, tmp_path):
        cfg = simulate_config(run={"t0": 4.0, "z0": [1.0, 0.5], "t_end": 4.0})
        err = self._error(cfg, tmp_path)
        assert err["type"] == "ConfigError" and "run.t_end" in err["message"]

    def test_backward_t_start_not_before_t0(self, tmp_path):
        cfg = simulate_config(recipe="continue-backward",
                              run={"t0": 4.0, "z0": [1.0, 0.5], "t_start": 6.0})
        err = self._error(cfg, tmp_path)
        assert err["type"] == "ConfigError" and "run.t_start" in err["message"]

    def test_example1_list_z0(self, tmp_path):
        cfg = {"recipe": "example1", "run": {"z0": [1.0]}}
        assert self._error(cfg, tmp_path)["type"] == "ConfigError"

    def test_example1_list_x0(self, tmp_path):
        cfg = {"recipe": "example1", "run": {"x0": [-10.0, 1.0]}}
        assert self._error(cfg, tmp_path)["type"] == "ConfigError"

    @pytest.mark.parametrize("recipe", ["simulate", "conditions"])
    def test_nonfinite_matrix(self, recipe, tmp_path):
        cfg = simulate_config(recipe=recipe)
        cfg["system"] = dict(cfg["system"], matrix=[[float("nan"), 0.0],
                                                    [0.0, 0.0]])
        err = self._error(cfg, tmp_path)
        assert err["type"] == "SystemValidationError"
        assert "finite" in err["message"]

    @pytest.mark.parametrize("recipe", ["simulate", "conditions"])
    def test_infinite_schedule_theta(self, recipe, tmp_path):
        cfg = simulate_config(recipe=recipe, schedule={
            "kind": "explicit", "thetas": [0.0, 1.0, float("inf")],
            "zetas": [0.0, 1.0]})
        err = self._error(cfg, tmp_path)
        assert err["type"] == "ConfigError" and "finite" in err["message"]

    @pytest.mark.parametrize("recipe", ["simulate", "continue-backward",
                                        "phase"])
    def test_nonfinite_z0(self, recipe, tmp_path):
        cfg = simulate_config(recipe=recipe,
                              run={"t0": 4.0, "z0": [float("nan"), 0.5]})
        err = self._error(cfg, tmp_path)
        assert err["type"] == "ConfigError" and "run.z0" in err["message"]


@pytest.mark.parametrize("recipe,status", [("conditions", 0),
                                           ("manifold-G", 3)])
def test_overflowing_constants_fail_the_smallness_conditions(recipe, status,
                                                             tmp_path):
    # center-cubic with a = 1e30: x e^x in the contraction constants
    # overflows a float
    cfg = simulate_config(
        recipe=recipe, run=_MANIFOLD_RUN,
        system={"matrix": [[-1.0, 0.0], [0.0, 0.0]],
                "nonlinearity": {"name": "center-cubic",
                                 "params": {"a": 1e30}}})
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(ExperimentConfig.from_dict(cfg), tmp_path) == status
    report = json.loads((tmp_path / "report.json").read_text())
    if status:
        assert report["error"]["type"] == "SmallnessError"
    else:
        entries = {e["name"]: e["passed"] for e in report["entries"]}
        assert not entries["contraction-smallness"]
        assert not entries["manifold-smallness"]


def _with(cfg, path, value):
    """A copy of cfg with the dotted key path set to value; an empty path
    replaces the whole config."""
    if not path:
        return value
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    return cfg


_MANIFOLD_RUN = {"anchor_index": 0, "grid": {"count": 3}}
_BAD_INPUTS = [pytest.param(recipe, path, value, flags,
                            id=" ".join([f"{recipe}:{path}={value!r}", *flags]))
               for recipe, path, value, *flags in [
    ("manifold-F", "run", dict(_MANIFOLD_RUN, anchor_index="x")),
    ("manifold-G", "run", dict(_MANIFOLD_RUN, anchor_index="x")),
    ("phase", "run", {"anchor_index": "x", "z0": [0.5, 0.8]}),
    ("manifold-F", "run.grid", [1, 2]),
    ("manifold-F", "run.grid", {"count": "x"}),
    ("manifold-F", "run.grid", {"count": 0}),
    ("simulate", "seed", "x"),
    ("simulate", "run.z0", [1.0, 0.5, 0.2]),
    ("continue-backward", "run", {"t0": 5.0, "z0": [0.2], "t_start": 1.0}),
    ("phase", "run", {"anchor_index": 0, "z0": [0.5, 0.8, 0.1]}),
    ("simulate", "solver", "x"),
    ("simulate", "solver.step", "x"),
    ("simulate", "solver.max_iter", "x"),
    ("manifold-G", "manifold.tol", "x"),
    ("conditions", "manifold.quad_step", "x"),
    ("reduce", "manifold.cache_resolution", "x"),
    ("stability", "stability.horizon", "x"),
    ("stability", "stability.radii", "x"),
    ("stability", "stability.radii", []),
    ("stability", "stability.t0_samples", []),
    ("simulate", "system.lipschitz_l", "x"),
    ("simulate", "system.nonlinearity.params", {}),
    ("simulate", "system.nonlinearity.params", {"amp": "x"}),
    ("manifold-F", "solver.max_iter", 0),
    ("manifold-F", "manifold.quad_step", -0.1),
    ("simulate", "", [1, 2]),
    ("simulate", "solvr", {"step": 0.1}),
    ("simulate", "solver", "x", "--step", "0.1"),
    ("simulate", "solver", "x", "--tol", "1e-6"),
    ("stability", "stability.horizon", -5.0),
    ("simulate", "system.nonlinearity", "zero"),
    ("stability", "seed", -1),
    ("stability", "seed", 0, "--seed", "-1"),
    ("stability", "seed", float("inf")),
    ("stability", "seed", 2.7),
    ("reduce", "manifold.cache_resolution", 4.5),
    ("stability", "stability.step", 0),
    ("stability", "stability.step", -0.1),
    ("stability", "stability.radii", [-0.1]),
    ("stability", "stability.radii", [0.0]),
    ("stability", "stability.final_frac", float("nan")),
    ("manifold-G", "manifold.tol", 0),
    ("reduce", "manifold.time_period", -1),
    ("reduce", "manifold.time_subdiv", 0),
    ("reduce", "manifold.cache_box", -1.0),
    ("reduce", "manifold.cache_box", 0.0),
    ("reduce", "manifold.cache_box", [[1.0], [-1.0]]),
    ("reduce", "manifold.cache_box", [1.0, 2.0, 3.0]),
    ("simulate", "system.nonlinearity.name", ["zero"]),
    ("simulate", "system.nonlinearity.name", {"name": "zero"}),
    ("simulate", "schedule.window", [-60, float("inf")]),
    ("simulate", "schedule", {"kind": "randomized", "window": [0, 80],
                              "theta_bound": float("inf"), "seed": 1}),
    # counts: checked before any recipe runs, so no long loop starts
    ("simulate", "solver.step", 1e-300),
    ("stability", "stability.n_random_dirs", 1e9),
    # sizes: rejected before the window's arrays or a cache table exist
    ("simulate", "schedule.window", [0, 1e12]),
    ("reduce", "manifold.cache_resolution", 10**7),
    # run values of the manifold and phase recipes, read strictly
    ("manifold-F", "run.anchor_index", 2.7),
    ("manifold-G", "run.anchor_index", 2.7),
    ("phase", "run.anchor_index", 2.7),
    ("manifold-F", "run.anchor_index", 500),
    ("manifold-G", "run.anchor_index", 500),
    ("phase", "run.anchor_index", 500),
    ("manifold-F", "run.grid", {"count": 3.9}),
    ("manifold-F", "run.grid", {"lo": -math.inf}),
    ("manifold-G", "run.grid", {"hi": math.inf}),
    ("manifold-F", "run.grid", {"lo": math.nan}),
    # rejected before the grid is laid, so it is not run any other way
    ("manifold-F", "run.grid", {"count": 10**9}),
]]


@pytest.mark.parametrize("recipe,path,value,flags", _BAD_INPUTS)
def test_invalid_input_exits_2_without_traceback(recipe, path, value, flags,
                                                 tmp_path):
    cfg = _with(simulate_config(schedule={"kind": "epca", "window": [-60, 80]},
                                run={"t0": 0.0, "z0": [1.0, 0.5], "t_end": 2.0,
                                     **_MANIFOLD_RUN}), path, value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "epcag.cli", recipe, "--config", str(cfg_path),
         "--out", str(tmp_path / "out"), *flags],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    report = tmp_path / "out" / "report.json"
    if report.exists():
        err = json.loads(report.read_text())["error"]
        assert issubclass(getattr(errors, err["type"]), ConfigError)


@pytest.mark.parametrize("recipe", ["manifold-F", "manifold-G", "phase"])
def test_out_of_window_anchor_index_is_named(recipe, tmp_path):
    cfg = _with(simulate_config(schedule={"kind": "epca", "window": [-60, 80]},
                                run={"z0": [1.0, 0.5], **_MANIFOLD_RUN}),
                "run.anchor_index", 80)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([recipe, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads((tmp_path / "out" / "report.json").read_text())["error"]
    assert err["type"] == "ConfigError"
    assert "run.anchor_index" in err["message"]
    assert "index i=80 is outside the schedule window [-60, 79]" in \
        err["message"]


@pytest.mark.parametrize("path", [
    "manifold.kappa", "manifold.alpha", "manifold.sigma", "manifold.horizon",
    "manifold.max_iter", "stability.escape_factor", "stability.bound_factor",
    "stability.fit_r2", "stability.min_efolds"])
def test_removed_key_is_unknown(path, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_with(simulate_config(), path, 1.0)))
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"unknown key {path}" in capsys.readouterr().err


def test_readme_example_config_is_valid():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(dict(json.loads(block), recipe="reduce"))
    assert cfg.recipe == "reduce" and cfg.seed == 7
