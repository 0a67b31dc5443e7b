import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

import epcag
from epcag import (
    HybridSystem,
    SpectralSplit,
    check_conditions,
    compute_constants,
    make_schedule,
    spectral_split,
)
from epcag.analysis import gamma_closed_form
from epcag.errors import ParameterError, SpectrumError


class TestSpectralSplit:
    def test_already_block_diagonal(self):
        sp = spectral_split(np.diag([-1.0, 0.0]))
        assert sp.k == 1
        np.testing.assert_allclose(sp.B_plus, [[-1.0]])
        np.testing.assert_allclose(sp.B_minus, [[0.0]])
        assert sp.sigma == 0.5
        assert sp.m_pow == 0
        assert sp.is_identity_transform

    def test_fully_stable(self):
        sp = spectral_split(np.array([[-2.0, 1.0], [0.0, -1.0]]))
        assert sp.k == 2
        assert sp.B_minus.shape == (0, 0)
        assert sp.mu == -1.0

    def test_nilpotent_neutral_block(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        sp = spectral_split(A)
        assert sp.k == 0
        assert sp.m_pow == 1
        # hand oracle: exp(-At) = [[1, -t], [0, 1]], norm growth is linear
        for t in np.linspace(0.0, 10.0, 21):
            nrm = np.linalg.norm(sla.expm(-A * t), 2)
            assert nrm <= sp.K_const * (1.0 + t**sp.m_pow) + 1e-12

    def test_reconstruction_mixed_matrix(self):
        rng = np.random.default_rng(5)
        D = np.zeros((3, 3))
        D[0, 0] = -1.0
        D[1:, 1:] = [[0.0, 1.0], [0.0, 0.0]]
        T = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        A = T @ D @ np.linalg.inv(T)
        sp = spectral_split(A)
        assert sp.k == 1
        assert sp.m_pow == 1
        block = np.zeros((3, 3))
        block[:1, :1] = sp.B_plus
        block[1:, 1:] = sp.B_minus
        recon = np.linalg.inv(sp.transform) @ block @ sp.transform
        assert np.linalg.norm(recon - A, "fro") < 1e-10
        off = sp.transform @ A @ np.linalg.inv(sp.transform)
        assert np.linalg.norm(off[:1, 1:]) < 1e-10
        assert np.linalg.norm(off[1:, :1]) < 1e-10

    def test_sampled_growth_bounds(self):
        A = np.array([[-1.5, 0.7, 0.0], [0.0, -0.6, 0.0], [0.0, 0.0, 0.0]])
        sp = spectral_split(A)
        for t in np.linspace(0.0, 15.0, 31):
            assert (np.linalg.norm(sla.expm(sp.B_plus * t), 2)
                    <= sp.K_const * math.exp(-sp.sigma * t) + 1e-12)
            assert (np.linalg.norm(sla.expm(-sp.B_minus * t), 2)
                    <= sp.K_const * (1.0 + t**sp.m_pow) + 1e-12)

    def test_positive_spectrum_rejected(self):
        with pytest.raises(SpectrumError):
            spectral_split(np.array([[0.5]]))

    def test_ill_conditioned_transform_rejected(self):
        from epcag.errors import ConditioningError

        with pytest.raises(ConditioningError):
            spectral_split(np.array([[-1.0, 2e4], [0.0, 0.0]]))

    def test_rotation_center_block(self):
        A = np.array([[0.0, 2.0], [-2.0, 0.0]])
        sp = spectral_split(A)
        assert sp.k == 0
        assert sp.m_pow == 0  # semisimple imaginary pair: bounded exponential


class TestComputeConstants:
    def test_plugin_arithmetic_oracle(self, epca_sched):
        # independently evaluated: gamma = 1/0.25 + 1/0.25 = 8,
        # p = 1 (1 + e^0.25)(1/(0.5-0.25) + 8) = 12 (1 + e^0.25)
        split = SpectralSplit(k=1, transform=np.eye(2), B_plus=np.array([[-1.0]]),
                              B_minus=np.array([[0.0]]), sigma=0.5, K_const=1.0,
                              m_pow=0, mu=-1.0)
        A = np.diag([-1.0, 0.0])
        b = compute_constants(A, split, epca_sched, l=0.01, alpha=0.25)
        assert b.gamma == pytest.approx(8.0, abs=1e-12)
        assert b.p_const == pytest.approx(12.0 * (1.0 + math.exp(0.25)), rel=1e-12)
        assert 2 * b.p_const * b.l == pytest.approx(0.5481660999, rel=1e-6)
        assert b.c10_pass
        assert b.M_up == pytest.approx(math.e)
        assert b.M_up * b.m_low == pytest.approx(1.0)

    def test_zero_lipschitz_all_pass(self, epca_sched, diag_split):
        b = compute_constants(np.diag([-1.0, 0.0]), diag_split, epca_sched,
                              l=0.0, alpha=0.25)
        assert b.c5_pass == (True, True, True)
        assert b.c10_pass

    def test_gamma_simple_form(self, epca_sched, diag_split):
        for alpha in (0.1, 0.25, 0.4):
            b = compute_constants(np.diag([-1.0, 0.0]), diag_split, epca_sched,
                                  l=0.01, alpha=alpha)
            assert b.gamma == pytest.approx(2.0 / alpha, rel=1e-14)

    def test_alpha_out_of_range(self, epca_sched, diag_split):
        with pytest.raises(ParameterError):
            compute_constants(np.diag([-1.0, 0.0]), diag_split, epca_sched,
                              l=0.01, alpha=0.6)

    def test_gamma_quadrature_oracle(self):
        for m in range(4):
            for alpha in (0.2, 0.7, 1.3):
                val, err = quad(lambda t: (1 + t**m) * math.exp(-alpha * t),
                                0, np.inf)
                assert gamma_closed_form(alpha, m) == pytest.approx(val, abs=1e-8)

    def test_exponential_norm_bound(self, epca_sched):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        A = A - (np.max(np.linalg.eigvals(A).real) + 0.2) * np.eye(3)
        Omega = np.linalg.norm(A, 2)
        theta = epca_sched.theta_bound
        for t in np.linspace(-theta, theta, 17):
            assert (np.linalg.norm(sla.expm(A * t), 2)
                    <= math.exp(Omega * abs(t)) + 1e-12)

    def test_overflow_fails_the_conditions(self, epca_sched, diag_split):
        # M l theta = 1e30: x e^x overflows a float, and the conditions fail
        # instead of raising
        b = compute_constants(np.diag([-1.0, 0.0]), diag_split, epca_sched, 1e30)
        assert b.c5_values[0] == math.inf and b.c5_values[2] == math.inf
        assert not any(b.c5_pass) and not b.c10_pass

    def test_p_monotone_towards_sigma(self, epca_sched, diag_split):
        sigma = diag_split.sigma
        ps = [compute_constants(np.diag([-1.0, 0.0]), diag_split, epca_sched,
                                l=0.01, alpha=f * sigma).p_const
              for f in (0.8, 0.9, 0.97)]
        assert ps[0] < ps[1] < ps[2]


class TestCheckConditions:
    def _run(self, sys, sched=None):
        sched = sched or make_schedule("epca", window=(-3, 3))
        split = spectral_split(sys.A)
        bundle = compute_constants(sys.A, split, sched, sys.lipschitz_l,
                                   alpha=0.5 * split.sigma)
        return check_conditions(sys, sched, split, bundle, probes=150, seed=1)

    def test_zero_nonlinearity_all_pass(self):
        sys = HybridSystem(np.diag([-1.0, 0.0]), lambda t, z, w: np.zeros(2),
                           0.0, 2)
        report = self._run(sys)
        assert report.passed()

    def test_sin_cos_fails_flat_origin(self):
        # d/dz [0.01 sin z cos w] at 0 is 0.01, far above the 1e-6 threshold
        sys = HybridSystem(
            np.array([[0.0]]),
            lambda t, z, w: np.array([0.01 * math.sin(z[0]) * math.cos(w[0])]),
            0.01, 1)
        report = self._run(sys)
        assert report.passed("lipschitz-nonlinearity")
        entry = report.entry("flat-origin-jacobian")
        assert not entry.passed
        assert entry.detail["max_derivative"] == pytest.approx(0.01, rel=1e-3)

    def test_saturated_cubic_passes_flat_origin(self):
        sys = HybridSystem(
            np.array([[0.0]]),
            lambda t, z, w: np.array([0.01 * z[0] ** 3 / (1 + z[0] ** 2)]),
            0.012, 1)
        report = self._run(sys)
        assert report.entry("flat-origin-jacobian").passed

    def test_report_serializes(self):
        sys = HybridSystem(np.diag([-1.0, 0.0]), lambda t, z, w: np.zeros(2),
                           0.0, 2)
        report = self._run(sys)
        d = json.loads(json.dumps(report.as_dict()))
        assert {e["name"] for e in d["entries"]} >= {
            "lipschitz-nonlinearity", "contraction-smallness",
            "manifold-smallness", "flat-origin-jacobian"}
        assert "status" in report.table() or "condition" in report.table()


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg is most of the import time of epcag; it loads on first use
    env = dict(os.environ, PYTHONPATH=str(Path(epcag.__file__).parents[1]))
    code = "import sys, epcag; sys.exit('scipy.linalg' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0
