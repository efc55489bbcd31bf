"""Drift/noise assembly, the homogeneous moment system, initial states."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spincavity import (
    BroadeningFamily,
    BroadeningSpec,
    DomainError,
    PreconditionError,
    SystemParams,
    build_drift_matrix,
    build_homogeneous_Q,
    discretize,
    eigenvalue_pair,
    initial_state,
)

HOM = BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.0)


def hom_model(kappa, gamma_perp, g_ens, N=1e6, p=1, delta_cs=0.0):
    params = SystemParams(
        kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens, delta_cs=delta_cs
    )
    grid = discretize(HOM, 1, g_ens, N)
    return build_drift_matrix(params, grid, p)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SystemParams(kappa=1.0, gamma_perp=0.0, g_ens=1.0,
                              delta_cs=np.nan), "delta_cs must be finite, got nan"),
        (lambda: build_drift_matrix(
            SystemParams(kappa=1.0, gamma_perp=0.0, g_ens=1.0),
            replace(discretize(HOM, 1, 1.0, 1e6), deltas=[], couplings=[], spins=[]),
            1,
        ), "grid must contain at least one sub-ensemble"),
        (lambda: build_homogeneous_Q(
            SystemParams(kappa=1.0, gamma_perp=0.0, g_ens=1.0), 0.0
        ), "total spin count must be > 0"),
    ],
    ids=["nan-delta-cs", "empty-grid", "no-spins"],
)
def test_rejected_arguments(build, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        build()


class TestSystemParams:
    def test_mirror_rates_default_to_symmetric(self):
        params = SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0)
        assert params.kappa1 == 4.0
        assert params.kappa2 == 4.0

    def test_mirror_rates_must_sum_to_kappa(self):
        SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0, kappa1=6.0, kappa2=2.0)
        with pytest.raises(PreconditionError):
            SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0, kappa1=6.0, kappa2=3.0)
        with pytest.raises(PreconditionError):
            SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0, kappa1=6.0)

    def test_rate_validation(self):
        with pytest.raises(PreconditionError):
            SystemParams(kappa=0.0, gamma_perp=0.0, g_ens=2.0)
        with pytest.raises(PreconditionError):
            SystemParams(kappa=1.0, gamma_perp=-0.1, g_ens=2.0)
        with pytest.raises(PreconditionError):
            SystemParams(kappa=1.0, gamma_perp=0.0, g_ens=np.inf)


class TestDriftMatrix:
    def test_single_ensemble_eigenvalues_doubly_degenerate(self, rng):
        # resonant coupling: the 4x4 drift carries each collective
        # eigenvalue twice (X and P sectors are degenerate copies)
        for _ in range(25):
            kappa = rng.uniform(0.5, 10.0)
            gamma_perp = rng.uniform(0.1, 3.0)
            g_ens = rng.uniform(0.1, 3.0)
            model = hom_model(kappa, gamma_perp, g_ens)
            C = g_ens**2 / (kappa * gamma_perp)
            lam_p, lam_m = eigenvalue_pair(kappa, gamma_perp, C)
            eigs = np.sort_complex(np.linalg.eigvals(model.drift))
            expected = np.sort_complex(np.array([lam_p, lam_p, lam_m, lam_m]))
            scale = max(kappa, gamma_perp, g_ens)
            assert np.max(np.abs(eigs - expected)) <= 1e-10 * scale

    def test_decoupled_limit_block_eigenvalues(self):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0)
        grid = discretize(spec, 5, 0.0, 1e6)
        params = SystemParams(kappa=3.0, gamma_perp=0.5, g_ens=0.0, delta_cs=0.7)
        model = build_drift_matrix(params, grid, 1)
        eigs = np.linalg.eigvals(model.drift)
        expected = np.concatenate(
            [
                [-3.0 + 0.7j, -3.0 - 0.7j],
                -0.5 + 1j * grid.deltas,
                -0.5 - 1j * grid.deltas,
            ]
        )
        assert_allclose(
            np.sort_complex(eigs), np.sort_complex(expected), atol=1e-12
        )

    def test_inversion_sign_flips_only_feedback_block(self):
        up = hom_model(8.0, 1.0, 2.0, p=1)
        down = hom_model(8.0, 1.0, 2.0, p=-1)
        diff = up.drift - down.drift
        expected = np.zeros_like(diff)
        expected[2, 1] = up.drift[2, 1] * 2
        expected[3, 0] = up.drift[3, 0] * 2
        assert np.array_equal(diff, expected)
        assert np.array_equal(up.noise_diag, down.noise_diag)

    def test_trace_counts_all_damping_channels(self):
        spec = BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.6)
        grid = discretize(spec, 21, 2.0, 1e6)
        params = SystemParams(kappa=4.0, gamma_perp=0.3, g_ens=2.0)
        model = build_drift_matrix(params, grid, 1)
        assert np.trace(model.drift) == pytest.approx(
            -2 * 4.0 - 2 * 21 * 0.3, rel=1e-14
        )

    def test_noise_diagonal(self):
        spec = BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.6)
        grid = discretize(spec, 3, 2.0, 9e5)
        params = SystemParams(kappa=4.0, gamma_perp=0.3, g_ens=2.0)
        model = build_drift_matrix(params, grid, 1)
        assert model.noise_diag[0] == 8.0
        assert model.noise_diag[1] == 8.0
        assert_allclose(model.noise_diag[2::2], 4 * 0.3 * grid.spins, rtol=1e-14)
        assert_allclose(model.noise_diag[3::2], 4 * 0.3 * grid.spins, rtol=1e-14)

    def test_detuning_enters_antisymmetrically(self):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0)
        grid = discretize(spec, 5, 2.0, 1e6)
        params = SystemParams(kappa=4.0, gamma_perp=0.0, g_ens=2.0)
        model = build_drift_matrix(params, grid, 1)
        ix = 2 + 2 * np.arange(5)
        assert_allclose(model.drift[ix, ix + 1], -grid.deltas, rtol=0, atol=0)
        assert_allclose(model.drift[ix + 1, ix], grid.deltas, rtol=0, atol=0)

    def test_rejects_bad_inversion_sign(self):
        grid = discretize(HOM, 1, 2.0, 1e6)
        params = SystemParams(kappa=4.0, gamma_perp=0.3, g_ens=2.0)
        with pytest.raises(PreconditionError):
            build_drift_matrix(params, grid, 0)

    def test_dense_drift_is_built_once_on_demand(self):
        model = hom_model(8.0, 1.0, 2.0)
        assert "drift" not in vars(model)
        drift = model.drift
        assert model.drift is drift
        assert drift.shape == (model.dim, model.dim)

    def test_drift_is_read_only(self):
        model = hom_model(8.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            model.drift[0, 0] = 1.0


class TestHomogeneousQ:
    def test_spectrum_three_doubly_degenerate_values(self, rng):
        for _ in range(25):
            kappa = rng.uniform(0.5, 10.0)
            gamma_perp = rng.uniform(0.1, 3.0)
            g_ens = rng.uniform(0.1, 4.0)
            params = SystemParams(kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens)
            Q, _ = build_homogeneous_Q(params, 1e6)
            C = g_ens**2 / (kappa * gamma_perp)
            lam_p, lam_m = eigenvalue_pair(kappa, gamma_perp, C)
            expected = np.array(
                [2 * lam_p, 2 * lam_p, 2 * lam_m, 2 * lam_m,
                 -(kappa + gamma_perp), -(kappa + gamma_perp)]
            )
            eigs = np.linalg.eigvals(Q)
            scale = max(kappa, gamma_perp, g_ens) * 2
            assert np.max(
                np.abs(np.sort_complex(eigs) - np.sort_complex(expected))
            ) <= 1e-10 * scale

    def test_inhomogeneous_rows(self):
        params = SystemParams(kappa=4.0, gamma_perp=0.5, g_ens=2.0)
        _, r = build_homogeneous_Q(params, 1e6)
        assert_allclose(
            r, [4.0, 4.0, 2 * 0.5 * 1e6, 2 * 0.5 * 1e6, 0.0, 0.0], rtol=1e-14
        )

    def test_rejects_detuned_cavity(self):
        params = SystemParams(kappa=4.0, gamma_perp=0.5, g_ens=2.0, delta_cs=1.0)
        with pytest.raises(PreconditionError):
            build_homogeneous_Q(params, 1e6)


class TestInitialState:
    def test_field_kick(self):
        grid = discretize(HOM, 1, 2.0, 1e6)
        y0, gamma0 = initial_state("field-kick", grid, alpha=1.5)
        assert y0[0] == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-15)
        assert np.all(y0[1:] == 0.0)
        # the diagonal of the covariance matrix
        assert_allclose(gamma0, [1.0, 1.0, 2e6, 2e6], rtol=1e-14)

    def test_tilted_spin(self):
        grid = discretize(HOM, 1, 2e-3, 1e6)
        y0, _ = initial_state("tilted-spin", grid, theta=1e-3)
        assert y0[2] == pytest.approx(1000.0, rel=1e-14)
        assert y0[0] == y0[1] == y0[3] == 0.0

    def test_tilted_spin_splits_over_subensembles(self):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0)
        grid = discretize(spec, 11, 2.0, 1e6)
        y0, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        assert_allclose(y0[2::2], 1e-3 * grid.spins, rtol=1e-14)
        assert np.all(y0[3::2] == 0.0)
        assert_allclose(gamma0[2::2], 2 * grid.spins, rtol=1e-14)

    def test_vacuum(self):
        grid = discretize(HOM, 1, 2.0, 1e6)
        y0, gamma0 = initial_state("vacuum", grid)
        assert np.all(y0 == 0.0)
        assert np.diag(gamma0)[0, 0] == 1.0

    @pytest.mark.parametrize("kind, start, message", [
        ("field-kick", {"alpha": 1.5e308},
         "the kicked field X_c(0) = sqrt(2) alpha is not finite at alpha = 1.5e+308"),
        ("tilted-spin", {"theta": 1e305}, "the collective tilt S_x(0) = theta N is "
                                          "not finite at theta = 1e+305, N = 1e+06"),
        ("tilted-spin", {"theta": np.nan}, "the collective tilt S_x(0) = theta N is "
                                           "not finite at theta = nan, N = 1e+06"),
    ])
    def test_starts_past_the_float_range_rejected(self, kind, start, message):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0)
        grid = discretize(spec, 21, 2.0, 1e6)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            initial_state(kind, grid, **start)

    def test_unknown_kind_rejected(self):
        grid = discretize(HOM, 1, 2.0, 1e6)
        with pytest.raises(PreconditionError):
            initial_state("squeezed", grid)
