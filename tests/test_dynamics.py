"""Moment propagation, Lyapunov steady states, and reductions."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

import spincavity.dynamics as dynamics
from spincavity import (
    BroadeningFamily,
    BroadeningSpec,
    NumericalError,
    PreconditionError,
    RevivalGuardError,
    SystemParams,
    UnstableModelError,
    build_drift_matrix,
    check_revival_window,
    collective_reduce,
    discretize,
    drift_eigenvalues,
    evolve_covariance,
    evolve_mean,
    field_kick_response,
    initial_state,
    spectral_abscissa,
    steady_state_covariance,
    steady_state_moments_hom,
)

from conftest import (
    dp45_covariance,
    expm_mean,
    fit_exponential_rate,
    vanloan_covariance,
)

HOM = BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.0)
LOR = BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.6)
GAUSS = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0)


def small_model(spec=LOR, m=5, kappa=4.0, gamma_perp=0.2, g_ens=1.5, p=1,
                delta_cs=0.0, n=1e6):
    params = SystemParams(
        kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens, delta_cs=delta_cs
    )
    grid = discretize(spec, m, g_ens, n)
    return build_drift_matrix(params, grid, p), grid


class TestEvolveMean:
    def test_matches_matrix_exponential(self):
        model, grid = small_model(spec=GAUSS, m=7, delta_cs=0.5)
        y0, _ = initial_state("field-kick", grid, alpha=1.0)
        times = np.linspace(0.0, 3.0, 7)
        series = evolve_mean(model, y0, times)
        reference = expm_mean(model.drift, y0, times)
        scale = np.abs(reference).max()
        assert np.max(np.abs(series.means - reference)) <= 1e-8 * scale

    def test_decoupled_cavity_decays_exponentially(self):
        model, grid = small_model(g_ens=0.0, kappa=3.0)
        y0, _ = initial_state("field-kick", grid, alpha=1.0)
        times = np.linspace(0.0, 2.0, 9)
        series = evolve_mean(model, y0, times)
        assert_allclose(
            series.means[:, 0], np.sqrt(2) * np.exp(-3.0 * times), rtol=1e-8
        )
        assert np.max(np.abs(series.means[:, 2:])) == 0.0

    def test_unstable_growth_rate(self):
        # C = 2 with kappa = gamma_perp makes the slow eigenvalue
        # exactly (sqrt(2) - 1) kappa
        kappa = 1.0
        model, grid = small_model(
            spec=HOM, m=1, kappa=kappa, gamma_perp=kappa,
            g_ens=np.sqrt(2.0) * kappa,
        )
        y0, _ = initial_state("field-kick", grid, alpha=1.0)
        times = np.linspace(0.0, 30.0, 61)
        series = evolve_mean(model, y0, times)
        late = times >= 15.0
        rate = fit_exponential_rate(times[late], series.means[late, 0])
        assert rate == pytest.approx((np.sqrt(2.0) - 1.0) * kappa, rel=1e-4)

    def test_linearity_with_fixed_steps(self):
        model, grid = small_model()
        y0, _ = initial_state("field-kick", grid, alpha=1.0)
        times = np.linspace(0.0, 1.0, 5)
        one = evolve_mean(model, y0, times)
        three = evolve_mean(model, 3.0 * y0, times)
        scale = np.abs(three.means).max()
        assert np.max(np.abs(three.means - 3.0 * one.means)) <= 1e-12 * scale

    def test_nonuniform_grid_matches_matrix_exponential(self):
        model, grid = small_model(spec=GAUSS, m=7, delta_cs=0.5)
        y0, _ = initial_state("field-kick", grid, alpha=1.0)
        times = np.array([0.0, 0.1, 0.25, 1.0, 2.9, 3.0])
        series = evolve_mean(model, y0, times)
        reference = expm_mean(model.drift, y0, times)
        scale = np.abs(reference).max()
        assert np.max(np.abs(series.means - reference)) <= 1e-8 * scale

    def test_leaves_global_rng_stream_untouched(self):
        model, grid = small_model(spec=LOR, m=41)
        y0, _ = initial_state("field-kick", grid, alpha=1.0)
        times = np.linspace(0.0, 20.0, 11)
        np.random.seed(7)
        first = evolve_mean(model, y0, times).means
        draw = np.random.random()
        np.random.seed(7)
        np.random.random()
        second = evolve_mean(model, y0, times).means
        np.random.seed(7)
        assert draw == np.random.random()
        assert np.array_equal(first, second)

    def test_time_grid_validation(self):
        model, grid = small_model()
        y0, _ = initial_state("vacuum", grid)
        with pytest.raises(PreconditionError):
            evolve_mean(model, y0, [0.5, 1.0])
        with pytest.raises(PreconditionError):
            evolve_mean(model, y0, [0.0, 1.0, 0.5])
        with pytest.raises(PreconditionError):
            evolve_mean(model, y0, [0.0])


class TestEvolveCovariance:
    def test_matches_van_loan_oracle(self):
        model, grid = small_model(m=3, g_ens=1.0)
        _, gamma0 = initial_state("vacuum", grid)
        times = np.linspace(0.0, 2.0, 5)
        series = evolve_covariance(model, gamma0, times, store_full=True)
        reference = vanloan_covariance(model.drift, model.noise, gamma0, times)
        scale = np.abs(reference).max()
        assert np.max(np.abs(series.covariances - reference)) <= 1e-6 * scale

    @pytest.mark.parametrize(
        "case",
        ["coarse-grid", "unstable", "zero-dephasing", "nonuniform-grid"],
    )
    def test_matches_dp45_oracle_at_hard_edges(self, case):
        if case == "coarse-grid":
            # one step with ||A||_1 h in the hundreds: a single
            # exponential of the Van Loan block overflows here
            model, grid = small_model(spec=GAUSS, m=21, kappa=8.0,
                                      g_ens=1.0)
            times = np.array([0.0, 20.0])
        elif case == "unstable":
            # C = 1.5: the variances grow without bound
            model, grid = small_model(spec=HOM, m=1, kappa=1.0,
                                      gamma_perp=1.0, g_ens=np.sqrt(1.5))
            times = np.linspace(0.0, 10.0, 11)
        elif case == "zero-dephasing":
            # undamped spins: marginal modes with zero real part
            model, grid = small_model(spec=GAUSS, m=41, gamma_perp=0.0)
            times = np.linspace(0.0, 5.0, 6)
        else:
            model, grid = small_model(spec=LOR, m=5, delta_cs=0.5)
            times = np.array([0.0, 0.1, 0.25, 1.0, 2.9, 3.0])
        _, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        series = evolve_covariance(model, gamma0, times, store_full=True)
        reference = dp45_covariance(
            model.drift, model.noise_diag, gamma0, times
        )
        error = np.abs(series.covariances - reference).max(axis=(1, 2))
        scale = np.abs(reference).max(axis=(1, 2))
        assert np.all(error <= 1e-8 * scale)

    def test_decoupled_cavity_variance_relaxation(self):
        model, grid = small_model(g_ens=0.0, kappa=2.0, gamma_perp=0.0)
        _, gamma0 = initial_state("vacuum", grid)
        gamma0 = gamma0.copy()
        gamma0[0, 0] = gamma0[1, 1] = 3.0  # displaced to Var = 3/2
        times = np.linspace(0.0, 2.0, 9)
        series = evolve_covariance(model, gamma0, times)
        var_x = series.var_track[:, 0]
        assert_allclose(
            var_x, 0.5 + 1.0 * np.exp(-2 * 2.0 * times), rtol=1e-7
        )
        # undamped, noiseless spin block stays frozen
        assert_allclose(
            series.var_track[:, 2], series.var_track[0, 2], rtol=1e-12
        )

    def test_output_symmetrized(self):
        model, grid = small_model(m=3)
        _, gamma0 = initial_state("vacuum", grid)
        series = evolve_covariance(
            model, gamma0, np.linspace(0.0, 1.0, 3), store_full=True
        )
        for gamma in series.covariances:
            assert np.array_equal(gamma, gamma.T)

    def test_rejects_asymmetric_initial_condition(self):
        model, grid = small_model(m=3)
        _, gamma0 = initial_state("vacuum", grid)
        bad = gamma0.copy()
        bad[0, 1] = 0.5
        with pytest.raises(PreconditionError):
            evolve_covariance(model, bad, np.linspace(0.0, 1.0, 3))


class TestSteadyState:
    def test_matched_rates_unit_field_variance(self):
        # kappa = Gamma makes the field variance exactly the vacuum value
        model, _ = small_model(spec=HOM, m=1, kappa=1.0, gamma_perp=1.0,
                               g_ens=np.sqrt(0.5))
        gamma = steady_state_covariance(model)
        assert gamma[0, 0] / 2 == pytest.approx(1.0, rel=1e-10)

    def test_matches_closed_form_moments(self):
        kappa, gamma_perp, g_ens, n = 3.0, 1.0, np.sqrt(1.5), 1e6
        model, _ = small_model(spec=HOM, m=1, kappa=kappa,
                               gamma_perp=gamma_perp, g_ens=g_ens, n=n)
        gamma = steady_state_covariance(model)
        ref = steady_state_moments_hom(kappa, gamma_perp, g_ens, n)
        assert gamma[0, 0] / 2 == pytest.approx(ref.var_X_c, rel=1e-10)
        assert gamma[1, 1] / 2 == pytest.approx(ref.var_P_c, rel=1e-10)
        assert gamma[2, 2] / 2 == pytest.approx(ref.var_S_x, rel=1e-10)
        assert gamma[2, 1] / 2 == pytest.approx(ref.cov_Sx_Pc, rel=1e-10)
        assert gamma[3, 0] / 2 == pytest.approx(ref.cov_Sy_Xc, rel=1e-10)

    def test_decoupled_steady_state_is_vacuum(self):
        model, grid = small_model(g_ens=0.0, kappa=2.0, gamma_perp=0.4)
        gamma = steady_state_covariance(model)
        expected = np.diag(
            np.concatenate([[1.0, 1.0], np.repeat(2 * grid.spins, 2)])
        )
        # interleave repeat puts (N_1, N_1, N_2, N_2, ...) as needed
        expected_diag = np.empty(model.dim)
        expected_diag[0] = expected_diag[1] = 1.0
        expected_diag[2::2] = 2 * grid.spins
        expected_diag[3::2] = 2 * grid.spins
        assert_allclose(gamma, np.diag(expected_diag), rtol=1e-10, atol=1e-8)

    def test_residual_contract(self):
        model, _ = small_model(m=7, g_ens=1.2)
        gamma = steady_state_covariance(model)
        residual = model.drift @ gamma + gamma @ model.drift.T + model.noise
        assert np.abs(residual).max() <= 1e-10 * model.noise_diag.max()

    def test_unstable_rejected(self):
        model, _ = small_model(spec=HOM, m=1, kappa=1.0, gamma_perp=1.0,
                               g_ens=1.5)
        with pytest.raises(UnstableModelError):
            steady_state_covariance(model)

    def test_physical_floors(self, rng):
        for _ in range(10):
            kappa = rng.uniform(0.5, 8.0)
            gamma_perp = rng.uniform(0.2, 2.0)
            c = rng.uniform(0.05, 0.9)
            g_ens = np.sqrt(c * kappa * gamma_perp)
            model, grid = small_model(spec=HOM, m=1, kappa=kappa,
                                      gamma_perp=gamma_perp, g_ens=g_ens)
            gamma = steady_state_covariance(model)
            assert gamma[0, 0] / 2 >= 0.5 * (1 - 1e-12)
            assert gamma[2, 2] / 2 >= grid.total_spins * (1 - 1e-12)


class TestSpectralAbscissa:
    def test_tracks_cooperativity_sign(self, rng):
        for spec in (HOM, LOR):
            for _ in range(10):
                kappa = rng.uniform(0.5, 8.0)
                gamma_perp = rng.uniform(0.05, 2.0)
                g_ens = rng.uniform(0.2, 3.0)
                m = 1 if spec.family is BroadeningFamily.HOMOGENEOUS else 41
                model, _ = small_model(spec=spec, m=m, kappa=kappa,
                                       gamma_perp=gamma_perp, g_ens=g_ens)
                if spec.family is BroadeningFamily.HOMOGENEOUS:
                    width = gamma_perp
                else:
                    width = spec.width / 2 + gamma_perp
                c = g_ens**2 / (kappa * width)
                if abs(c - 1.0) < 0.05:
                    continue
                assert (spectral_abscissa(model) > 0) == (c > 1)

    def test_decoupled_value(self):
        model, _ = small_model(g_ens=0.0, kappa=3.0, gamma_perp=0.2)
        assert spectral_abscissa(model) == pytest.approx(-0.2, rel=1e-12)


def realify(H):
    """Real drift of the complex arrowhead matrix, in model coordinates.

    A complex amplitude ``x + i y`` evolves with ``[[Re H, -Im H],
    [Im H, Re H]]``; the spin amplitudes are ``s_m = S_x - i S_y``, so
    their imaginary parts are ``-S_y`` and those rows and columns flip
    sign.
    """
    n = H.shape[0]
    real = np.empty((2 * n, 2 * n))
    real[0::2, 0::2] = H.real
    real[0::2, 1::2] = -H.imag
    real[1::2, 0::2] = H.imag
    real[1::2, 1::2] = H.real
    sign = np.ones(2 * n)
    sign[3::2] = -1.0
    return sign[:, None] * real * sign


# (spec, M, gamma_perp, delta_cs): every family, zero dephasing and a
# detuned cavity, from a single sub-ensemble up to M = 401
SPECTRUM_CASES = [
    (HOM, 1, 0.5, 0.7),
    (HOM, 1, 0.0, 0.0),
    (GAUSS, 41, 0.0, 0.7),
    (GAUSS, 401, 0.0, -0.7),
    (LOR, 41, 0.3, -0.7),
    (LOR, 401, 0.0, 0.7),
]
SPECTRUM_IDS = [
    f"{spec.family.value}-M{m}-gp{gp:g}-dcs{dcs:g}"
    for spec, m, gp, dcs in SPECTRUM_CASES
]


class TestArrowheadSpectrum:
    @pytest.mark.parametrize("p", [1, -1])
    @pytest.mark.parametrize(
        "spec, m, gamma_perp, delta_cs", SPECTRUM_CASES, ids=SPECTRUM_IDS
    )
    def test_realification_is_the_drift(self, spec, m, gamma_perp,
                                         delta_cs, p):
        model, _ = small_model(spec=spec, m=m, gamma_perp=gamma_perp,
                               delta_cs=delta_cs, p=p)
        assert model.arrowhead.shape == (model.grid.size + 1,) * 2
        assert np.array_equal(realify(model.arrowhead), model.drift)

    @pytest.mark.parametrize("p", [1, -1])
    @pytest.mark.parametrize(
        "spec, m, gamma_perp, delta_cs", SPECTRUM_CASES, ids=SPECTRUM_IDS
    )
    def test_eigenvalues_and_conjugates_are_the_drift_spectrum(
        self, spec, m, gamma_perp, delta_cs, p
    ):
        model, _ = small_model(spec=spec, m=m, gamma_perp=gamma_perp,
                               delta_cs=delta_cs, p=p)
        lam = drift_eigenvalues(model)
        assert lam.shape == (model.grid.size + 1,)
        ours = np.concatenate([lam, lam.conj()])
        dense = np.linalg.eigvals(model.drift)
        distance = np.abs(ours[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(distance)
        norm = np.abs(model.drift).sum(axis=0).max()
        assert distance[rows, cols].max() <= 1e-12 * norm
        assert spectral_abscissa(model) == lam.real.max()

    def test_eig_failure_is_numerical_error(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        model, _ = small_model(m=3)
        with pytest.raises(NumericalError):
            drift_eigenvalues(model)


def kick_oracle(model, times):
    """a(t)/a(0) after a unit field kick, by dense Pade exponentials."""
    y0 = np.zeros(model.dim)
    y0[0] = 1.0
    means = expm_mean(model.drift, y0, times)
    return means[:, 0] + 1j * means[:, 1]


class TestFieldKickResponse:
    @pytest.mark.parametrize("gamma_perp", [0.0, 0.3])
    @pytest.mark.parametrize(
        "spec, m, kappa, g_ens, p",
        [
            (GAUSS, 41, 2.0, 2.0, 1),
            (GAUSS, 41, 1.0, 1.5, -1),
            (LOR, 41, 4.0, 1.5, 1),
            (LOR, 41, 0.5, 2.0, -1),
            (HOM, 1, 3.0, 1.5, 1),
            (HOM, 1, 0.5, 2.0, -1),
        ],
        ids=["gaussian+", "gaussian-", "lorentzian+", "lorentzian-",
             "homogeneous+", "homogeneous-"],
    )
    def test_matches_expm_oracle(self, spec, m, kappa, g_ens, p,
                                 gamma_perp, monkeypatch):
        calls = []
        monkeypatch.setattr(
            dynamics, "evolve_mean",
            lambda *args: calls.append(args) or evolve_mean(*args),
        )
        model, _ = small_model(spec=spec, m=m, kappa=kappa, g_ens=g_ens,
                               p=p, gamma_perp=gamma_perp, delta_cs=0.4)
        times = np.linspace(0.0, 2.0, 21)
        response, fallback = field_kick_response(
            model, drift_eigenvalues(model), times
        )
        reference = kick_oracle(model, times)
        peak = np.abs(reference).max()
        assert np.abs(response - reference).max() <= 1e-10 * peak
        assert not fallback and calls == []

    def test_exceptional_point_falls_back(self, monkeypatch):
        # p = -1, kappa = 3, gamma_perp = 1, g_ens = 1: the double root
        # lambda = -2 of (lambda + kappa)(lambda + gamma_perp) = p g_ens^2
        calls = []
        monkeypatch.setattr(
            dynamics, "evolve_mean",
            lambda *args: calls.append(args) or evolve_mean(*args),
        )
        model, _ = small_model(spec=HOM, m=1, kappa=3.0, gamma_perp=1.0,
                               g_ens=1.0, p=-1)
        times = np.linspace(0.0, 5.0, 26)
        response, fallback = field_kick_response(
            model, drift_eigenvalues(model), times
        )
        assert fallback and len(calls) == 1
        # the defective pair gives a(t)/a(0) = (1 - t) e^{-2 t}
        assert_allclose(response, (1.0 - times) * np.exp(-2.0 * times),
                        rtol=0.0, atol=1e-10)

    def test_decoupled_spins_fall_back(self):
        model, _ = small_model(g_ens=0.0, kappa=3.0, delta_cs=0.5)
        times = np.linspace(0.0, 2.0, 9)
        response, fallback = field_kick_response(
            model, drift_eigenvalues(model), times
        )
        assert fallback
        assert_allclose(response, np.exp(-(3.0 + 0.5j) * times), rtol=1e-12)

    def test_guards(self):
        model, _ = small_model(spec=GAUSS, m=25, gamma_perp=0.0)
        lam = drift_eigenvalues(model)
        with pytest.raises(RevivalGuardError):
            field_kick_response(model, lam, np.linspace(0.0, 20.0, 11))
        with pytest.raises(PreconditionError):
            field_kick_response(model, lam[:-1], np.linspace(0.0, 1.0, 3))


class TestCollectiveReduce:
    def test_relaxation_curve_properties(self):
        model, grid = small_model(spec=HOM, m=1, kappa=8.0, gamma_perp=1.0,
                                  g_ens=2.0)
        _, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 10.0, 41)
        series = collective_reduce(
            evolve_covariance(model, gamma0, times), grid
        )
        r_curve = series.reductions["R"]
        assert r_curve[0] == pytest.approx(1.0, abs=1e-12)
        assert r_curve[-1] == pytest.approx(0.0, abs=1e-3)
        assert np.all(np.isfinite(r_curve))

    def test_reductions_match_stored_covariances(self):
        model, grid = small_model(m=3)
        _, gamma0 = initial_state("vacuum", grid)
        times = np.linspace(0.0, 1.5, 5)
        series = collective_reduce(
            evolve_covariance(model, gamma0, times, store_full=True), grid
        )
        ix = 2 + 2 * np.arange(grid.size)
        for k, gamma in enumerate(series.covariances):
            var_sx = gamma[np.ix_(ix, ix)].sum() / 2
            assert series.reductions["var_S_x"][k] == pytest.approx(
                var_sx, rel=1e-12
            )
            assert series.reductions["var_P_c"][k] == pytest.approx(
                gamma[1, 1] / 2, rel=1e-12
            )

    def test_unstable_marks_r_undefined(self):
        model, grid = small_model(spec=HOM, m=1, kappa=1.0, gamma_perp=1.0,
                                  g_ens=1.5)
        _, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        series = collective_reduce(
            evolve_covariance(model, gamma0, np.linspace(0.0, 1.0, 3)), grid
        )
        assert np.all(np.isnan(series.reductions["R"]))

    def test_mean_reductions(self):
        model, grid = small_model(spec=GAUSS, m=5)
        y0, _ = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 1.0, 3)
        series = collective_reduce(evolve_mean(model, y0, times), grid)
        assert series.reductions["S_x"][0] == pytest.approx(
            1e-3 * grid.total_spins, rel=1e-12
        )
        assert series.reductions["X_c"][0] == 0.0

    def test_grid_mismatch_rejected(self):
        model, _ = small_model(spec=GAUSS, m=5)
        other = discretize(GAUSS, 7, 1.5, 1e6)
        y0, _ = initial_state("vacuum", model.grid)
        series = evolve_mean(model, y0, np.linspace(0.0, 1.0, 3))
        with pytest.raises(PreconditionError):
            collective_reduce(series, other)


class TestRevivalGuard:
    def test_guard_triggers_on_coarse_grid(self):
        grid = discretize(GAUSS, 25, 2.0, 1e6)
        with pytest.raises(RevivalGuardError):
            check_revival_window(grid, 0.0, 20.0)

    def test_guard_inactive_with_damping_or_fine_grid(self):
        grid = discretize(GAUSS, 25, 2.0, 1e6)
        check_revival_window(grid, 0.5, 20.0)
        fine = discretize(GAUSS, 1001, 2.0, 1e6)
        check_revival_window(fine, 0.0, 20.0)

    def test_guard_wired_into_evolution(self):
        params = SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0)
        grid = discretize(GAUSS, 25, 2.0, 1e6)
        model = build_drift_matrix(params, grid, 1)
        y0, gamma0 = initial_state("field-kick", grid, alpha=1.0)
        times = np.linspace(0.0, 20.0, 11)
        with pytest.raises(RevivalGuardError):
            evolve_mean(model, y0, times)
        with pytest.raises(RevivalGuardError):
            evolve_covariance(model, gamma0, times)

    def test_message_suggests_grid_size(self):
        grid = discretize(GAUSS, 25, 2.0, 1e6)
        with pytest.raises(RevivalGuardError, match="M >="):
            check_revival_window(grid, 0.0, 20.0)


class TestGridRefinement:
    def test_gaussian_decay_curve_converged(self):
        # halving the spacing moves the curve by well under 0.2%
        params = SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0)
        times = np.linspace(0.0, 5.0, 26)
        curves = {}
        for m in (201, 401):
            grid = discretize(GAUSS, m, 2.0, 1e6)
            model = build_drift_matrix(params, grid, 1)
            y0, _ = initial_state("field-kick", grid, alpha=1.0)
            curves[m] = evolve_mean(model, y0, times).means[:, 0]
        scale = np.abs(curves[401]).max()
        assert np.max(np.abs(curves[201] - curves[401])) <= 2e-3 * scale
