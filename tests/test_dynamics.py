"""Moment propagation, Lyapunov steady states, and reductions."""

from __future__ import annotations

import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

import spincavity.dynamics as dynamics
from spincavity import (
    BroadeningFamily,
    BroadeningSpec,
    DriftModel,
    NumericalError,
    PreconditionError,
    RevivalGuardError,
    SubEnsembleGrid,
    SystemParams,
    UnstableModelError,
    arrowhead_eigenvalues,
    build_drift_matrix,
    characteristic_width,
    check_revival_window,
    discretize,
    evolve_covariance,
    evolve_mean,
    field_kick_response,
    gaussian_pole,
    initial_state,
    pole_seeds,
    solve_width_for_gamma,
    spectral_abscissa,
    stability_report,
    steady_state_covariance,
    steady_state_moments_hom,
)

from conftest import (
    dp45_covariance,
    expm_mean,
    fit_exponential_rate,
    lyapunov_oracle,
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


@pytest.fixture
def dense_calls(monkeypatch):
    """Counts of the dense paths the arrowhead eigen-system replaces.

    ``expm`` counts the matrix exponentials of the mean fallback: every
    ``scipy.linalg.expm`` call but the one inside each Van Loan pair.
    """
    calls = {"van_loan": 0, "bartels_stewart": 0, "expm": 0}
    # the scipy fallbacks are imported inside the functions that call
    # them, so they are counted where those imports find them
    for key, owner, name in [
        ("van_loan", dynamics, "_van_loan_pair"),
        ("bartels_stewart", scipy.linalg, "solve_continuous_lyapunov"),
        ("expm", scipy.linalg, "expm"),
    ]:
        def counted(*args, _key=key, _run=getattr(owner, name), **kwargs):
            calls[_key] += 1
            calls["expm"] -= _key == "van_loan"  # the pair's own exponential
            return _run(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


NO_DENSE_CALLS = {"van_loan": 0, "bartels_stewart": 0, "expm": 0}


@pytest.fixture
def aberth_calls(monkeypatch):
    """``(pairs, root_pairs, settled)`` of each model of each secular
    iteration run."""
    calls = []
    run = dynamics._aberth_roots

    def counted(*args, **kwargs):
        found = run(*args, **kwargs)
        calls.extend((kwargs.get("pairs", 0), kwargs.get("root_pairs", 0),
                      not isinstance(result, NumericalError)) for result in found)
        return found

    monkeypatch.setattr(dynamics, "_aberth_roots", counted)
    return calls


def real_track(gamma, m):
    """The six ``_TRACK_KEYS`` entries read off a real covariance ``gamma``."""
    ix = 2 + 2 * np.arange(m)
    iy = ix + 1
    return np.array([
        gamma[0, 0], gamma[1, 1], gamma[np.ix_(ix, ix)].sum(),
        gamma[np.ix_(iy, iy)].sum(), gamma[ix, 1].sum(), gamma[iy, 0].sum(),
    ]) / 2.0


def track_of(series):
    """The (T, 6) variance track of a covariance run's reductions."""
    return np.column_stack([series.reductions[key] for key in dynamics._TRACK_KEYS])


def assert_matches_dp45(model, gamma0, times, series):
    """Stored covariances and the variance track within 1e-8 of each
    time's DP45 oracle peak from the covariance diagonal ``gamma0``."""
    reference = dp45_covariance(model.drift, model.noise_diag, np.diag(gamma0), times)
    error = np.abs(series.covariances - reference).max(axis=(1, 2))
    scale = np.abs(reference).max(axis=(1, 2))
    assert np.all(error <= 1e-8 * scale)
    track = np.array([real_track(gamma, model.grid.size) for gamma in reference])
    error = np.abs(track_of(series) - track).max(axis=1)
    assert np.all(error <= 1e-8 * np.abs(track).max(axis=1))


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

    @pytest.mark.parametrize("path", ["spectral", "dense"])
    def test_leaves_global_rng_stream_untouched(self, path, monkeypatch):
        if path == "dense":
            monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
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
        assert evolve_mean(model, y0, times).fallbacks == (path == "dense")

    @pytest.mark.parametrize(
        "times, exponentials",
        [(np.array([0.0, 0.1, 0.25, 1.0, 2.9, 3.0]), 5),
         (np.linspace(0.0, 3.0, 31), 1)],
        ids=["nonuniform-grid", "uniform-grid"],
    )
    def test_dense_mean_fallback(self, monkeypatch, dense_calls, times,
                                 exponentials):
        # every eigen-system gate closed: exact steps e^{A h}, one
        # exponential per interval, or one for a uniform grid
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        model, grid = small_model(spec=LOR, m=41, delta_cs=0.5)
        y0, _ = initial_state("field-kick", grid, alpha=1.0)
        series = evolve_mean(model, y0, times)
        assert series.fallbacks == 1
        assert dense_calls == {**NO_DENSE_CALLS, "expm": exponentials}
        reference = expm_mean(model.drift, y0, times)
        scale = np.abs(reference).max()
        assert np.max(np.abs(series.means - reference)) <= 1e-8 * scale

    def test_weak_coupling_takes_the_dense_steps_silently(self, dense_calls):
        # at g_ens = 1e-9 all 21 roots round onto their poles, so their
        # weights are not finite: the path turns dense before the first
        # time block, and no Cauchy sum warns
        params = SystemParams(kappa=1.0, gamma_perp=0.1, g_ens=1e-9)
        grid = discretize(BroadeningSpec(BroadeningFamily.LORENTZIAN, 2.0), 21,
                          1e-9, 1e6)
        model = build_drift_matrix(params, grid, 1)
        assert np.isin(-dynamics._spectrum(model).lam,
                       dynamics._secular_terms(model)[0]).sum() == 21
        y0, _ = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 5.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = evolve_mean(model, y0, times)
        assert series.fallbacks == 1
        assert dense_calls == {**NO_DENSE_CALLS, "expm": 1}
        reference = expm_mean(model.drift, y0, times)
        scale = np.abs(reference).max()
        assert np.max(np.abs(series.means - reference)) <= 1e-8 * scale

    def test_time_grid_validation(self):
        model, grid = small_model()
        y0, _ = initial_state("vacuum", grid)
        with pytest.raises(PreconditionError):
            evolve_mean(model, y0, [0.5, 1.0])
        with pytest.raises(PreconditionError):
            evolve_mean(model, y0, [0.0, 1.0, 0.5])
        with pytest.raises(PreconditionError):
            evolve_mean(model, y0, [0.0])

    @pytest.mark.parametrize("size", [11, 13, 0])
    def test_state_length_must_match_the_model(self, size):
        model, _ = small_model()
        message = f"state length ({size},) does not match model dim 12"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            evolve_mean(model, np.zeros(size), np.linspace(0.0, 1.0, 3))


class TestEvolveCovariance:
    def test_matches_van_loan_oracle(self):
        model, grid = small_model(m=3, g_ens=1.0)
        _, gamma0 = initial_state("vacuum", grid)
        times = np.linspace(0.0, 2.0, 5)
        series = evolve_covariance(model, gamma0, times, store_full=True)
        reference = vanloan_covariance(
            model.drift, np.diag(model.noise_diag), np.diag(gamma0), times
        )
        scale = np.abs(reference).max()
        assert np.max(np.abs(series.covariances - reference)) <= 1e-6 * scale

    @pytest.mark.parametrize(
        "case, path",
        [pytest.param(case, path,
                      id=case if path == "spectral" else f"{case}-{path}")
         for path in ("spectral", "van-loan")
         for case in ("coarse-grid", "unstable", "zero-dephasing",
                      "nonuniform-grid")],
    )
    def test_matches_dp45_oracle_at_hard_edges(self, case, path, dense_calls,
                                               monkeypatch):
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
        if path == "van-loan":
            monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        _, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        series = evolve_covariance(model, gamma0, times, store_full=True)
        if path == "spectral":
            # the arrowhead eigen-system, not a dense fallback, gave the result
            assert series.fallbacks == 0 and dense_calls == NO_DENSE_CALLS
        else:
            assert series.fallbacks >= 1 and dense_calls["van_loan"] >= 1
        assert_matches_dp45(model, gamma0, times, series)

    def test_decoupled_cavity_variance_relaxation(self):
        model, grid = small_model(g_ens=0.0, kappa=2.0, gamma_perp=0.0)
        _, gamma0 = initial_state("vacuum", grid)
        gamma0[0] = gamma0[1] = 3.0  # displaced to Var = 3/2
        times = np.linspace(0.0, 2.0, 9)
        series = evolve_covariance(model, gamma0, times)
        var_x = series.reductions["var_X_c"]
        assert_allclose(
            var_x, 0.5 + 1.0 * np.exp(-2 * 2.0 * times), rtol=1e-7
        )
        # undamped, noiseless spin block stays frozen
        var_sx = series.reductions["var_S_x"]
        assert_allclose(var_sx, var_sx[0], rtol=1e-12)

    def test_output_symmetrized(self):
        model, grid = small_model(m=3)
        _, gamma0 = initial_state("vacuum", grid)
        series = evolve_covariance(
            model, gamma0, np.linspace(0.0, 1.0, 3), store_full=True
        )
        for gamma in series.covariances:
            assert np.array_equal(gamma, gamma.T)

    def test_takes_only_the_covariance_diagonal(self):
        # the start is the (dim,) diagonal that initial_state returns; a
        # matrix, even a diagonal one, is refused naming that shape, and
        # a squeezed field or spin, unequal in its two quadratures, is
        # refused naming them
        model, grid = small_model(m=3)
        _, gamma0 = initial_state("vacuum", grid)
        for bad in (np.diag(gamma0), gamma0[:-1]):
            with pytest.raises(PreconditionError, match=r"\(8,\) diagonal"):
                evolve_covariance(model, bad, np.linspace(0.0, 1.0, 3))
        for quadratures in ([0, 1], [4, 5]):
            squeezed = gamma0.copy()
            squeezed[quadratures] *= [4.0, 0.25]
            with pytest.raises(PreconditionError, match="two quadratures"):
                evolve_covariance(model, squeezed, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("m, samples", [(1201, 3), (101, 201)],
                             ids=["M1201-T3", "M101-T201"])
    def test_dense_outputs_refused_past_the_budget(self, m, samples):
        # the steady state is one real (2M + 2)^2 array, refused past
        # M = 1023; the stored covariances are T of them (63.8 MiB at
        # M = 101, T = 201).  Both are refused before any is built
        model, grid = small_model(spec=GAUSS, m=m, gamma_perp=0.02)
        _, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 1.0, samples)
        tracemalloc.start()
        try:
            if 16 * (m + 1) ** 2 > dynamics._DENSE_BYTE_BUDGET:
                with pytest.raises(PreconditionError, match="16 MiB budget"):
                    steady_state_covariance(model)
            with pytest.raises(PreconditionError, match="16 MiB budget"):
                evolve_covariance(model, gamma0, times, store_full=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dynamics._DENSE_BYTE_BUDGET
        # the variance track alone still runs at this size
        assert evolve_covariance(model, gamma0, times).covariances is None


class TestSpectralMoments:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["homogeneous", "lorentzian", "gaussian"]),
        p=st.sampled_from([1, -1]),
        c=st.one_of(
            st.floats(0.02, 3.0),
            st.sampled_from([1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9]),
        ),
        log_kappa=st.floats(np.log(0.1), np.log(20.0)),
        gamma_perp=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
        log10_n=st.floats(0.0, 12.0),
        m=st.sampled_from([5, 15]),
    )
    # near threshold the steady state passes its residual bound but is
    # too large for the spectral track to subtract it accurately
    @example(family="homogeneous", p=1, c=1.0 - 1e-9, log_kappa=0.0,
             gamma_perp=0.0, log10_n=0.0, m=5)
    # and at N = 1e5, where the measured residual falls far below its
    # rounding level
    @example(family="homogeneous", p=1, c=1.0 - 1e-9, log_kappa=0.0,
             gamma_perp=0.0, log10_n=5.0, m=5)
    # and exactly at threshold, where rounding leaves the abscissa at
    # -5.9e-19 and the Lyapunov operator singular to rounding
    @example(family="homogeneous", p=1, c=1.0, log_kappa=1.0,
             gamma_perp=0.0, log10_n=0.0, m=5)
    def test_matches_dp45_and_lyapunov_oracles(self, family, p, c, log_kappa,
                                               gamma_perp, log10_n, m):
        # kappa and g_ens in units of the characteristic width Gamma; a
        # homogeneous model has one sub-ensemble (more would be deflated)
        if family == "homogeneous":
            spec, m, gamma_perp = HOM, 1, max(gamma_perp, 0.01)
        else:
            spec = BroadeningSpec(family, 1.2)
        Gamma = characteristic_width(spec, gamma_perp)
        kappa = np.exp(log_kappa) * Gamma
        g_ens = np.sqrt(c * kappa * Gamma)
        model, grid = small_model(spec=spec, m=m, kappa=kappa,
                                  gamma_perp=gamma_perp, g_ens=g_ens, p=p,
                                  n=10.0**log10_n)
        t_max = 2.0 / Gamma
        if grid.spacing is not None and gamma_perp == 0.0:
            t_max = min(t_max, 0.5 * np.pi / grid.spacing)  # revival guard
        times = np.linspace(0.0, t_max, 5)
        y0, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        series = evolve_covariance(model, gamma0, times, store_full=True)
        assert_matches_dp45(model, gamma0, times, series)
        means = evolve_mean(model, y0, times).means
        reference = expm_mean(model.drift, y0, times)
        assert np.abs(means - reference).max() <= 1e-8 * np.abs(reference).max()
        abscissa = spectral_abscissa(model)
        if abscissa >= 0.0:
            assert np.isnan(series.reductions["var_S_x_inf"])
            assert np.isnan(series.reductions["var_P_c_inf"])
            assert np.all(np.isnan(series.reductions["R"]))
            return
        gamma = steady_state_covariance(model)
        # a backward-stable solve is accurate to about eps times the
        # condition number ||A|| / |abscissa| of the Lyapunov operator,
        # with the spin quadratures scaled by 1 / sqrt(N_m); that passes
        # 1e-8 only within about 1e-7 of threshold
        eps = np.finfo(float).eps
        scale = np.repeat(np.concatenate(([1.0], 1.0 / np.sqrt(grid.spins))), 2)
        norm = np.abs(scale[:, None] * model.drift / scale).sum(axis=1).max()
        rtol = max(1e-8, eps * norm / -abscissa)
        if rtol > 1.0:
            # at threshold to rounding (c = 1.0): the operator is singular
            # to rounding, so no oracle can judge gamma.  A single line's
            # cooperativity is 1 to rounding, and the library reads the
            # rounded-negative abscissa as stable: its steady state is the
            # divergence rounding allows, of order the noise over
            # eps ||A|| (0.33 of it at least over 254 such models)
            if family == "homogeneous":
                assert stability_report(model.params, spec).C == pytest.approx(
                    1.0, rel=4 * eps)
            variances = scale**2 * np.diag(gamma)
            assert np.all(np.isfinite(gamma))
            assert variances.max() >= 0.1 * (scale**2 * model.noise_diag).max() / (eps * norm)
        else:
            reference = lyapunov_oracle(model)
            assert np.abs(gamma - reference).max() <= rtol * np.abs(reference).max()
        steady = [series.reductions[key] for key in ("var_P_c_inf", "var_S_x_inf")]
        assert_allclose(steady, real_track(gamma, m)[1:3],
                        rtol=1e-12, atol=1e-12 * np.abs(gamma).max())

    @pytest.mark.parametrize("case", ["exceptional-point", "decoupled"])
    def test_dense_fallbacks_run_and_match_oracles(self, case, dense_calls):
        if case == "exceptional-point":
            # the double root lambda = -2 of (lambda + 3)(lambda + 1) = -1
            model, grid = small_model(spec=HOM, m=1, kappa=3.0,
                                      gamma_perp=1.0, g_ens=1.0, p=-1)
        else:
            model, grid = small_model(g_ens=0.0, kappa=2.0, gamma_perp=0.4)
        y0, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 2.0, 9)
        series = evolve_covariance(model, gamma0, times, store_full=True)
        gamma = steady_state_covariance(model)
        mean_series = evolve_mean(model, y0, times)
        # the dense paths run on the complex arrowhead, not the real drift
        assert "drift" not in vars(model)
        assert series.fallbacks == 2  # covariance and steady state
        assert dense_calls["van_loan"] == 1
        assert dense_calls["bartels_stewart"] >= 1
        assert_matches_dp45(model, gamma0, times, series)
        residual = (model.drift @ gamma + gamma @ model.drift.T
                    + np.diag(model.noise_diag))
        assert np.abs(residual).max() <= 1e-10 * model.noise_diag.max()
        assert mean_series.fallbacks == 1 and dense_calls["expm"] >= 1
        reference = expm_mean(model.drift, y0, times)
        assert np.abs(mean_series.means - reference).max() <= (
            1e-8 * np.abs(reference).max()
        )

    def test_dense_fallbacks_name_an_overflow(self, monkeypatch, dense_calls):
        # C = 900: the growth e^{29 t} passes the float range near
        # t = 24.5, so every dense step from t = 25 on is inf or NaN.
        # Each call raises naming the path and the time, with no
        # RuntimeWarning (pytest turns one into an error)
        model, grid = small_model(spec=HOM, m=1, kappa=1.0, gamma_perp=1.0,
                                  g_ens=30.0)
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        y0, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 100.0, 5)
        for run, path in [
            (lambda: evolve_mean(model, y0, times), r"\(e\^\{H h\} steps\)"),
            (lambda: field_kick_response(model, times), r"\(e\^\{H h\} steps\)"),
            (lambda: evolve_covariance(model, gamma0, times), r"\(Van Loan steps\)"),
        ]:
            with pytest.raises(NumericalError, match=(
                f"the dense fallback {path} overflows the float range by t = 25$"
            )):
                run()
        assert dense_calls["expm"] >= 1 and dense_calls["van_loan"] >= 1

    def test_residual_gate_sends_the_steady_state_to_bartels_stewart(
        self, monkeypatch, dense_calls
    ):
        model, _ = small_model(m=7, g_ens=1.2)
        steady_state_covariance(model)
        assert dense_calls == NO_DENSE_CALLS
        # no residual passes a zero bound: the eigen-system's steady state
        # is refused, then Bartels-Stewart and its refinement pass
        monkeypatch.setattr(dynamics, "_LYAPUNOV_RTOL", 0.0)
        with pytest.raises(NumericalError):
            steady_state_covariance(model)
        assert dense_calls["bartels_stewart"] == 2
        # with no steady state a covariance run has no steady values or
        # R(t), and raises the same error
        _, gamma0 = initial_state("tilted-spin", model.grid, theta=1e-3)
        with pytest.raises(NumericalError, match="Lyapunov residual"):
            evolve_covariance(model, gamma0, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("path", ["spectral", "bartels-stewart"])
    @pytest.mark.parametrize(
        "spec, m, kappa, gamma_perp, g_ens, n",
        [(HOM, 1, 0.05, 0.01, 0.01, 1e11),
         (GAUSS, 41, 2.0, 0.3, 3.0, 1e6),
         (LOR, 9, 0.5, 0.05, 1.0, 1e12)],
        ids=["homogeneous-N1e11", "gaussian", "lorentzian-N1e12"],
    )
    def test_ground_state_ensemble_relaxes_to_vacuum(
        self, spec, m, kappa, gamma_perp, g_ens, n, path, monkeypatch,
        dense_calls,
    ):
        # with p = -1 the vacuum covariance solves the Lyapunov equation
        # exactly: the field-spin sources cancel term by term.  Unscaled,
        # Bartels-Stewart misses it by 1e-5 in the Lorentzian case.
        model, grid = small_model(spec=spec, m=m, kappa=kappa,
                                  gamma_perp=gamma_perp, g_ens=g_ens, p=-1,
                                  n=n)
        if path == "bartels-stewart":
            monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        _, vacuum = initial_state("vacuum", grid)
        gamma = steady_state_covariance(model)
        assert (dense_calls["bartels_stewart"] > 0) == (path == "bartels-stewart")
        assert np.abs(gamma - np.diag(vacuum)).max() <= 1e-10 * vacuum.max()
        # a start at the steady variance leaves R rounding over rounding
        series = evolve_covariance(model, vacuum, np.linspace(0.0, 1.0, 5))
        assert np.all(np.isnan(series.reductions["R"]))

    def test_means_and_track_on_any_grid(self):
        model, grid = small_model(spec=GAUSS, m=21, gamma_perp=0.1, g_ens=1.0)
        y0, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.array([0.0, 0.05, 0.3, 0.31, 2.0, 4.5])
        series = evolve_covariance(model, gamma0, times)
        uniform = evolve_covariance(model, gamma0, np.linspace(0.0, 4.5, 91))
        assert series.fallbacks == uniform.fallbacks == 0
        assert_allclose(track_of(series)[-1], track_of(uniform)[-1], rtol=1e-12)
        for key in ("var_S_x_inf", "var_P_c_inf"):
            assert np.isfinite(series.reductions[key])
            assert series.reductions[key] == uniform.reductions[key]
        means = evolve_mean(model, y0, times).means
        reference = expm_mean(model.drift, y0, times)
        assert np.abs(means - reference).max() <= 1e-12 * np.abs(reference).max()


    def test_eigen_paths_build_no_dense_matrix(self, monkeypatch, dense_calls):
        # the hot paths read the O(M) arrowhead border: neither the
        # (2M+2)^2 drift nor the (M+1)^2 arrowhead is formed
        def dense(self):
            raise AssertionError("dense arrowhead built")

        monkeypatch.setattr(DriftModel, "arrowhead", property(dense))
        model, grid = small_model(spec=GAUSS, m=21, gamma_perp=0.1, g_ens=1.0)
        y0, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 2.0, 11)
        assert evolve_mean(model, y0, times).fallbacks == 0
        assert evolve_covariance(model, gamma0, times).fallbacks == 0
        steady_state_covariance(model)
        spectral_abscissa(model)
        assert dense_calls == NO_DENSE_CALLS
        assert "drift" not in vars(model)

    def test_one_spectrum_per_model_and_gates(self, monkeypatch):
        # one record per model, kept read-only while the model lives,
        # found again when a gate constant changes, and let go with the
        # model
        model, grid = small_model(spec=GAUSS, m=21)
        spectrum = dynamics._spectrum(model)
        assert arrowhead_eigenvalues(model) is spectrum.lam
        assert dynamics._spectrum(model).residues is spectrum.residues
        for array in (spectrum.lam, spectrum.residues):
            assert not array.flags.writeable
        monkeypatch.setattr(dynamics, "_RESIDUE_BOUND", 0.0)
        assert dynamics._spectrum(model) is not spectrum
        assert dynamics._spectrum(model).residues is None
        y0, _ = initial_state("tilted-spin", grid, theta=1e-3)
        assert evolve_mean(model, y0, np.linspace(0.0, 1.0, 3)).fallbacks == 1
        record, alive = dynamics._MEMO[model], weakref.ref(model)
        del model
        assert alive() is None
        assert all(kept is not record for kept in dynamics._MEMO.values())

    def test_one_solve_per_model_whatever_the_call_order(self, aberth_calls):
        # interleaved paths on two live models each read their model's
        # own record, so neither model is solved a second time
        models = [small_model(spec=GAUSS, m=21, g_ens=g)[0] for g in (1.0, 1.5)]
        times = np.linspace(0.0, 1.0, 5)
        for model in models:
            evolve_mean(model, initial_state("tilted-spin", model.grid, theta=1e-3)[0],
                        times)
        for model in models:
            evolve_covariance(model, initial_state("vacuum", model.grid)[1], times)
        for model in models[::-1]:
            field_kick_response(model, times)
        # and a new model listed twice is solved once
        fresh = small_model(spec=GAUSS, m=21, g_ens=2.0)[0]
        spectra = dynamics.arrowhead_spectra(models + [fresh, fresh])
        assert aberth_calls == [(10, 10, True)] * 3
        assert spectra[0] is dynamics._spectrum(models[0]).lam
        assert spectra[2] is spectra[3]

    def test_a_decaying_spectrum_names_its_phase(self):
        # Re lambda < 0 everywhere: e^(lambda t) leaves the float range
        # only through Im(lambda) t, past t = max / max |Im lambda| > 0
        model, grid = small_model(spec=GAUSS, m=21)
        times = np.linspace(0.0, 1e308, 3)
        y0, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        lam = dynamics._spectrum(model).lam
        assert lam.real.max() < 0.0
        turn = np.abs(lam.imag).max()
        past = np.finfo(float).max / turn
        assert 0.0 < past < times[1]
        for run in (lambda: evolve_mean(model, y0, times),
                    lambda: field_kick_response(model, times),
                    lambda: evolve_covariance(model, gamma0, times)):
            with pytest.raises(NumericalError, match=(
                r"^the phase Im\(lambda\) t of e\^\(lambda t\) overflows the float "
                rf"range past t = {re.escape(f'{past:.6g}')} \(max \|Im lambda\| = "
            )):
                run()


def normalized_model(family, m, gamma_perp, delta_cs=0.0, p=1, c=0.5):
    """A broadened line of width Gamma = 1 at kappa = 8 and cooperativity c."""
    spec = BroadeningSpec(family, solve_width_for_gamma(family, 1.0, gamma_perp))
    params = SystemParams(kappa=8.0, gamma_perp=gamma_perp, g_ens=np.sqrt(8.0 * c),
                          delta_cs=delta_cs)
    return build_drift_matrix(params, discretize(spec, m, params.g_ens, 1e6), p)


def moment_residuals(model, lam, residues):
    """Relative residuals of the four moment identities of the arrowhead.

    With ``c = -H_00``, ``d_m = -H_mm`` and ``w_m = H_0m H_m0``:
    ``sum lambda = -(c + sum d)``, ``sum lambda^2 = c^2 + sum d^2 +
    2 sum w`` (the traces of ``H`` and ``H^2``), and, as ``r_k = v_k[0]
    u_k[0]``, ``sum r lambda = [H]_00 = -c`` and ``sum r lambda^2 =
    [H^2]_00 = c^2 + sum w``.  The plain traces are relative to the sum
    of the magnitudes of their terms, the weighted ones to
    ``sum |r| max |lambda|^j``.
    """
    diag, row, col = model._arrowhead_border()
    c, d, w = -diag[0], -diag[1:], row * col
    top = np.abs(residues).sum() * np.abs(lam).max() ** np.array([1, 2])
    return np.array([
        abs(lam.sum() + c + d.sum())
        / (np.abs(lam).sum() + abs(c) + np.abs(d).sum()),
        abs((lam**2).sum() - c * c - (d**2).sum() - 2.0 * w.sum())
        / ((np.abs(lam) ** 2).sum() + abs(c) ** 2 + (np.abs(d) ** 2).sum()
           + 2.0 * np.abs(w).sum()),
        abs((residues * lam).sum() + c) / top[0],
        abs((residues * lam**2).sum() - c * c - w.sum()) / top[1],
    ])


# a few dozen rounding units: the identities held to 1.5e-15 (M = 201 to
# 10001, mirrored and detuned lines)
MOMENT_RTOL = 32 * np.finfo(float).eps


class TestIndependentOracles:
    """Checks that share no code with the secular kernel or the fold."""

    @pytest.mark.parametrize(
        "family, m, gamma_perp, delta_cs",
        [("gaussian", 201, 0.0, 0.0), ("lorentzian", 201, 0.02, 0.3),
         ("gaussian", 2001, 0.0, 0.0), ("lorentzian", 2001, 0.02, 0.3),
         ("gaussian", 2001, 0.25, 0.3), ("gaussian", 10001, 0.02, 0.0)],
        ids=["gaussian-201", "lorentzian-detuned-201", "gaussian-2001",
             "lorentzian-detuned-2001", "gaussian-detuned-2001",
             "gaussian-10001"],
    )
    def test_root_and_residue_moments(self, family, m, gamma_perp, delta_cs):
        model = normalized_model(family, m, gamma_perp, delta_cs)
        spectrum = dynamics._spectrum(model)
        assert spectrum.residues is not None
        residuals = moment_residuals(model, spectrum.lam, spectrum.residues)
        assert np.all(residuals <= MOMENT_RTOL), residuals

    @pytest.mark.parametrize("delta_cs", [0.0, 0.3], ids=["mirrored", "detuned"])
    def test_swapped_residues_fail_the_first_moment(self, delta_cs):
        # the plain traces cannot see a swap; the weighted ones must, even
        # of two neighbouring roots in the band (1.3e-9 here)
        model = normalized_model("lorentzian", 201, 0.02, delta_cs)
        spectrum = dynamics._spectrum(model)
        lam, residues = spectrum.lam, spectrum.residues.copy()
        pair = np.argsort(lam.imag)[lam.size // 2 + 5:][:2]
        residues[pair] = residues[pair[::-1]]
        assert np.all(moment_residuals(model, lam, residues)[:2] <= MOMENT_RTOL)
        assert moment_residuals(model, lam, residues)[2] > 1e3 * MOMENT_RTOL

    @pytest.mark.parametrize(
        "family, m, gamma_perp, delta_cs, p",
        [("gaussian", 401, 0.02, 0.0, 1), ("lorentzian", 201, 0.25, 0.3, 1),
         ("lorentzian", 401, 0.0, 0.0, -1)],
        ids=["gaussian-0.02", "lorentzian-detuned-0.25", "lorentzian-undamped-p-1"],
    )
    def test_steady_state_matches_dense_bartels_stewart(
        self, family, m, gamma_perp, delta_cs, p, dense_calls
    ):
        model = normalized_model(family, m, gamma_perp, delta_cs, p)
        steady = dynamics._spectral_steady(model)
        gamma = steady_state_covariance(model)
        assert steady is not None and dense_calls == NO_DENSE_CALLS
        amp = steady.matrix()
        # scipy on the dense arrowhead, with the spins scaled by
        # 1 / sqrt(N_m); a backward-stable solve is accurate to about eps
        # times ||H|| / |abscissa|
        scale = np.concatenate(([1.0], 1.0 / np.sqrt(model.grid.spins)))
        arrowhead = scale[:, None] * model.arrowhead / scale
        noise = model.noise_diag[0::2] + model.noise_diag[1::2]
        reference = scipy.linalg.solve_continuous_lyapunov(
            arrowhead, -np.diag(scale**2 * noise)
        )
        rtol = 64 * np.finfo(float).eps * np.abs(arrowhead).sum(axis=1).max() / (
            -spectral_abscissa(model)
        )
        error = np.abs(np.outer(scale, scale) * amp - reference).max()
        assert error <= rtol * np.abs(reference).max()
        # the real covariance is the same matrix in quadratures
        assert_allclose(gamma[0, 0] + gamma[1, 1], amp[0, 0].real, rtol=1e-14)
        if p == -1:
            # the vacuum solves the Lyapunov equation exactly
            vacuum = np.concatenate(([1.0, 1.0], np.repeat(2.0 * model.grid.spins, 2)))
            balance = np.repeat(scale, 2)
            error = np.abs(np.outer(balance, balance) * (gamma - np.diag(vacuum)))
            assert error.max() <= rtol


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
        residual = (model.drift @ gamma + gamma @ model.drift.T
                    + np.diag(model.noise_diag))
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
        lam = arrowhead_eigenvalues(model)
        assert lam.shape == (model.grid.size + 1,)
        ours = np.concatenate([lam, lam.conj()])
        dense = np.linalg.eigvals(model.drift)
        distance = np.abs(ours[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(distance)
        norm = np.abs(model.drift).sum(axis=0).max()
        assert distance[rows, cols].max() <= 1e-12 * norm
        assert spectral_abscissa(model) == lam.real.max()


def strongly_coupled_batch():
    """A Gaussian line at C = 1 ... 40, kappa = 2, M = 201, both p."""
    width = solve_width_for_gamma(BroadeningFamily.GAUSSIAN, 1.0, 0.0)
    spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, width)
    return [
        small_model(spec=spec, m=201, kappa=2.0, gamma_perp=0.0,
                    g_ens=np.sqrt(2.0 * c), p=p)[0]
        for p in (1, -1) for c in np.geomspace(1.0, 40.0, 8)
    ]


def solved(model):
    """Roots and residues of a model's secular solve, ungated: the first
    layout that settles."""
    for layout in (0, 1):
        found = dynamics._solve([model], layout)[0][3]
        if not isinstance(found, NumericalError):
            return found
    raise found


def oracle_residues(model, lam):
    """``1 / F'(lambda_k)`` at the float roots ``lam``, in 40 digits."""
    poles, weights = dynamics._secular_terms(model)
    with mpmath.workdps(40):
        terms = [(mpmath.mpf(float(w)), mpmath.mpc(complex(d)))
                 for w, d in zip(weights, poles)]
        return np.array([
            complex(1 / (1 + mpmath.fsum(w / (mpmath.mpc(complex(x)) + d) ** 2
                                         for w, d in terms)))
            for x in lam
        ])


def assert_matches_dense(model, lam):
    """Eigenvalues equal dense eig of the arrowhead to 1e-12 ||A||_1."""
    dense = np.linalg.eigvals(model.arrowhead)
    distance = np.abs(lam[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(distance)
    norm = np.abs(model.drift).sum(axis=0).max()
    assert lam.shape == dense.shape
    assert distance[rows, cols].max() <= 1e-12 * norm


class TestSecularSolver:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["homogeneous", "lorentzian", "gaussian"]),
        p=st.sampled_from([1, -1]),
        log_c=st.floats(np.log(0.01), np.log(20.0)),
        log_kappa=st.floats(np.log(0.05), np.log(50.0)),
        gamma_perp=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
        log10_n=st.floats(0.0, 12.0),
        # 0 gives the mirrored problem of every discretized line
        delta_cs=st.one_of(
            st.just(0.0), st.floats(-3.0, -0.1), st.floats(0.1, 3.0)
        ),
        m=st.sampled_from([3, 41, 201]),
    )
    # iterates next to one another take small Aberth steps that only the
    # root sums make: a Newton step from there drew one onto a root
    # another iterate held, and a root went missing
    @example(family="lorentzian", p=1, log_c=1.0, log_kappa=0.0,
             gamma_perp=0.0, log10_n=0.0, delta_cs=-1.0, m=201)
    def test_matches_dense_eig(self, family, p, log_c, log_kappa,
                               gamma_perp, log10_n, delta_cs, m):
        # kappa and g_ens in units of the characteristic width Gamma
        if family == "homogeneous":
            spec, gamma_perp = HOM, max(gamma_perp, 0.01)
        else:
            spec = BroadeningSpec(family, 1.2)
        Gamma = characteristic_width(spec, gamma_perp)
        kappa = np.exp(log_kappa) * Gamma
        g_ens = np.sqrt(np.exp(log_c) * kappa * Gamma)
        model, _ = small_model(spec=spec, m=m, kappa=kappa,
                               gamma_perp=gamma_perp, g_ens=g_ens, p=p,
                               delta_cs=delta_cs, n=10.0**log10_n)
        assert_matches_dense(model, arrowhead_eigenvalues(model))

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("spec, m", [(HOM, 1), (LOR, 401), (GAUSS, 201)],
                             ids=["homogeneous", "lorentzian", "gaussian"])
    def test_threshold_from_below(self, spec, m, gap):
        # C = 1 - gap at gamma_perp = 0.5
        kappa, gamma_perp = 2.0, 0.5
        Gamma = characteristic_width(spec, gamma_perp)
        g_ens = np.sqrt((1.0 - gap) * kappa * Gamma)
        model, _ = small_model(spec=spec, m=m, kappa=kappa,
                               gamma_perp=gamma_perp, g_ens=g_ens)
        lam = arrowhead_eigenvalues(model)
        assert_matches_dense(model, lam)
        if spec is HOM:
            # the roots of (lambda + kappa)(lambda + gamma_perp) = g_ens^2
            # multiply to kappa gamma_perp - g_ens^2 = gap kappa gamma_perp
            fast = (-(kappa + gamma_perp)
                    - np.sqrt((kappa - gamma_perp) ** 2 + 4 * g_ens**2)) / 2
            slow = (kappa * gamma_perp - g_ens**2) / fast
            assert slow < 0.0
            assert abs(lam.real.max() - slow) <= 1e-14

    @pytest.mark.parametrize("kappa, gamma_perp, g_ens",
                             [(3.0, 1.0, 1.0), (4.0, 1.0, 1.5)])
    def test_homogeneous_double_root_is_exact(self, kappa, gamma_perp, g_ens):
        # (lambda + kappa)(lambda + gamma_perp) = -g_ens^2 with
        # (kappa - gamma_perp)^2 = 4 g_ens^2: the double root
        # -(kappa + gamma_perp) / 2, which the real seeds hit exactly and
        # dense eig splits by ~1e-8; its residues fail their gate
        model, _ = small_model(spec=HOM, m=1, kappa=kappa,
                               gamma_perp=gamma_perp, g_ens=g_ens, p=-1)
        lam = arrowhead_eigenvalues(model)
        assert np.array_equal(lam, np.full(2, -(kappa + gamma_perp) / 2.0))
        assert dynamics._spectrum(model).residues is None

    # p = -1 next to exceptional points, two roots 5e-3, 4e-2, 3e-4 and
    # 8e-9 apart and an exact double root, and the secular iterations
    # each takes: a second one runs the other layout of the collective pair
    @pytest.mark.parametrize(
        "family, gamma_perp, m, kappa, g_ens, iterations",
        [
            ("gaussian", 0.0, 7, 0.9767, 0.5479576888, 2),
            ("gaussian", 0.5, 21, 3.585, 1.716095568, 1),
            ("lorentzian", 0.25, 21, 0.2001, 0.10796603671656, 2),
            ("lorentzian", 0.25, 21, 0.2000934387948906, 0.10797683435503808, 1),
            ("homogeneous", 1.0, 1, 4.0, 1.5, 1),
        ],
    )
    def test_near_exceptional_points(self, family, gamma_perp, m, kappa, g_ens,
                                     iterations, aberth_calls):
        # merging roots are known to about the square root of rounding,
        # and dense eig to no better: 1e-7 of the spectral scale
        family = BroadeningFamily(family)
        width = (0.0 if family is BroadeningFamily.HOMOGENEOUS
                 else solve_width_for_gamma(family, 1.0, gamma_perp))
        params = SystemParams(kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens)
        grid = discretize(BroadeningSpec(family, width), m, g_ens, 1.0)
        model = build_drift_matrix(params, grid, -1)
        lam = arrowhead_eigenvalues(model)
        assert len(aberth_calls) == iterations and aberth_calls[-1][2]
        dense = np.linalg.eigvals(model.arrowhead)
        distance = np.abs(lam[:, None] - dense)
        rows, cols = linear_sum_assignment(distance)
        assert distance[rows, cols].max() <= 1e-7 * np.abs(dense).max()

    @pytest.mark.parametrize("kappa, gamma_perp, g_ens",
                             [(2.0, 0.1, 3.0), (0.5, 0.01, 0.3),
                              (1e3, 1e-3, 6e2)])
    def test_homogeneous_complex_pair(self, kappa, gamma_perp, g_ens):
        # delta_cs = 0: one real pole and real seeds, which the iteration
        # keeps on the real axis, while p = -1 and
        # 4 g_ens^2 > (kappa - gamma_perp)^2 give a complex pair
        model, _ = small_model(spec=HOM, m=1, kappa=kappa,
                               gamma_perp=gamma_perp, g_ens=g_ens, p=-1)
        lam = arrowhead_eigenvalues(model)
        # (lambda + kappa)(lambda + gamma_perp) = -g_ens^2
        root = np.sqrt(complex((kappa - gamma_perp) ** 2 - 4.0 * g_ens**2))
        closed = (-(kappa + gamma_perp) + np.array([-1.0, 1.0]) * root) / 2.0
        lam = lam[np.argsort(lam.imag)]
        assert np.abs(lam - closed).max() <= 1e-15 * np.abs(closed).max()

    # delta_cs = 0 on a discretized line; the first six are the sweep's
    # Gaussian (Gamma = 1, gamma_perp = 0, M = 201, 100 mirrored pole
    # pairs); (spec, M, gamma_perp, g_ens, kappa, p, pairs of roots)
    @pytest.mark.parametrize(
        "spec, m, gamma_perp, g_ens, kappa, p, root_pairs",
        [
            # a complex collective pair, seeded as one: 57, 44 and 40
            # iterations when it left the real axis only by rounding
            (None, 201, 0.0, 5.0, 0.5, -1, 101),
            (None, 201, 0.0, 2.0, 0.1, -1, 101),
            (None, 201, 0.0, 3.0, 1.0, -1, 101),
            # real collective roots, though (kappa - gamma_perp)^2 + 4 W < 0
            (None, 201, 0.0, 0.3, 0.2, -1, 100),
            # strong coupling and a small kappa: from -kappa the real
            # cavity seed was drawn into the band centre, which a real
            # root cannot get around, and the folded iteration stalled
            (None, 201, 0.0, 5.259056162393782, 0.5295732967676123, 1, 100),
            (None, 201, 0.0, 4.3900102582748435, 1.0390013100976117, 1, 100),
            # strong coupling: the real root next to the centre pole lies
            # far out, where the centre pole's own seed never got
            (BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.2), 41, 0.0,
             11.807456965089377, 26.757707605844935, 1, 20),
            (BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.2), 201,
             1.2701727572717314, 25.378478128769565, 69.06678756941238, -1,
             100),
        ],
    )
    def test_mirrored_line_settles_in_the_folded_iteration(
        self, spec, m, gamma_perp, g_ens, kappa, p, root_pairs, aberth_calls
    ):
        if spec is None:
            width = solve_width_for_gamma(BroadeningFamily.GAUSSIAN, 1.0, 0.0)
            spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, width)
        model, _ = small_model(spec=spec, m=m, kappa=kappa,
                               gamma_perp=gamma_perp, g_ens=g_ens, p=p)
        lam = arrowhead_eigenvalues(model)
        assert aberth_calls == [((m - 1) // 2, root_pairs, True)]
        assert_matches_dense(model, lam)

    def test_one_ulp_off_the_mirror_takes_the_general_iteration(
        self, aberth_calls
    ):
        model, grid = small_model(spec=GAUSS, m=41)
        arrowhead_eigenvalues(model)
        assert aberth_calls == [(20, 20, True)]
        couplings = grid.couplings.copy()
        couplings[0] = np.nextafter(couplings[0], np.inf)
        skewed = replace(grid, couplings=couplings)
        model = build_drift_matrix(model.params, skewed, 1)
        weights = dynamics._secular_terms(model)[1]
        assert weights[0] != weights[-1]
        aberth_calls.clear()
        lam = arrowhead_eigenvalues(model)
        assert aberth_calls == [(0, 0, True)]
        assert_matches_dense(model, lam)

    def test_mirrored_iteration_retries_its_other_layout(
        self, monkeypatch, aberth_calls
    ):
        # two real collective roots, then one conjugate pair; both stop at
        # the cap, and the error names it
        model, _ = small_model(spec=GAUSS, m=41)
        monkeypatch.setattr(dynamics, "_ABERTH_MAX_ITER", 2)
        with pytest.raises(NumericalError, match="cap of 2 iterations"):
            arrowhead_eigenvalues(model)
        assert aberth_calls == [(20, 20, False), (20, 21, False)]

    def test_decoupled_and_repeated_poles_are_deflated(self):
        # sub-ensemble 3 is decoupled and two share the pole at Delta = 0
        grid = SubEnsembleGrid(
            family=BroadeningFamily.LORENTZIAN,
            deltas=np.array([-1.0, 0.0, 0.0, 1.0, 2.5]),
            couplings=np.array([0.5, 0.3, 0.4, 0.0, 0.2]) * 1e-3,
            spins=np.full(5, 2e5),
            total_spins=1e6,
            g_ens=1.0,
        )
        params = SystemParams(kappa=2.0, gamma_perp=0.3, g_ens=1.0,
                              delta_cs=0.4)
        model = build_drift_matrix(params, grid, 1)
        lam = arrowhead_eigenvalues(model)
        assert_matches_dense(model, lam)
        # both deflated eigenvalues are exact
        assert np.count_nonzero(lam == -(0.3 + 1j)) == 1
        assert np.count_nonzero(lam == -(0.3 + 0j)) == 1

    @pytest.mark.parametrize("p", [1, -1])
    @pytest.mark.parametrize("kappa, g_ens", [(1.0, np.sqrt(2.0)), (1.0, 1.5),
                                             (2.0, 2.0 * np.sqrt(2.0))])
    def test_cavity_on_a_pole(self, kappa, g_ens, p):
        # kappa = gamma_perp puts -(kappa + i delta_cs) on the pole, where
        # the weak-coupling seed w / (c - d) is infinite
        model, _ = small_model(spec=HOM, m=1, kappa=kappa, gamma_perp=kappa,
                               g_ens=g_ens, p=p)
        lam = arrowhead_eigenvalues(model)
        # (lambda + kappa)^2 = p g_ens^2
        closed = -kappa + np.array([1.0, -1.0]) * np.sqrt(complex(p * g_ens**2))
        distance = np.abs(np.sort_complex(lam) - np.sort_complex(closed))
        assert distance.max() <= 4 * np.finfo(float).eps * np.abs(closed).max()

    def test_seed_that_rounds_onto_its_pole(self):
        # a far-tail sub-ensemble so weakly coupled that its dressed
        # seed rounds to the pole -d_m itself
        grid = SubEnsembleGrid(
            family=BroadeningFamily.GAUSSIAN,
            deltas=np.array([-5.4, 0.0, 5.4]),
            couplings=np.sqrt([1e-16, 1.0, 1e-16]),
            spins=np.ones(3),
            total_spins=3.0,
            g_ens=1.0,
        )
        params = SystemParams(kappa=0.5, gamma_perp=1.0, g_ens=1.0)
        model = build_drift_matrix(params, grid, 1)
        poles, weights = dynamics._secular_terms(model)
        seeds = dynamics._seeds(0.5, poles, weights,
                                dynamics._hilbert_sums(poles, weights, True))
        assert seeds[1] == -poles[0] and seeds[3] == -poles[2]
        lam = arrowhead_eigenvalues(model)
        assert_matches_dense(model, lam)

    @pytest.mark.parametrize("p", [1, -1])
    def test_dressed_seeds_match_the_two_by_two_roots(self, p):
        # an unmirrored line and delta_cs != 0: the seed of pole m is
        # -d_m + t, t the root nearest 0 of (1 - U_m) t^2 + (c - d_m -
        # S_m) t = w_m, with S_m summed over the other poles in complex
        # arithmetic and U_m in a loop of its own
        rng = np.random.default_rng(26)
        poles = 0.3 + 1j * np.sort(rng.uniform(-3.0, 3.0, 41))
        weights = p * rng.uniform(0.01, 0.2, 41)
        shift = complex(2.0, 0.7)
        seeds = dynamics._seeds(shift, poles, weights,
                                dynamics._hilbert_sums(poles, weights, False))
        assert seeds[0] == -shift
        for m, (pole, w) in enumerate(zip(poles, weights)):
            others = np.arange(poles.size) != m
            dressed = shift - (weights[others] / (poles[others] - pole)).sum()
            slope = 0.0
            for j in range(poles.size):
                if j != m:
                    slope += weights[j] / (poles[j].imag - pole.imag) ** 2
            roots = np.roots([1.0 - slope, dressed - pole, -w])
            want = roots[np.argmin(np.abs(roots))] - pole
            assert abs(seeds[m + 1] - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("p", [1, -1])
    @pytest.mark.parametrize("spec", [LOR, GAUSS], ids=["lorentzian", "gaussian"])
    def test_mirrored_seeds_keep_the_mirror(self, spec, p):
        # the dressing sums of a mirrored line are odd (T) and even (U)
        # to the bit: the centre seed and every seed of the iteration's
        # real roots stay real, and mirrored poles get conjugate seeds
        model, _ = small_model(spec=spec, m=201, kappa=4.0, g_ens=1.0, p=p)
        poles, weights = dynamics._secular_terms(model)
        seeds = dynamics._seeds(4.0 + 0j, poles, weights,
                                dynamics._hilbert_sums(poles, weights, True))[1:]
        assert seeds[100].imag == 0.0
        assert np.array_equal(seeds[:100], seeds[:100:-1].conjugate())
        job = dynamics._job(4.0 + 0j, dynamics._line(poles, weights, True))
        assert job.seeds.size - job.root_pairs == 2
        assert np.all(job.seeds[:2].imag == 0.0)

    def test_strong_coupling_takes_few_iteration_rows(self, monkeypatch):
        # the dressed seeds settle in under 1.2 rows of secular sums per
        # root, each residue formed in the row that froze its root; with
        # a residue pass of its own they took 1.54 rows, first-order seeds
        # 1.9 and weak-coupling seeds over 3
        rows = []
        run = dynamics._split_sums

        def counted(z, *args, **kwargs):
            rows.append(z.size)
            return run(z, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_split_sums", counted)
        models = strongly_coupled_batch()
        spectra = dynamics._roots(models)
        assert sum(rows) <= 1.2 * sum(spectrum.lam.size for spectrum in spectra)

    @pytest.mark.parametrize("pairs", [0, 40], ids=["unfolded", "folded"])
    def test_split_sums_of_a_row_do_not_depend_on_its_block(self, pairs):
        # a row alone in a block, as a late block of one model's solve
        # holds it, gets the bits of the same row among the rows of
        # several models.  The folded layout's unpaired part is the one
        # centre pole, where an in-place product of one element rounds
        # apart; its weight dominates the sums next to the pairs, so no
        # larger term absorbs the difference
        rng = np.random.default_rng(30)
        signs = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        if pairs:
            halves = np.sort(rng.uniform(0.5, 4.0, pairs))
            poles = 0.2 + 1j * np.concatenate([[0.0], halves])
            weights = np.concatenate([rng.uniform(2.0, 5.0, (4, 1)),
                                      rng.uniform(1e-6, 1e-5, (4, pairs))], axis=1)
            shifts = rng.uniform(0.5, 3.0, 4) + 0j
            z = (-0.2 + 1j * rng.choice([-1.0, 1.0], 64) * rng.choice(halves, 64)
                 + 0.1 * (rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)))
        else:
            poles = 0.2 + 1j * np.sort(rng.uniform(-4.0, 4.0, 41))
            weights = rng.uniform(0.01, 0.3, (4, poles.size))
            shifts = rng.uniform(0.5, 3.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
            z = rng.uniform(-1.0, 0.0, 64) + 1j * rng.uniform(-4.0, 4.0, 64)
        weights = weights * signs
        owner = rng.integers(0, 4, 64)
        work = dynamics._work_arrays(poles.size)
        for aberth in (True, False):
            batch = [None if out is None else out.copy() for out in dynamics._split_sums(
                z, shifts[owner], poles, weights, pairs, work, owner, aberth)]
            for i, b in enumerate(owner):
                alone = dynamics._split_sums(z[i:i + 1], shifts[b], poles,
                                             weights[b:b + 1], pairs, work, None, aberth)
                for got, want in zip(alone, batch):
                    assert (got is None if want is None
                            else got.tobytes() == want[i:i + 1].tobytes())

    @pytest.mark.parametrize("case", ["wide-lorentzian", "strongly-coupled"])
    def test_residues_match_an_extended_precision_oracle(self, case):
        # the widest-tail decay line of the benchmark, whose freezing
        # steps are the largest (freeze scale 255 in its tail), and the
        # C = 40 line of the strongly coupled batch: each residue, formed
        # in the row that froze its root, is within 4 eps sum_k |r_k| of
        # 1 / F' at the same float roots in 40 digits
        if case == "wide-lorentzian":
            model, _ = small_model(spec=BroadeningSpec(BroadeningFamily.LORENTZIAN, 2.0),
                                   m=401, kappa=4.0 / 1.752, gamma_perp=0.0, g_ens=2.0)
        else:
            model = strongly_coupled_batch()[7]
        lam, residues = solved(model)
        error = np.abs(residues - oracle_residues(model, lam))
        assert error.max() <= 4.0 * np.finfo(float).eps * np.abs(residues).sum()

    def test_near_exceptional_residues_within_their_condition(self):
        # two real roots 0.18 apart near an exceptional point, sum_k |r_k|
        # = 23.6: 1 / F' loses |r_k| A_k of the rounding of F', A_k = 1 +
        # sum_m |w_m / (lambda_k + d_m)^2|, and the residue pass this
        # replaced missed 4 eps sum_k |r_k| there by 3.4x as well
        width = solve_width_for_gamma(BroadeningFamily.GAUSSIAN, 1.0, 0.5)
        params = SystemParams(kappa=3.585, gamma_perp=0.5, g_ens=1.714379472432)
        grid = discretize(BroadeningSpec(BroadeningFamily.GAUSSIAN, width), 21,
                          params.g_ens, 1.0)
        model = build_drift_matrix(params, grid, -1)
        lam, residues = solved(model)
        size = np.abs(residues)
        assert size.sum() >= 20.0
        poles, weights = dynamics._secular_terms(model)
        condition = 1.0 + (np.abs(weights) / np.abs(lam[:, None] + poles) ** 2).sum(axis=1)
        error = np.abs(residues - oracle_residues(model, lam))
        bound = 4.0 * np.finfo(float).eps * (size.sum() + size**2 * condition)
        assert np.all(error <= bound)

    def test_second_order_seeds_lie_next_to_their_roots(self):
        # the slope U_m of the other poles' dressing takes the pole seeds
        # of the strongly coupled batch at least 100 times closer to the
        # settled roots than the first-order dressed seeds
        for model in strongly_coupled_batch():
            lam = arrowhead_eigenvalues(model)
            poles, weights = dynamics._secular_terms(model)
            seeds = dynamics._seeds(2.0 + 0j, poles, weights,
                                    dynamics._hilbert_sums(poles, weights, True))[1:]
            # the first-order seed: the root nearest 0 of t^2 + (c - d_m -
            # S_m) t = w_m, S_m in complex arithmetic
            others = poles[None, :] - poles[:, None]
            np.fill_diagonal(others, np.inf)
            gap = 2.0 - poles - (weights / others).sum(axis=1)
            root = np.sqrt(gap * gap + 4.0 * weights)
            root = np.where((gap.conjugate() * root).real < 0.0, -root, root)
            first = -poles + 2.0 * weights / (gap + root)
            # the centre seed stays first-order
            poled = np.arange(poles.size) != poles.size // 2
            near = [np.abs(seed[poled, None] - lam).min(axis=1)
                    for seed in (first, seeds)]
            assert np.median(near[0]) >= 100.0 * np.median(near[1])

    @pytest.mark.parametrize("p", [1, -1])
    @pytest.mark.parametrize("spec", [GAUSS, LOR], ids=["gaussian", "lorentzian"])
    def test_every_root_is_settled_to_its_tolerance(self, spec, p):
        # the roots a confirming Newton step settled: each matches dense
        # eig, and the Newton correction F / F' in extended precision is
        # within the settle tolerance 4 eps max(|lambda|, floor)
        model, _ = small_model(spec=spec, m=41, kappa=2.0, g_ens=4.0, p=p)
        lam = arrowhead_eigenvalues(model)
        assert_matches_dense(model, lam)
        poles, weights = dynamics._secular_terms(model)
        inv = 1.0 / np.add.outer(lam.astype(np.clongdouble), poles)
        f = lam + model.params.kappa - (weights * inv).sum(axis=1)
        df = 1.0 + (weights * inv * inv).sum(axis=1)
        floor = max(model.params.kappa, np.abs(poles).max())
        tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(lam), floor)
        assert np.all(np.abs(f / df).astype(float) <= tol)

    @pytest.mark.parametrize("m", [601, 1201])
    def test_strongly_coupled_absorbing_lorentzian(self, m):
        # C = 400 on an absorbing Lorentzian line at gamma_perp = 0: from
        # weak-coupling seeds both secular iterations ran to their cap,
        # and past M = 1023 dense eigvals is over its budget
        params = SystemParams(kappa=0.25, gamma_perp=0.0, g_ens=10.0)
        grid = discretize(BroadeningSpec(BroadeningFamily.LORENTZIAN, 2.0), m,
                          10.0, 1.0)
        model = build_drift_matrix(params, grid, -1)
        lam = arrowhead_eigenvalues(model)
        if m == 601:
            assert_matches_dense(model, lam)

    def test_fully_decoupled_model(self):
        model, grid = small_model(g_ens=0.0, kappa=3.0, delta_cs=0.5)
        lam = arrowhead_eigenvalues(model)
        expected = np.concatenate([[-(3.0 + 0.5j)], -(0.2 + 1j * grid.deltas)])
        assert np.array_equal(np.sort_complex(lam), np.sort_complex(expected))

    def test_slowest_root_approaches_continuum_pole(self):
        # C = 4/3 above threshold: the growing root of the Gaussian pole
        # condition lies right of the band, where the discretized
        # spectrum converges to it
        params = SystemParams(kappa=3.0, gamma_perp=0.0, g_ens=2.0)
        sigma = GAUSS.width
        root = gaussian_pole(params, sigma, pole_seeds(params, sigma)["slow"]).lam
        errors = []
        for m in (21, 41, 81, 161):
            model = build_drift_matrix(params, discretize(GAUSS, m, 2.0, 1e6), 1)
            lam = arrowhead_eigenvalues(model)
            errors.append(abs(lam[np.argmax(lam.real)] - root))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-7 * abs(root)

    def test_general_iteration_at_its_cap_raises(self, monkeypatch, aberth_calls):
        # an unmirrored line has one layout: no second iteration runs, and
        # no dense root finder stands behind the secular one
        model, _ = small_model(spec=GAUSS, m=41, delta_cs=0.3)
        monkeypatch.setattr(dynamics, "_ABERTH_MAX_ITER", 2)
        with pytest.raises(NumericalError, match="^secular roots still moving at "
                                                 "the cap of 2 iterations$"):
            arrowhead_eigenvalues(model)
        assert aberth_calls == [(0, 0, False)]

    def test_work_arrays_stay_within_the_chunk_budget(self):
        # unchunked, the (M+1) x M complex work arrays of M = 601 take
        # 5.8 MB each: 28 MiB peak for the roots, 11 MiB for the field
        model, _ = small_model(spec=GAUSS, m=601, kappa=8.0, gamma_perp=0.0,
                               g_ens=2.0)
        times = np.linspace(0.0, 5.0, 201)
        tracemalloc.start()
        try:
            arrowhead_eigenvalues(model)
            roots_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _, fallback = field_kick_response(model, times)
            field_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not fallback
        assert roots_peak <= 8 * dynamics._CHUNK_BYTES
        assert field_peak <= 8 * dynamics._CHUNK_BYTES

    @pytest.mark.parametrize("delta_cs", [0.3, 0.0])
    def test_chunking_leaves_the_roots_unchanged(self, monkeypatch, delta_cs,
                                                 aberth_calls):
        # an equal second model: the first one's roots are kept with it
        model, _ = small_model(spec=LOR, m=201, delta_cs=delta_cs)
        lam = arrowhead_eigenvalues(model)
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 16)  # one row a block
        again, _ = small_model(spec=LOR, m=201, delta_cs=delta_cs)
        assert np.array_equal(arrowhead_eigenvalues(again), lam)
        assert len(aberth_calls) == 2 and aberth_calls[0] == aberth_calls[1]


def batch_models(family, gamma_perp, p, delta_cs, points, m=21):
    """Models on one grid at the given ``(kappa, g_ens)`` points: their
    merged poles agree to the bit, so one batch iterates them together."""
    spec = BroadeningSpec(family, 1.2)
    return [
        build_drift_matrix(
            SystemParams(kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens,
                         delta_cs=delta_cs),
            discretize(spec, m, g_ens, 1e6), p,
        )
        for kappa, g_ens in points
    ]


def assert_bit_equal(got, want):
    """Two spectra with the same roots and residues, to the bit."""
    assert got.lam.tobytes() == want.lam.tobytes()
    assert (got.residues is None) == (want.residues is None)
    if want.residues is not None:
        assert got.residues.tobytes() == want.residues.tobytes()
    assert got.pairs == want.pairs


class TestBatchedSpectra:
    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "lorentzian"]),
        gamma_perp=st.sampled_from([0.0, 0.25]),
        p=st.sampled_from([1, -1]),
        delta_cs=st.sampled_from([0.0, 0.3]),
        points=st.lists(
            st.tuples(st.floats(0.2, 12.0), st.floats(0.2, 6.0)),
            min_size=2, max_size=6,
        ),
    )
    def test_each_spectrum_is_bit_equal_to_its_own_solve(
        self, family, gamma_perp, p, delta_cs, points
    ):
        # p = -1 mixes layouts with 0 and 2 real collective roots, so one
        # call runs several batches
        models = batch_models(family, gamma_perp, p, delta_cs, points)
        spectra = dynamics._spectra(models)
        assert dynamics.arrowhead_spectra(models) == [
            spectrum.lam for spectrum in spectra
        ]
        for model, spectrum in zip(models, spectra):
            assert_bit_equal(spectrum, dynamics._roots([model])[0])

    @pytest.mark.parametrize("delta_cs", [0.0, 0.3])
    @pytest.mark.parametrize("gamma_perp", [0.0, 0.25])
    @pytest.mark.parametrize("p", [1, -1])
    @pytest.mark.parametrize("family", ["gaussian", "lorentzian"])
    def test_a_sweep_sets_up_each_line_once(self, family, p, gamma_perp,
                                            delta_cs, monkeypatch):
        # a 3 x 3 (kappa, g_ens) grid: the three points at one g_ens lie
        # on one line, so a solve forms its dressing sums once, and each
        # spectrum stays bit-equal to its own solve
        points = [(kappa, g_ens) for g_ens in (0.5, 2.0, 6.0)
                  for kappa in (0.4, 1.5, 5.0)]
        models = batch_models(family, gamma_perp, p, delta_cs, points)
        alone = [dynamics._roots([model])[0] for model in models]
        sizes = []
        run = dynamics._hilbert_sums

        def counted(poles, *args):
            sizes.append(poles.size)
            return run(poles, *args)

        monkeypatch.setattr(dynamics, "_hilbert_sums", counted)
        dynamics._solve(models)
        assert sizes == [21] * 3
        for spectrum, want in zip(dynamics._roots(models), alone):
            assert_bit_equal(spectrum, want)

    def test_a_failing_model_retries_its_other_layout_alone(self, monkeypatch,
                                                            aberth_calls):
        points = [(2.0, 1.0), (4.0, 2.5), (8.0, 3.0)]
        alone = [dynamics._roots([model])[0]
                 for model in batch_models("gaussian", 0.0, 1, 0.0, points)]
        layouts = dynamics._collective_seeds

        def poisoned(shift, *args):
            # for the model at kappa = 4, NaN seeds in the first layout (its
            # steps are not finite) and the right one second
            likely, other = layouts(shift, *args)
            return (likely * np.nan, likely) if shift == 4.0 else (likely, other)

        monkeypatch.setattr(dynamics, "_collective_seeds", poisoned)
        aberth_calls.clear()
        models = batch_models("gaussian", 0.0, 1, 0.0, points)
        spectra = dynamics._spectra(models)
        # one folded batch of three, then the failed model on its own
        assert aberth_calls == [(10, 10, True), (10, 10, False), (10, 10, True),
                                (10, 10, True)]
        for k in range(3):
            assert_bit_equal(spectra[k], alone[k])

    def test_the_memo_lets_each_model_go(self):
        models = batch_models("lorentzian", 0.25, 1, 0.0,
                              [(2.0, 1.0), (4.0, 2.0), (8.0, 3.0)])
        spectra = dynamics.arrowhead_spectra(models)
        records = [dynamics._MEMO[model] for model in models]

        def kept():
            # counts only these models' records: other live models may
            # hold records of their own
            held = list(dynamics._MEMO.values())
            return [any(record is other for other in held) for record in records]

        assert kept() == [True] * 3
        # a later call reads the kept records
        assert dynamics.arrowhead_eigenvalues(models[1]) is spectra[1]
        del models[1]
        assert kept() == [True, False, True]
        del models[:]
        assert kept() == [False] * 3


def kick_oracle(model, times):
    """a(t)/a(0) after a unit field kick, by dense Pade exponentials."""
    y0 = np.zeros(model.dim)
    y0[0] = 1.0
    means = expm_mean(model.drift, y0, times)
    return means[:, 0] + 1j * means[:, 1]


# a strictly increasing grid from 0 that np.linspace does not reproduce
NONUNIFORM = 2.0 * np.linspace(0.0, 1.0, 21) ** 2


class TestFieldKickResponse:
    @pytest.mark.parametrize(
        "times", [np.linspace(0.0, 2.0, 21), NONUNIFORM],
        ids=["uniform", "nonuniform"],
    )
    # delta_cs = 0 mirrors the broadened lines: the folded iteration
    @pytest.mark.parametrize("delta_cs", [0.4, 0.0])
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
    def test_matches_expm_oracle(self, spec, m, kappa, g_ens, p, gamma_perp,
                                 delta_cs, times, monkeypatch, aberth_calls):
        calls = []
        monkeypatch.setattr(
            dynamics, "evolve_mean",
            lambda *args: calls.append(args) or evolve_mean(*args),
        )
        model, _ = small_model(spec=spec, m=m, kappa=kappa, g_ens=g_ens,
                               p=p, gamma_perp=gamma_perp, delta_cs=delta_cs)
        response, fallback = field_kick_response(model, times)
        reference = kick_oracle(model, times)
        peak = np.abs(reference).max()
        assert np.abs(response - reference).max() <= 1e-10 * peak
        assert not fallback and calls == []
        # the first secular iteration folds the pole pairs of a mirrored line
        assert (aberth_calls[0][0] > 0) == (delta_cs == 0.0 and m > 1)

    @pytest.mark.parametrize(
        "spec, m, delta_cs", [(GAUSS, 201, 0.0), (LOR, 201, 0.3)],
        ids=["gaussian-mirrored", "lorentzian-detuned"],
    )
    def test_residues_match_dense_eigenvectors(self, spec, m, delta_cs):
        # [e^{H t}]_00 = sum_k V[0, k] (V^-1)[k, 0] e^{lambda_k t}, so the
        # residue of lambda_k is V[0, k] (V^-1)[k, 0], from dense eig
        model, _ = small_model(spec=spec, m=m, gamma_perp=0.0, kappa=8.0,
                               g_ens=2.0, delta_cs=delta_cs)
        residues = dynamics._spectrum(model).residues
        lam = dynamics._spectrum(model).lam
        values, vectors = np.linalg.eig(model.arrowhead)
        dense = vectors[0] * np.linalg.inv(vectors)[:, 0]
        match = np.abs(lam[:, None] - values).argmin(axis=1)
        assert np.array_equal(np.sort(match), np.arange(lam.size))
        scale = np.abs(residues).sum()
        assert np.abs(residues - dense[match]).max() <= 1e-10 * scale

    @pytest.mark.parametrize("rows", [None, 4], ids=["chunk", "four-rows"])
    @pytest.mark.parametrize(
        "times",
        [np.linspace(0.0, 5.0, size) for size in (2, 3, 5, 201)]
        + [2.5 * NONUNIFORM],
        ids=["T2", "T3", "T5", "T201", "nonuniform"],
    )
    def test_growth_blocks_match_exp(self, times, rows, monkeypatch):
        # an unstable sweep point (C = 9), whose roots grow; blocks of four
        # rows cap the factored stride and split its coarse rows
        model, _ = small_model(spec=GAUSS, m=201, kappa=1.0, gamma_perp=0.0,
                               g_ens=3.0)
        lam = arrowhead_eigenvalues(model)
        assert lam.real.max() > 1.0
        if rows is not None:
            monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 16 * lam.size * rows)
        growth = np.empty((times.size, lam.size), dtype=complex)
        for block, values in dynamics._growth_blocks(times, lam):
            growth[block] = values
        exponent = np.outer(times, lam)
        reference = np.exp(exponent)
        ulps = 4.0 * np.finfo(float).eps * (1.0 + np.abs(exponent))
        assert np.all(np.abs(growth - reference) <= ulps * np.abs(reference))

    @pytest.mark.parametrize("gamma_perp", [0.0, 0.3])
    @pytest.mark.parametrize("p", [1, -1])
    @pytest.mark.parametrize("spec", [GAUSS, LOR], ids=["gaussian", "lorentzian"])
    def test_mirrored_line_sums_half_the_spectrum(self, spec, p, gamma_perp):
        # a folded spectrum sums its lone roots and one root of each
        # conjugate pair: a real field, within rounding of the sum over
        # every root at each time
        model, _ = small_model(spec=spec, m=201, kappa=2.0, g_ens=2.0, p=p,
                               gamma_perp=gamma_perp)
        spectrum = dynamics._spectrum(model)
        assert spectrum.pairs > 0
        times = np.linspace(0.0, 3.0, 61)
        response, fallback = field_kick_response(model, times)
        assert not fallback
        assert np.all(response.imag == 0.0)
        terms = spectrum.residues * np.exp(np.outer(times, spectrum.lam))
        bound = 16.0 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
        assert np.all(np.abs(response - terms.sum(axis=1)) <= bound)

    @pytest.mark.parametrize(
        "spec, m, delta_cs", [(GAUSS, 201, 0.3), (LOR, 201, 0.3), (HOM, 1, 0.0)],
        ids=["gaussian-detuned", "lorentzian-detuned", "homogeneous"],
    )
    def test_unfolded_spectrum_sums_every_root(self, spec, m, delta_cs):
        # with no pairs the field is the sum over every root, to the bit
        model, _ = small_model(spec=spec, m=m, kappa=2.0, g_ens=2.0,
                               delta_cs=delta_cs)
        spectrum = dynamics._spectrum(model)
        assert spectrum.pairs == 0
        times = np.linspace(0.0, 3.0, 61)
        want = np.empty(times.size, dtype=complex)
        for block, growth in dynamics._growth_blocks(times, spectrum.lam):
            want[block] = growth @ spectrum.residues
        response, fallback = field_kick_response(model, times)
        assert not fallback
        assert response.tobytes() == want.tobytes()

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
        response, fallback = field_kick_response(model, times)
        assert fallback and len(calls) == 1
        # the defective pair gives a(t)/a(0) = (1 - t) e^{-2 t}
        assert_allclose(response, (1.0 - times) * np.exp(-2.0 * times),
                        rtol=0.0, atol=1e-10)

    def test_decoupled_spins_fall_back(self):
        model, _ = small_model(g_ens=0.0, kappa=3.0, delta_cs=0.5)
        times = np.linspace(0.0, 2.0, 9)
        response, fallback = field_kick_response(model, times)
        assert fallback
        assert_allclose(response, np.exp(-(3.0 + 0.5j) * times), rtol=1e-12)

    def test_guards(self):
        model, _ = small_model(spec=GAUSS, m=25, gamma_perp=0.0)
        with pytest.raises(RevivalGuardError):
            field_kick_response(model, np.linspace(0.0, 20.0, 11))


class TestReductions:
    def test_relaxation_curve_properties(self):
        model, grid = small_model(spec=HOM, m=1, kappa=8.0, gamma_perp=1.0,
                                  g_ens=2.0)
        _, gamma0 = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 10.0, 41)
        series = evolve_covariance(model, gamma0, times)
        r_curve = series.reductions["R"]
        assert r_curve[0] == pytest.approx(1.0, abs=1e-12)
        assert r_curve[-1] == pytest.approx(0.0, abs=1e-3)
        assert np.all(np.isfinite(r_curve))

    def test_reductions_match_stored_covariances(self):
        model, grid = small_model(m=3)
        _, gamma0 = initial_state("vacuum", grid)
        times = np.linspace(0.0, 1.5, 5)
        series = evolve_covariance(model, gamma0, times, store_full=True)
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
        series = evolve_covariance(model, gamma0, np.linspace(0.0, 1.0, 3))
        assert np.isnan(series.reductions["var_S_x_inf"])
        assert np.all(np.isnan(series.reductions["R"]))

    def test_mean_reductions(self):
        model, grid = small_model(spec=GAUSS, m=5)
        y0, _ = initial_state("tilted-spin", grid, theta=1e-3)
        times = np.linspace(0.0, 1.0, 3)
        series = evolve_mean(model, y0, times)
        assert series.reductions["S_x"][0] == pytest.approx(
            1e-3 * grid.total_spins, rel=1e-12
        )
        assert series.reductions["X_c"][0] == 0.0
        means = series.means
        for key, column in (("X_c", means[:, 0]), ("P_c", means[:, 1]),
                            ("S_y", means[:, 3::2].sum(axis=1))):
            assert np.array_equal(series.reductions[key], column), key


class TestRevivalGuard:
    def test_guard_triggers_on_coarse_grid(self):
        grid = discretize(GAUSS, 25, 2.0, 1e6)
        with pytest.raises(RevivalGuardError):
            check_revival_window(grid, 0.0, 20.0)

    def test_guard_inactive_with_damping_or_fine_grid(self):
        grid = discretize(GAUSS, 25, 2.0, 1e6)
        assert check_revival_window(grid, 0.5, 20.0) is None
        fine = discretize(GAUSS, 1001, 2.0, 1e6)
        margin = check_revival_window(fine, 0.0, 20.0)
        assert margin == pytest.approx(2.0 * np.pi / fine.spacing / 80.0)
        assert margin >= 1.0

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
