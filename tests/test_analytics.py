"""Stability criteria, decay laws, and the Gaussian pole condition."""

from __future__ import annotations

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import spincavity.analytics as analytics
from spincavity import (
    BroadeningFamily,
    BroadeningSpec,
    ConvergenceError,
    DomainError,
    PreconditionError,
    SystemParams,
    UnstableModelError,
    eigenvalue_pair,
    gaussian_pole,
    lorentzian_kick_response,
    pole_seeds,
    stability_report,
    steady_state_moments_hom,
    threshold_rate_approx,
    weak_coupling_response,
)

SIGMA_UNIT = math.sqrt(math.pi / 2.0)  # Gaussian sigma that gives Gamma = 1


class TestEigenvaluePair:
    def test_roots_solve_quadratic(self, rng):
        for _ in range(20):
            kappa = rng.uniform(0.3, 10.0)
            Gamma = rng.uniform(0.1, 4.0)
            C = rng.uniform(0.01, 3.0)
            g2 = C * kappa * Gamma
            for lam in eigenvalue_pair(kappa, Gamma, C):
                assert abs((lam + kappa) * (lam + Gamma) - g2) <= 1e-9 * max(
                    g2, kappa * Gamma
                )

    def test_sum_is_total_damping(self):
        lam_p, lam_m = eigenvalue_pair(8.0, 1.0, 0.5)
        assert (lam_p + lam_m).real == pytest.approx(-9.0, rel=1e-14)
        assert (lam_p + lam_m).imag == 0.0

    def test_marginal_case_has_zero_root(self):
        lam_p, _ = eigenvalue_pair(4.0, 1.0, 1.0)
        assert lam_p == 0

    @pytest.mark.parametrize("kappa, Gamma, C", [
        (1.0, 1.0, 1.0 - 1e-9),
        (3.0, 0.7, 1.0 - 1e-9),
        (1e12, 1.0, 0.5),
        (1.0, 1e12, 0.5),
        (1e17, 1.0, 0.5),
        (2.0, 0.5, -20.0),
    ], ids=["threshold", "threshold-generic", "kappa-over-gamma-1e12",
            "gamma-over-kappa-1e12", "kappa-over-gamma-1e17", "oscillating"])
    def test_roots_match_mpmath(self, kappa, Gamma, C):
        # the exact roots of (lam + kappa)(lam + Gamma) = C kappa Gamma for
        # these very floats; a cancelling formula loses 1e-7 at threshold,
        # 2e-5 at kappa/Gamma = 1e12 and the whole slow root at 1e17
        with mpmath.workprec(200):
            k, G = mpmath.mpf(kappa), mpmath.mpf(Gamma)
            d = mpmath.sqrt(((k - G) / 2) ** 2 + mpmath.mpf(C) * k * G)
            exact = (-(k + G) / 2 + d, -(k + G) / 2 - d)
            for lam, ref in zip(eigenvalue_pair(kappa, Gamma, C), exact):
                assert abs(mpmath.mpc(lam) - ref) <= 1e-15 * abs(ref)
        lam_plus, _ = eigenvalue_pair(kappa, Gamma, C)
        assert (lam_plus.real < 0.0) == (C < 1.0)


class TestStabilityReport:
    def test_derived_quantities(self):
        spec = BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.6)
        params = SystemParams(kappa=8.0, gamma_perp=0.2, g_ens=2.0)
        report = stability_report(params, spec)
        assert report.Gamma == pytest.approx(1.0, rel=1e-14)
        assert report.kappa_c == pytest.approx(4.0, rel=1e-14)
        assert report.C == pytest.approx(0.5, rel=1e-14)
        assert report.stable

    @given(
        st.floats(0.2, 15.0),
        st.floats(0.05, 4.0),
        st.floats(0.05, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_stability_iff_slow_root_decays(self, kappa, gamma_perp, g_ens):
        spec = BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.0)
        params = SystemParams(kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens)
        report = stability_report(params, spec)
        if abs(report.C - 1.0) < 1e-9:
            return
        assert report.stable == (report.C < 1.0)
        assert report.stable == (report.lambda_plus.real < 0.0)


class TestLorentzianKickResponse:
    def test_initial_value(self):
        assert lorentzian_kick_response(1.3, 8.0, 1.0, 2.0, 0.0) == pytest.approx(
            1.3, rel=1e-12
        )

    def test_negative_times_are_zero(self):
        out = lorentzian_kick_response(1.0, 8.0, 1.0, 2.0, np.array([-1.0, 0.0]))
        assert out[0] == 0.0

    def test_marginal_asymptote(self):
        # C = 1 leaves a nonzero plateau alpha Gamma / (kappa + Gamma)
        kappa, Gamma = 4.0, 1.0
        g_ens = 2.0  # C = 1
        tail = lorentzian_kick_response(1.0, kappa, Gamma, g_ens, 200.0)
        assert tail.real == pytest.approx(Gamma / (kappa + Gamma), rel=1e-8)

    def test_decoupled_limit_uses_degenerate_branch(self):
        # kappa = Gamma with g -> 0 collapses both rates into a double
        # root; with phi_1(0) = 1 the closed form stays exact and continuous
        times = np.linspace(0.0, 3.0, 7)
        exact = lorentzian_kick_response(1.0, 1.0, 1.0, 0.0, times)
        assert_allclose(exact.real, np.exp(-times), rtol=1e-12)
        near = lorentzian_kick_response(1.0, 1.0, 1.0, 1e-13, times)
        assert np.max(np.abs(near - exact)) <= 1e-9

    @pytest.mark.parametrize("p, delta_cs, kappa, g_ens", [
        (1, 0.0, 8.0, 2.0), (-1, 0.0, 8.0, 2.0), (1, 3.0, 8.0, 2.0),
        (-1, 3.0, 2.0, 2.0), (1, 0.0, 2.0, 2.0),
        # the exact double root -2.5 of (lam + 4)(lam + 1) = -2.25
        (-1, 0.0, 4.0, 1.5),
        # detuned lines on which the far root needs d = -d and the roots
        # of _root_pair come out with the less damped one second
        (1, 5.0, 0.2, 1.0), (1, -5.0, 0.2, 1.0), (-1, -3.0, 0.5, 1.0),
    ])
    def test_matches_two_mode_propagator(self, p, delta_cs, kappa, g_ens):
        # the homogeneous line is the two-mode system (a, s) with
        # a' = -(kappa + i delta_cs) a - i g s / sqrt(2) and
        # s' = i sqrt(2) p g a - Gamma s: its exact propagator
        from scipy.linalg import expm

        Gamma, alpha = 1.0, 1.3
        H = np.array([
            [-(kappa + 1j * delta_cs), -1j * g_ens / math.sqrt(2.0)],
            [1j * math.sqrt(2.0) * p * g_ens, -Gamma],
        ])
        times = np.linspace(0.0, 3.0, 13)
        exact = np.array([alpha * expm(H * t)[0, 0] for t in times])
        closed = lorentzian_kick_response(
            alpha, kappa, Gamma, g_ens, times, p, delta_cs
        )
        assert np.max(np.abs(closed - exact)) <= 1e-12 * alpha

    def test_matches_fourier_inversion_oracle(self):
        # invert the field resolvent numerically; the bare-cavity part
        # is subtracted and added back in closed form to tame the tail
        kappa, Gamma, g2, alpha = 1.0, 1.0, 0.5, 1.0
        w = np.linspace(-200.0, 200.0, 80001)
        resolvent = 1.0 / (kappa - 1j * w - g2 / (Gamma - 1j * w))
        bare = 1.0 / (kappa - 1j * w)
        h = w[1] - w[0]
        simpson = np.ones(w.size)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0
        simpson *= h / 3.0
        for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0):
            inverted = alpha / (2 * np.pi) * np.sum(
                simpson * np.exp(-1j * w * t) * (resolvent - bare)
            ) + alpha * np.exp(-kappa * t)
            closed = lorentzian_kick_response(
                alpha, kappa, Gamma, np.sqrt(g2), t
            )
            assert abs(inverted - closed) <= 1e-4 * alpha


class TestGaussianPole:
    @pytest.mark.parametrize(
        "sigma, seed, message",
        [
            # NaN and inf pass a "<= 0" check; the error names sigma_delta,
            # not the seed whose strip check it would reach next
            *((sigma, -0.5, "sigma_delta must be finite and > 0")
              for sigma in (0.0, -1.0, math.nan, math.inf, -math.inf)),
            (1.0, complex(math.nan, 0.0), "seed must be finite"),
            (1.0, complex(-0.5, math.inf), "seed must be finite"),
        ],
    )
    def test_rejected_arguments(self, sigma, seed, message):
        params = SystemParams(kappa=2.0, gamma_perp=0.0, g_ens=1.0)
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            gaussian_pole(params, sigma, seed)

    def test_narrow_feature_limit_recovers_quadratic_root(self):
        # sigma far below every rate: the pole equation degenerates to
        # (lam + kappa)(lam + gamma_perp) = g^2; slow root (-3+sqrt5)/2
        params = SystemParams(kappa=2.0, gamma_perp=1.0, g_ens=1.0)
        expected = (-3.0 + math.sqrt(5.0)) / 2.0
        root = gaussian_pole(params, 1e-3, complex(expected + 0.05)).lam
        assert abs(root - expected) <= 1e-4 * abs(expected)
        assert abs(root.imag) <= 1e-10

    def test_near_threshold_matches_expansion(self):
        g_ens, sigma = 2.0, SIGMA_UNIT
        kappa_c = g_ens**2  # Gamma = 1
        kappa = 0.99 * kappa_c
        params = SystemParams(kappa=kappa, gamma_perp=0.0, g_ens=g_ens)
        approx = threshold_rate_approx(kappa, kappa_c, sigma, g_ens)
        root = gaussian_pole(params, sigma, complex(approx)).lam
        assert root.real == pytest.approx(approx, rel=0.05)

    def test_marginal_point_root_at_origin(self):
        params = SystemParams(kappa=4.0, gamma_perp=0.0, g_ens=2.0)  # C = 1
        root = gaussian_pole(params, SIGMA_UNIT, 0.1 + 0.0j).lam
        assert abs(root) <= 1e-8

    def test_decoupled_limit_bare_cavity_pole(self):
        params = SystemParams(kappa=1.0, gamma_perp=2.0, g_ens=1e-3)
        root = gaussian_pole(params, 1.0, complex(-1.0 + 0.01)).lam
        assert abs(root + 1.0) <= 1e-4

    def test_seed_outside_faddeeva_strip_rejected(self):
        params = SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0)
        with pytest.raises(PreconditionError, match="Re\\(seed\\)"):
            gaussian_pole(params, 0.3, -8.0 + 0j)

    def test_budget_exhaustion_carries_trace(self):
        params = SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0)
        with pytest.raises(ConvergenceError) as info:
            gaussian_pole(params, SIGMA_UNIT, 3.0 + 4.0j, max_iter=2)
        assert len(info.value.trace) >= 2
        assert all(isinstance(z, complex) for z in info.value.trace)

    @pytest.mark.parametrize("value, message", [
        # F' = 0 at the seed: no Newton step exists
        ((1.0, 0.0), "pole search stalled on a vanishing derivative"),
        # |F| = 1 at every lambda: no damped step lowers the residual
        ((1.0, 1.0), "pole search could not reduce the residual "
                     "(|F|=1.000e+00 at lam=0.5+0j)"),
    ], ids=["vanishing-derivative", "unreduced-residual"])
    def test_stalled_search_fails_at_its_seed(self, monkeypatch, value, message):
        monkeypatch.setattr(analytics, "_pole_function", lambda *args: value)
        params = SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0)
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$") as info:
            gaussian_pole(params, SIGMA_UNIT, 0.5 + 0j)
        assert info.value.trace == [0.5 + 0j]

    def test_default_seeds_find_the_slow_root(self):
        params = SystemParams(kappa=8.0, gamma_perp=0.0, g_ens=2.0)
        seeds = pole_seeds(params, SIGMA_UNIT)
        assert set(seeds) == {"fast", "slow"}
        slow = gaussian_pole(params, SIGMA_UNIT, seeds["slow"]).lam
        fast = gaussian_pole(params, SIGMA_UNIT, seeds["fast"]).lam
        assert slow.real < 0
        assert abs(slow - fast) <= 1e-8 * abs(slow)

    @pytest.mark.parametrize("kappa", [1.3e154, 1.4e154, 1e300])
    def test_overflowing_seeds_name_the_rates(self, kappa):
        # (kappa - gamma_perp) ** 2 raises OverflowError past ~1.34e154,
        # and just below it the slow seed's products overflow to inf
        params = SystemParams(kappa=kappa, gamma_perp=0.0, g_ens=2.0)
        with pytest.raises(DomainError, match=re.escape(f"kappa={kappa:g}")):
            pole_seeds(params, SIGMA_UNIT)

    def test_overflowing_coupling_names_g_ens(self):
        # g_ens ** 2 raises OverflowError past ~1.34e154; the seed is fine
        params = SystemParams(kappa=1.0, gamma_perp=0.0, g_ens=1e200)
        with pytest.raises(DomainError, match=re.escape("g_ens=1e+200")):
            gaussian_pole(params, 1.0, -0.5)

    @pytest.mark.parametrize("kappa, gamma_perp, g_ens", [
        (8.0, 0.0, 2.0), (3.96, 0.0, 2.0), (2.0, 0.5, 3.0),
    ])
    def test_residual_is_the_pole_condition_at_the_root(
        self, kappa, gamma_perp, g_ens
    ):
        from scipy.special import wofz

        params = SystemParams(kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens)
        for seed in pole_seeds(params, SIGMA_UNIT).values():
            lam, residual = gaussian_pole(params, SIGMA_UNIT, seed)
            z = 1j * (lam + gamma_perp) / (math.sqrt(2.0) * SIGMA_UNIT)
            condition = lam + kappa - math.sqrt(math.pi / 2.0) * (
                g_ens**2 / SIGMA_UNIT
            ) * wofz(z)
            assert abs(residual) <= 1e-10 * kappa
            assert abs(residual - condition) <= 1e-12 * kappa
            # the very value the pole CSV printed when it evaluated F again
            assert residual == analytics._pole_function(
                lam, params, BroadeningSpec("gaussian", SIGMA_UNIT)
            )[0]


class TestThresholdRateApprox:
    def test_zero_at_threshold(self):
        assert threshold_rate_approx(4.0, 4.0, 1.0, 2.0) == 0.0

    def test_printed_formula_arithmetic(self):
        # kappa_c - kappa = 1, sigma = 2, g = 3, recomputed longhand
        denom = 1.0 + 9.0 / 4.0
        expected = 1.0 / denom + math.sqrt(math.pi / 8.0) * (9.0 / 8.0) / denom**3
        assert threshold_rate_approx(3.0, 4.0, 2.0, 3.0) == pytest.approx(
            expected, rel=1e-14
        )
        assert expected == pytest.approx(0.32822908918678106, rel=1e-12)


class TestWeakCouplingResponse:
    def test_initial_value_includes_feature_weight(self):
        params = SystemParams(kappa=80.0, gamma_perp=0.0, g_ens=2.0)
        value = weak_coupling_response(1.0, params, SIGMA_UNIT, 0.0)
        assert value == pytest.approx(1.0 + 4.0 / 6400.0, rel=1e-12)

    def test_log_decay_is_quadratic(self):
        # second difference of the log tail recovers -sigma^2
        params = SystemParams(kappa=80.0, gamma_perp=0.3, g_ens=2.0)
        sigma = SIGMA_UNIT
        h = 0.05
        t = np.array([2.0 - h, 2.0, 2.0 + h])
        tail = weak_coupling_response(1.0, params, sigma, t)
        curvature = np.diff(np.log(tail), 2)[0] / h**2
        assert curvature == pytest.approx(-(sigma**2), rel=1e-6)


class TestSteadyMoments:
    def test_matched_rates_example(self):
        # kappa = Gamma: the asymmetry factor vanishes
        ref = steady_state_moments_hom(1.0, 1.0, math.sqrt(0.5), 1e6)
        assert ref.var_X_c == pytest.approx(1.0, rel=1e-14)
        assert ref.var_P_c == pytest.approx(1.0, rel=1e-14)
        assert ref.var_S_x == pytest.approx(2e6, rel=1e-14)

    def test_general_example(self):
        kappa, Gamma, n = 3.0, 1.0, 1e6
        ref = steady_state_moments_hom(kappa, Gamma, math.sqrt(1.5), n)
        x = (kappa - Gamma) / (kappa + Gamma)
        assert ref.var_X_c == pytest.approx(0.5 * (1 - 0.5 * x) / 0.5, rel=1e-14)
        assert ref.var_S_x == pytest.approx(n * (1 + 0.5 * x) / 0.5, rel=1e-14)
        expected_cross = -math.sqrt(n / 2) * 2 * math.sqrt(1.5) / (4.0 * 0.5)
        assert ref.cov_Sx_Pc == pytest.approx(expected_cross, rel=1e-14)
        assert ref.cov_Sy_Xc == pytest.approx(expected_cross, rel=1e-14)

    def test_divergence_approaching_threshold(self):
        values = [
            steady_state_moments_hom(4.0, 1.0, math.sqrt(4.0 * c), 1e6).var_S_x
            for c in (0.9, 0.99, 0.999)
        ]
        assert values[0] < values[1] < values[2]

    def test_threshold_rejected(self):
        with pytest.raises(UnstableModelError):
            steady_state_moments_hom(4.0, 1.0, 2.0, 1e6)
        with pytest.raises(UnstableModelError):
            steady_state_moments_hom(4.0, 1.0, 3.0, 1e6)
