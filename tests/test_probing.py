"""Weak coherent probing: spectra, pC estimation, inversion drain."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincavity import (
    BroadeningFamily,
    BroadeningSpec,
    PreconditionError,
    ProbeConfig,
    SystemParams,
    UnstableModelError,
    build_drift_matrix,
    discretize,
    driven_field,
    estimate_pC,
    photon_budget,
    reflection_transmission,
    spectrum_scan,
    steady_state_covariance,
    sz_depletion_rate,
    sz_drain_from_covariance,
    sz_drain_subensemble_sum,
)

from conftest import integrate

LOR = BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.6)
HOM = BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.0)


class TestDrivenField:
    def test_bare_cavity(self):
        params = SystemParams(kappa=2.0, gamma_perp=0.5, g_ens=0.0)
        probe = ProbeConfig(beta0=1.0, delta_e=0.7, p=-1)
        value = driven_field(params, LOR, probe)
        expected = math.sqrt(2 * 1.0) / complex(2.0, -0.7)
        assert abs(value - expected) <= 1e-14

    def test_resonant_identity_all_families(self):
        # on resonance the response reduces to sqrt(2 kappa1) beta /
        # (kappa (1 - pC)) for every broadening family
        cases = [
            (HOM, SystemParams(kappa=2.0, gamma_perp=1.0, g_ens=1.0)),
            (LOR, SystemParams(kappa=2.0, gamma_perp=0.2, g_ens=1.0)),
            (
                BroadeningSpec(BroadeningFamily.GAUSSIAN, math.sqrt(math.pi / 2)),
                SystemParams(kappa=2.0, gamma_perp=0.0, g_ens=1.0),
            ),
        ]
        for spec, params in cases:
            if spec.family is BroadeningFamily.HOMOGENEOUS:
                Gamma = params.gamma_perp
            elif spec.family is BroadeningFamily.LORENTZIAN:
                Gamma = spec.width / 2 + params.gamma_perp
            else:
                Gamma = 1.0
            C = params.g_ens**2 / (params.kappa * Gamma)
            probe = ProbeConfig(beta0=1.0, delta_e=0.0, p=-1)
            value = driven_field(params, spec, probe)
            expected = math.sqrt(2 * params.kappa1) / (params.kappa * (1 + C))
            assert value.real == pytest.approx(expected, rel=1e-10)
            assert abs(value.imag) <= 1e-12 * abs(value.real)

    def test_matches_time_domain_steady_state(self):
        # independent oracle: integrate the driven equations of motion
        # on the same grid and read off the rotating-frame amplitude
        kappa, gamma_perp, g_ens, delta_e, p = 2.0, 0.5, 1.0, 1.0, -1
        beta = 0.7 + 0.2j
        params = SystemParams(kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens)
        grid = discretize(LOR, 41, g_ens, 1e6)
        model = build_drift_matrix(params, grid, p)
        drift = model.drift
        amp = math.sqrt(2 * params.kappa1) * math.sqrt(2)

        def rhs(t, y):
            out = drift @ y
            phase = beta * np.exp(-1j * delta_e * t)
            out[0] += amp * phase.real
            out[1] += amp * phase.imag
            return out

        t_end = 40.0
        ys, _ = integrate(
            rhs, np.zeros(model.dim), np.array([0.0, t_end]),
            rtol=1e-11, atol=1e-13,
        )
        a_ss = (ys[1, 0] + 1j * ys[1, 1]) / math.sqrt(2) * np.exp(
            1j * delta_e * t_end
        )
        discrete = np.sum(
            grid.couplings**2 * grid.spins
            / (gamma_perp + 1j * (grid.deltas - delta_e))
        )
        expected = math.sqrt(2 * params.kappa1) * beta / (
            kappa - 1j * delta_e - p * discrete
        )
        assert abs(a_ss - expected) <= 1e-8 * abs(expected)

        probe = ProbeConfig(beta0=beta, delta_e=delta_e, p=p)
        continuum = driven_field(params, LOR, probe)
        assert abs(a_ss - continuum) <= 1e-6 * abs(continuum)

    def test_detuned_cavity_rejected(self):
        params = SystemParams(kappa=2.0, gamma_perp=0.5, g_ens=1.0, delta_cs=0.3)
        with pytest.raises(PreconditionError):
            driven_field(params, LOR, ProbeConfig(beta0=1.0))

    def test_inverted_above_threshold_rejected(self):
        params = SystemParams(kappa=1.0, gamma_perp=0.2, g_ens=2.0)
        probe = ProbeConfig(beta0=1.0, delta_e=0.0, p=1)
        with pytest.raises(UnstableModelError):
            driven_field(params, LOR, probe)


class TestReflectionTransmission:
    def test_uncoupled_scatters_forward(self):
        params = SystemParams(kappa=4.0, gamma_perp=1.0, g_ens=0.0)
        r, t = reflection_transmission(params, HOM, ProbeConfig(beta0=1.0))
        assert t == 1.0
        assert r == 0.0

    def test_absorbing_ensemble_halves_transmission(self):
        # p = -1 at C = 1 with a symmetric cavity
        params = SystemParams(kappa=4.0, gamma_perp=1.0, g_ens=2.0)
        r, t = reflection_transmission(
            params, HOM, ProbeConfig(beta0=1.0, p=-1)
        )
        assert t == 0.5
        assert r == -0.5

    def test_inverted_ensemble_amplifies(self):
        # p = +1 at C = 0.2: transmission 1/(1 - 0.2) = 1.25
        params = SystemParams(kappa=5.0, gamma_perp=1.0, g_ens=1.0)
        r, t = reflection_transmission(
            params, HOM, ProbeConfig(beta0=1.0, p=1)
        )
        assert abs(t - 1.25) <= 1e-12
        assert abs(r - 0.25) <= 1e-12

    def test_zero_drive_rejected(self):
        params = SystemParams(kappa=2.0, gamma_perp=1.0, g_ens=1.0)
        with pytest.raises(PreconditionError):
            reflection_transmission(params, HOM, ProbeConfig(beta0=0.0))

    def test_passive_scan_conserves_flux(self):
        # p = -1 keeps |r|^2 + |t|^2 at or below unity; the deficit is
        # what the spins absorb
        params = SystemParams(kappa=2.0, gamma_perp=0.3, g_ens=1.0)
        table = spectrum_scan(params, LOR, -1, np.linspace(-8, 8, 81))
        total = table.abs_r2 + table.abs_t2
        assert np.max(total) <= 1.0 + 1e-9
        assert np.min(total) < 1.0 - 1e-3

    def test_gain_exceeds_unit_flux(self):
        params = SystemParams(kappa=2.0, gamma_perp=0.3, g_ens=1.0)
        table = spectrum_scan(params, LOR, 1, np.array([0.0]))
        assert table.abs_t2[0] > 1.0


class TestSpectrumScan:
    def test_detuning_symmetry(self):
        params = SystemParams(kappa=2.0, gamma_perp=0.3, g_ens=1.0)
        grid = np.linspace(-5.0, 5.0, 11)
        table = spectrum_scan(params, LOR, -1, grid)
        assert np.allclose(table.t, np.conj(table.t[::-1]), rtol=1e-12)
        assert np.allclose(table.r, np.conj(table.r[::-1]), rtol=1e-12)

    def test_normal_mode_splitting_at_strong_coupling(self):
        # C = 10 with kappa = 10 Gamma: two peaks near +-g_ens
        params = SystemParams(kappa=10.0, gamma_perp=0.0, g_ens=10.0)
        spec = BroadeningSpec(BroadeningFamily.LORENTZIAN, 2.0)
        grid = np.linspace(-30.0, 30.0, 1201)
        table = spectrum_scan(params, spec, -1, grid)
        mid = grid.size // 2
        left = grid[np.argmax(table.abs_t2[:mid])]
        right = grid[mid + np.argmax(table.abs_t2[mid:])]
        assert abs(left + 10.0) <= 1.0
        assert abs(right - 10.0) <= 1.0
        # the resonant dip sits between the peaks
        assert table.abs_t2[mid] < 0.25 * table.abs_t2.max()

    def test_singular_rows_flagged_not_fatal(self):
        # homogeneous gamma_perp = 0 has no linear response at zero
        # detuning; that row is flagged and the rest of the scan kept
        params = SystemParams(kappa=2.0, gamma_perp=0.0, g_ens=1.0)
        table = spectrum_scan(params, HOM, -1, np.array([-1.0, 0.0, 1.0]))
        assert table.valid.tolist() == [True, False, True]
        assert np.isnan(table.t[1])
        rows = list(table.rows())
        assert len(rows) == 3


class TestEstimatePC:
    @given(
        st.floats(0.05, 0.95),
        st.floats(-3.0, 0.95),
        st.floats(0.5, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_from_both_observables(self, split, pc, kappa):
        if abs(pc) < 1e-3 or abs(pc - 1.0) < 1e-3:
            return
        kappa1 = split * kappa
        kappa2 = kappa - kappa1
        t = 2 * math.sqrt(kappa1 * kappa2) / (kappa * (1 - pc))
        r = t * math.sqrt(kappa1 / kappa2) - 1.0
        assert estimate_pC(t, "transmission", kappa1, kappa2) == pytest.approx(
            pc, abs=1e-10
        )
        assert estimate_pC(r, "reflection", kappa1, kappa2) == pytest.approx(
            pc, abs=1e-10
        )

    def test_round_trip_through_full_model(self):
        params = SystemParams(
            kappa=3.0, gamma_perp=0.4, g_ens=1.0, kappa1=2.0, kappa2=1.0
        )
        r, t = reflection_transmission(params, LOR, ProbeConfig(beta0=1.0, p=-1))
        Gamma = LOR.width / 2 + 0.4
        expected = -params.g_ens**2 / (params.kappa * Gamma)
        assert estimate_pC(t, "transmission", 2.0, 1.0) == pytest.approx(
            expected, abs=1e-12
        )
        assert estimate_pC(r, "reflection", 2.0, 1.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_imaginary_residual_warns(self):
        with pytest.warns(UserWarning):
            estimate_pC(0.5 + 0.3j, "transmission", 1.0, 1.0)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_pC(0.0, "transmission", 1.0, 1.0)
        with pytest.raises(PreconditionError):
            estimate_pC(-1.0, "reflection", 1.0, 1.0)
        with pytest.raises(PreconditionError):
            estimate_pC(0.5, "absorption", 1.0, 1.0)


class TestInversionDrain:
    def test_depletion_rate_arithmetic(self):
        assert sz_depletion_rate(-1, 2.0, 1.0, 1.0) == 16.0
        assert sz_depletion_rate(1, 2.0, 1.0, 1.0) == -16.0
        assert sz_depletion_rate(1, 2.0, 4.0, 0.0) == 0.0

    def test_subensemble_sum_converges_to_continuum(self):
        gamma_perp, g_ens, n_photon = 0.2, 2.0, 0.35
        grid = discretize(LOR, 401, g_ens, 1e6)
        Gamma = LOR.width / 2 + gamma_perp
        summed = sz_drain_subensemble_sum(grid, gamma_perp, -1, n_photon)
        continuum = sz_depletion_rate(-1, g_ens, Gamma, n_photon)
        assert summed == pytest.approx(continuum, rel=0.01)

    def test_subensemble_sum_needs_dephasing(self):
        grid = discretize(LOR, 41, 2.0, 1e6)
        with pytest.raises(PreconditionError):
            sz_drain_subensemble_sum(grid, 0.0, -1, 1.0)

    def test_steady_state_drain_inverted_vs_ground(self):
        # inverted: the quantum steady state loses inversion at
        # -4 g^2 / ((kappa + Gamma)(1 - C)); ground state: no drain
        kappa, gamma_perp, g_ens = 8.0, 1.0, 2.0
        C = g_ens**2 / (kappa * gamma_perp)
        grid = discretize(HOM, 1, g_ens, 1e6)
        params = SystemParams(kappa=kappa, gamma_perp=gamma_perp, g_ens=g_ens)

        inverted = build_drift_matrix(params, grid, 1)
        drain_up = sz_drain_from_covariance(
            inverted, steady_state_covariance(inverted)
        )
        expected = -4 * g_ens**2 / ((kappa + gamma_perp) * (1 - C))
        assert drain_up == pytest.approx(expected, rel=1e-6)

        ground = build_drift_matrix(params, grid, -1)
        drain_down = sz_drain_from_covariance(
            ground, steady_state_covariance(ground)
        )
        assert abs(drain_down) <= 1e-6 * abs(drain_up)


class TestPhotonBudget:
    def test_reference_points(self):
        assert photon_budget(10.0, 5.0, -1.0, 1e6) == pytest.approx(1e6, rel=1e-14)
        assert photon_budget(10.0, 5.0, 0.5, 1e6) == pytest.approx(1.25e5, rel=1e-14)
        assert photon_budget(10.0, 5.0, 1.0, 1e6) == 0.0
        assert photon_budget(10.0, 5.0, 0.0, 1e6) == math.inf

    def test_asymmetric_cavity_scales_inversely_with_input_rate(self):
        symmetric = photon_budget(10.0, 5.0, -0.5, 1e6)
        weak_input = photon_budget(10.0, 1.0, -0.5, 1e6)
        assert weak_input == pytest.approx(5 * symmetric, rel=1e-14)
