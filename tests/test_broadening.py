"""Faddeeva evaluation, characteristic widths, and sub-ensemble grids."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import wofz

import spincavity.broadening as broadening
from spincavity import (
    BroadeningFamily,
    BroadeningSpec,
    ConvergenceError,
    DomainError,
    PreconditionError,
    characteristic_width,
    density,
    discretize,
    faddeeva,
    line_resolvent,
    solve_width_for_gamma,
)

from conftest import simpson_faddeeva


class TestFaddeeva:
    def test_matches_quadrature_oracle_upper_half(self):
        for z in (1 + 1j, 2.5 + 0.3j, 0.1 + 5j, -3 + 2j, 0.5j):
            reference = simpson_faddeeva(complex(z))
            assert abs(faddeeva(z) - reference) <= 1e-10 * abs(reference)

    def test_matches_wofz_on_contract_strip(self):
        re = np.linspace(-30.0, 30.0, 121)
        im = np.linspace(-10.0, 10.0, 81)
        z = re[:, None] + 1j * im[None, :]
        ours = faddeeva(z)
        reference = wofz(z)
        rel = np.abs(ours - reference) / np.abs(reference)
        assert rel.max() <= 1e-10

    def test_unit_value_at_origin(self):
        assert abs(faddeeva(0.0) - 1.0) <= 1e-14

    def test_large_imaginary_asymptote(self):
        # w(iy) ~ 1/(sqrt(pi) y) for large y
        value = faddeeva(50j)
        assert abs(value.imag) <= 1e-15
        assert abs(value.real - 0.011281536265297477) <= 1e-12

    def test_scalar_input_returns_python_complex(self):
        assert isinstance(faddeeva(1 + 1j), complex)
        assert isinstance(faddeeva(np.array(1 + 1j)), complex)

    def test_scalar_path_agrees_with_the_array_path(self):
        # a Python number is evaluated in complex arithmetic with no
        # array; both half planes of the contract strip, the axis included
        re = np.linspace(-30.0, 30.0, 61)
        im = np.linspace(-10.0, 10.0, 41)
        z = (re[:, None] + 1j * im[None, :]).ravel()
        scalar = np.array([faddeeva(complex(value)) for value in z])
        assert_allclose(scalar, faddeeva(z), rtol=1e-14, atol=0.0)

    def test_scalar_path_past_the_square_range(self):
        # past |z| ~ 1e154 the square (L - iz)^2 leaves the float range,
        # where a complex power of a Python number raises; both paths
        # take the limit w(z) = i / (sqrt(pi) z) there, finite everywhere
        parts = [1e154, 1e155, 1e200, 1e300, 1.7e308]
        z = np.array([complex(s * x, y) for s in (1.0, -1.0) for x in [0.0, 1.0, *parts]
                      for y in [0.0, 1.0, -5.0, -10.0, *parts] if max(x, y) >= 1e154])
        scalar = np.array([faddeeva(complex(value)) for value in z])
        array = faddeeva(z)
        assert np.isfinite(scalar).all() and np.isfinite(array).all()
        limit = 1j / np.sqrt(np.pi) / z.astype(np.clongdouble)  # no overflow
        assert_allclose(scalar, limit, rtol=1e-14, atol=0.0)
        assert_allclose(array, limit, rtol=1e-14, atol=0.0)

    def test_array_shape_preserved(self):
        z = np.array([[0j, 1j], [1 + 1j, 2 - 3j]])
        out = faddeeva(z)
        assert out.shape == z.shape

    @given(
        st.floats(-30.0, 30.0),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_reflection_symmetry(self, x, y):
        # w(-conj(z)) == conj(w(z)) holds on the whole domain
        z = complex(x, y)
        left = faddeeva(-z.conjugate())
        right = faddeeva(z).conjugate()
        assert abs(left - right) <= 1e-12 * max(1.0, abs(right))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            faddeeva(complex(np.nan, 1.0))
        with pytest.raises(DomainError):
            faddeeva(0.0 - 11j)
        with pytest.raises(DomainError):
            faddeeva(np.array([0j, -12j]))
        with pytest.raises(DomainError, match="^faddeeva requires finite arguments$"):
            faddeeva(np.array([0.0, np.inf]))

    @pytest.mark.parametrize("z", [-11j, np.array([-11j])], ids=["scalar", "array"])
    def test_both_paths_refuse_the_lower_half_plane_alike(self, z):
        # below Im z = -10 the reflection formula overflows: the scalar
        # path refuses the argument with the array path's message
        with pytest.raises(DomainError, match=r"^faddeeva arguments must satisfy "
                                              r"Im\(z\) >= -10$"):
            faddeeva(z)


class TestCharacteristicWidth:
    @pytest.mark.parametrize("family", list(BroadeningFamily))
    @pytest.mark.parametrize("gamma_perp", [-0.1, math.nan, math.inf])
    def test_rejected_rates(self, family, gamma_perp):
        spec = BroadeningSpec(family, 0.0 if family is BroadeningFamily.HOMOGENEOUS
                              else 1.0)
        with pytest.raises(PreconditionError,
                           match="^gamma_perp must be finite and >= 0$"):
            characteristic_width(spec, gamma_perp)

    def test_homogeneous_equals_transverse_rate(self):
        spec = BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.0)
        assert characteristic_width(spec, 0.5) == 0.5
        with pytest.raises(PreconditionError):
            characteristic_width(spec, 0.0)

    def test_lorentzian_half_width_plus_rate(self):
        spec = BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.6)
        assert characteristic_width(spec, 0.0) == pytest.approx(0.8, rel=1e-15)
        assert characteristic_width(spec, 0.2) == pytest.approx(1.0, rel=1e-15)

    def test_gaussian_zero_rate_closed_form(self):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0)
        assert characteristic_width(spec, 0.0) == pytest.approx(
            np.sqrt(2.0 / np.pi), rel=1e-14
        )

    def test_normalized_undephased_gaussian_is_exactly_one(self):
        # w(0) = 1 in the width and in its inversion, so --normalize-gamma
        # at gamma_perp = 0 gives Gamma = 1 to the bit
        sigma = solve_width_for_gamma(BroadeningFamily.GAUSSIAN, 1.0, 0.0)
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, sigma)
        assert characteristic_width(spec, 0.0) == 1.0

    def test_gaussian_matches_defining_integral(self):
        # 1/Gamma = int f(Delta) / (gamma_perp + i Delta) dDelta; the
        # imaginary part cancels by symmetry
        sigma, gamma_perp = 1.0, 0.5
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, sigma)

        def integrand(delta):
            f = np.exp(-(delta**2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
            return (f / complex(gamma_perp, delta)).real

        inverse, err = quad(
            integrand, -40 * sigma, 40 * sigma, limit=800,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-9
        assert characteristic_width(spec, gamma_perp) == pytest.approx(
            1.0 / inverse, rel=1e-9
        )

    def test_lorentzian_matches_defining_integral(self):
        w, gamma_perp = 1.6, 0.3
        spec = BroadeningSpec(BroadeningFamily.LORENTZIAN, w)

        def integrand(delta):
            f = (w / (2 * np.pi)) / (delta**2 + (w / 2) ** 2)
            return (f / complex(gamma_perp, delta)).real

        inverse, err = quad(integrand, -np.inf, np.inf, limit=400)
        assert err < 1e-10
        assert characteristic_width(spec, gamma_perp) == pytest.approx(
            1.0 / inverse, rel=1e-9
        )


class TestLineResolvent:
    @pytest.mark.parametrize("family, width", [("lorentzian", 1.6), ("gaussian", 1.0)])
    def test_matches_defining_integral_off_the_axis(self, family, width):
        # G(z) = int f(Delta) dDelta / (z + gamma_perp + i Delta) at a rate
        # with both parts nonzero
        spec = BroadeningSpec(family, width)
        gamma_perp, z = 0.3, 0.4 - 0.7j

        def part(take):
            def integrand(delta):
                return take(density(spec, delta) / (z + gamma_perp + 1j * delta))

            return quad(integrand, -np.inf, np.inf, limit=400, epsabs=1e-13)[0]

        exact = part(np.real) + 1j * part(np.imag)
        assert abs(line_resolvent(spec, gamma_perp, z) - exact) <= 1e-9 * abs(exact)

    @pytest.mark.parametrize("family, width", [
        ("homogeneous", 0.0), ("lorentzian", 1.6), ("gaussian", 1.3),
    ])
    def test_origin_is_the_inverse_width(self, family, width):
        spec = BroadeningSpec(family, width)
        Gamma = characteristic_width(spec, 0.4)
        assert abs(line_resolvent(spec, 0.4, 0.0) * Gamma - 1.0) <= 1e-14

    def test_gaussian_derivative(self):
        # dG/dz = ((z + gamma_perp) G - 1) / sigma^2, which the pole search
        # takes for its F'
        spec, gamma_perp, z, h = BroadeningSpec("gaussian", 1.3), 0.4, 0.2 + 0.9j, 1e-5
        G = line_resolvent(spec, gamma_perp, z)
        slope = ((z + gamma_perp) * G - 1.0) / 1.3**2
        central = (line_resolvent(spec, gamma_perp, z + h)
                   - line_resolvent(spec, gamma_perp, z - h)) / (2.0 * h)
        assert abs(central - slope) <= 1e-8 * abs(slope)


class TestSolveWidth:
    def test_round_trips_all_families(self):
        for family, gamma_perp in (
            (BroadeningFamily.GAUSSIAN, 0.0),
            (BroadeningFamily.GAUSSIAN, 0.02),
            (BroadeningFamily.GAUSSIAN, 0.4),
            (BroadeningFamily.LORENTZIAN, 0.0),
            (BroadeningFamily.LORENTZIAN, 0.25),
        ):
            width = solve_width_for_gamma(family, 1.0, gamma_perp)
            spec = BroadeningSpec(family, width)
            assert characteristic_width(spec, gamma_perp) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_homogeneous_requires_matching_rate(self):
        assert (
            solve_width_for_gamma(BroadeningFamily.HOMOGENEOUS, 0.7, 0.7) == 0.0
        )
        with pytest.raises(PreconditionError):
            solve_width_for_gamma(BroadeningFamily.HOMOGENEOUS, 1.0, 0.5)

    def test_unreachable_targets_rejected(self):
        # a Lorentzian cannot be narrower than its homogeneous floor
        with pytest.raises(PreconditionError, match="gamma > gamma_perp"):
            solve_width_for_gamma(BroadeningFamily.LORENTZIAN, 0.5, 0.6)
        # non-finite or negative rates are refused before any family branch
        for family, gamma, gamma_perp, name in (
            (BroadeningFamily.LORENTZIAN, math.nan, 0.0, "gamma"),
            (BroadeningFamily.LORENTZIAN, math.inf, 0.0, "gamma"),
            (BroadeningFamily.GAUSSIAN, math.nan, 0.0, "gamma"),
            (BroadeningFamily.LORENTZIAN, 1.0, math.nan, "gamma_perp"),
            (BroadeningFamily.GAUSSIAN, 1.0, math.inf, "gamma_perp"),
            (BroadeningFamily.GAUSSIAN, 1.0, -0.1, "gamma_perp"),
            (BroadeningFamily.HOMOGENEOUS, 1.0, -1.0, "gamma_perp"),
        ):
            with pytest.raises(PreconditionError, match=f"^{name} must be finite"):
                solve_width_for_gamma(family, gamma, gamma_perp)

    @given(
        log10_gamma=st.floats(-3.0, 3.0),
        ratio=st.one_of(
            st.just(0.0),
            st.floats(1e-12, 1.0 - 1e-15),
            st.floats(-12.0, np.log10(1.0 - 1e-15)).map(lambda e: 10.0**e),
            st.floats(-15.0, -4.0).map(lambda e: 1.0 - 10.0**e),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_gaussian_width_inside_the_erfcx_bracket(self, log10_gamma, ratio):
        gamma = 10.0**log10_gamma
        gamma_perp = ratio * gamma

        def width(sigma):
            spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, sigma)
            return characteristic_width(spec, gamma_perp)

        sigma = solve_width_for_gamma(BroadeningFamily.GAUSSIAN, gamma, gamma_perp)
        assert type(sigma) is float
        assert abs(width(sigma) - gamma) <= 1e-15 * gamma
        # Abramowitz & Stegun 7.1.13 put the root in [s, sqrt(pi/2) s];
        # rounding moves either end's Gamma by up to a few ulps of gamma
        s = math.sqrt(gamma * (gamma - gamma_perp))
        assert width(s) - gamma <= 1e-15 * gamma
        assert gamma - width(math.sqrt(math.pi / 2.0) * s) <= 1e-15 * gamma

    def test_gaussian_width_at_extreme_rates(self):
        for gamma in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            # w(0) = 1 makes the undephased width a closed form
            sigma = solve_width_for_gamma(BroadeningFamily.GAUSSIAN, gamma, 0.0)
            assert sigma == gamma * math.sqrt(math.pi / 2.0)
            spec = BroadeningSpec(
                BroadeningFamily.GAUSSIAN,
                solve_width_for_gamma(BroadeningFamily.GAUSSIAN, gamma, gamma / 2),
            )
            assert characteristic_width(spec, gamma / 2) == pytest.approx(
                gamma, rel=1e-15
            )

    def test_illinois_returns_an_end_past_the_root_and_caps_iterations(self):
        def f(x):
            return x - 0.3

        assert broadening._illinois(f, 0.5, 1.0, 1e-12, 8.9e-16) == 0.5
        assert broadening._illinois(f, 0.0, 0.2, 1e-12, 8.9e-16) == 0.2
        assert broadening._illinois(f, 0.0, 1.0, 1e-12, 8.9e-16) == pytest.approx(0.3)
        with pytest.raises(ConvergenceError):
            broadening._illinois(f, 0.0, 1.0, 1e-12, 8.9e-16, maxiter=0)


class TestDensity:
    def test_even_and_normalized(self):
        for spec in (
            BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.3),
            BroadeningSpec(BroadeningFamily.LORENTZIAN, 0.9),
        ):
            x = np.linspace(0.1, 5.0, 7)
            assert_allclose(density(spec, x), density(spec, -x), rtol=1e-14)
            mass, _ = quad(lambda d: density(spec, d), -np.inf, np.inf, limit=400)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_peak_at_center(self):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 2.0)
        assert density(spec, 0.0) > density(spec, 0.5)
        assert density(spec, 0.0) == pytest.approx(
            1.0 / (2.0 * np.sqrt(2.0 * np.pi)), rel=1e-14
        )

    @pytest.mark.parametrize("width", [1e-300, 1e-170, 1e170, 1e300])
    def test_gaussian_at_widths_whose_variance_leaves_the_float_range(
        self, width
    ):
        # 2 sigma^2 underflows or overflows: sigma f(sigma x) is still the
        # unit normal density, with no warning
        x = np.array([-3.0, -1.0, 0.0, 0.5, 2.0, 40.0])
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, width)
        values = density(spec, width * x)
        assert np.all(np.isfinite(values))
        unit = density(BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0), x)
        assert_allclose(width * values, unit, rtol=1e-14)
        assert density(spec, 0.0) * width == pytest.approx(unit[2], rel=1e-15)

    def test_homogeneous_has_no_density(self):
        spec = BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.0)
        with pytest.raises(PreconditionError):
            density(spec, 0.0)


class TestDiscretize:
    def test_mass_and_coupling_sums(self):
        for spec, m in (
            (BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0), 201),
            (BroadeningSpec(BroadeningFamily.LORENTZIAN, 1.6), 401),
            (BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.0), 1),
        ):
            grid = discretize(spec, m, 2.0, 1e6)
            assert grid.spins.sum() == pytest.approx(1e6, rel=1e-12)
            coupling_sum = float((grid.couplings**2 * grid.spins).sum())
            assert coupling_sum == pytest.approx(4.0, rel=1e-12)

    def test_gaussian_mirror_is_bit_exact(self):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.7)
        grid = discretize(spec, 301, 2.0, 1e6)
        assert np.all(grid.deltas == -grid.deltas[::-1])
        assert np.all(grid.spins == grid.spins[::-1])

    def test_lorentzian_grid_antisymmetric(self):
        spec = BroadeningSpec(BroadeningFamily.LORENTZIAN, 2.0)
        grid = discretize(spec, 401, 2.0, 1e6)
        assert np.all(grid.deltas == -grid.deltas[::-1])
        # equal probability mass per node
        assert np.all(grid.spins == grid.spins[0])

    def test_lorentzian_median_matches_half_width(self):
        w = 1.6
        spec = BroadeningSpec(BroadeningFamily.LORENTZIAN, w)
        grid = discretize(spec, 401, 2.0, 1e6)
        median = np.median(np.abs(grid.deltas))
        assert median == pytest.approx(w / 2.0, rel=0.02)

    def test_discrete_width_converges_to_continuum(self):
        sigma, gamma_perp = 1.0, 0.1
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, sigma)
        grid = discretize(spec, 601, 2.0, 1e6)
        weights = grid.spins / grid.total_spins
        inverse = np.sum(weights / (gamma_perp + 1j * grid.deltas))
        discrete = 1.0 / inverse.real
        continuum = characteristic_width(spec, gamma_perp)
        assert discrete == pytest.approx(continuum, rel=5e-3)

    def test_homogeneous_always_single_entry(self):
        spec = BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.0)
        grid = discretize(spec, 97, 2e-3, 1e6)
        assert grid.size == 1
        assert grid.deltas[0] == 0.0
        assert grid.couplings[0] == pytest.approx(2e-3 / 1e3, rel=1e-14)

    def test_rejects_bad_grid_sizes(self):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0)
        for m in (0, 1, 2, 4, 100):
            with pytest.raises(PreconditionError):
                discretize(spec, m, 2.0, 1e6)
        for g_ens in (-1.0, math.inf, math.nan):
            with pytest.raises(PreconditionError, match="g_ens"):
                discretize(spec, 101, g_ens, 1e6)
        for n in (0.0, math.inf, math.nan):
            with pytest.raises(PreconditionError, match="spin count"):
                discretize(spec, 101, 2.0, n)

    def test_arrays_are_read_only(self):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, 1.0)
        grid = discretize(spec, 11, 2.0, 1e6)
        with pytest.raises(ValueError):
            grid.deltas[0] = 1.0


class TestBroadeningSpec:
    def test_width_validation(self):
        with pytest.raises(PreconditionError):
            BroadeningSpec(BroadeningFamily.GAUSSIAN, 0.0)
        with pytest.raises(PreconditionError):
            BroadeningSpec(BroadeningFamily.LORENTZIAN, -1.0)
        with pytest.raises(PreconditionError):
            BroadeningSpec(BroadeningFamily.HOMOGENEOUS, 0.3)
        with pytest.raises(PreconditionError):
            BroadeningSpec(BroadeningFamily.GAUSSIAN, np.inf)

    def test_family_from_string(self):
        spec = BroadeningSpec(BroadeningFamily("gaussian"), 1.0)
        assert spec.family is BroadeningFamily.GAUSSIAN
