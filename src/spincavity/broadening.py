"""Spin-frequency distributions and their discretization.

Three distribution families are supported for the detunings of the
spins relative to the cavity: a homogeneous ensemble (all spins on
resonance, a point mass at zero), a Lorentzian profile parametrized by
its FWHM ``w``, and a Gaussian profile parametrized by its standard
deviation ``sigma``.

The module provides

* :func:`faddeeva`, the scaled complex error function
  ``w(z) = exp(-z^2) erfc(-iz)`` that evaluates all Gaussian overlap
  integrals,
* :func:`characteristic_width`, the effective linewidth ``Gamma``
  defined by ``1/Gamma = integral f(Delta) dDelta / (gamma_perp + i Delta)``,
* :func:`density`, the distribution density ``f(Delta)``,
* :func:`discretize`, which splits the continuous distribution into
  ``M`` sub-ensembles carrying ``(Delta_m, g_m, N_m)``.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PreconditionError

__all__ = [
    "BroadeningFamily",
    "BroadeningSpec",
    "SubEnsembleGrid",
    "faddeeva",
    "characteristic_width",
    "density",
    "discretize",
    "solve_width_for_gamma",
]


class BroadeningFamily(str, enum.Enum):
    HOMOGENEOUS = "homogeneous"
    LORENTZIAN = "lorentzian"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class BroadeningSpec:
    """Distribution family plus its width parameter.

    ``width`` is the FWHM for Lorentzian, the standard deviation for
    Gaussian, and must be zero for the homogeneous point mass.  All
    widths share the angular-frequency unit of the system rates.
    """

    family: BroadeningFamily
    width: float = 0.0

    def __post_init__(self):
        family = BroadeningFamily(self.family)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "width", float(self.width))
        if not math.isfinite(self.width):
            raise PreconditionError("width must be finite")
        if family is BroadeningFamily.HOMOGENEOUS:
            if self.width != 0.0:
                raise PreconditionError(
                    "homogeneous broadening has no width parameter; pass 0"
                )
        elif self.width <= 0.0:
            raise PreconditionError(
                f"{family.value} broadening requires width > 0, got {self.width}"
            )


@dataclass(frozen=True)
class SubEnsembleGrid:
    """Discretized distribution: M sub-ensembles of identical spins.

    Arrays are index-aligned: sub-ensemble ``m`` has detuning
    ``deltas[m]``, per-spin coupling ``couplings[m]`` and spin count
    ``spins[m]``.  ``spacing`` is the uniform node distance for grids
    that have one (Gaussian), else ``None``.  Construction guarantees
    ``sum(spins) == total_spins``, ``sum(couplings^2 * spins) == g_ens^2``
    and detunings symmetric about zero.
    """

    family: BroadeningFamily
    deltas: np.ndarray
    couplings: np.ndarray
    spins: np.ndarray
    total_spins: float
    g_ens: float
    spacing: float | None = None

    def __post_init__(self):
        for name in ("deltas", "couplings", "spins"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.deltas.size


# Rational approximation of the Faddeeva function on the closed upper
# half plane (Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)).  The
# coefficients depend only on the expansion order; 48 terms give
# ~1e-14 relative accuracy on the strip used by this package, checked
# in the test suite against a quadrature oracle.
_WEIDEMAN_N = 48


def _weideman_coefficients(n: int):
    m2 = 2 * n
    k = np.arange(-m2 + 1, m2)
    big_l = math.sqrt(n / math.sqrt(2.0))
    theta = k * np.pi / m2
    t = big_l * np.tan(theta / 2.0)
    f = np.exp(-t * t) * (big_l * big_l + t * t)
    f = np.concatenate(([0.0], f))
    coeff = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m2)
    # polynomial coefficients as floats, highest order first, for Horner
    return big_l, coeff[n:0:-1].tolist()


_WEIDEMAN_L, _WEIDEMAN_A = _weideman_coefficients(_WEIDEMAN_N)


def _faddeeva_upper(z):
    # valid for Im(z) >= 0 only; z one complex number or an array
    big_l = _WEIDEMAN_L
    iz = 1j * z
    ratio = (big_l + iz) / (big_l - iz)
    poly = _WEIDEMAN_A[0]
    for coeff in _WEIDEMAN_A[1:]:
        poly = coeff + poly * ratio
    # a product, not a power: past |z| ~ 1e154 the square is not finite,
    # the first term 0, and a complex power of a number would raise
    edge = big_l - iz
    return 2.0 * poly / (edge * edge) + (1.0 / math.sqrt(math.pi)) / edge


def faddeeva(z):
    """Faddeeva function ``w(z) = exp(-z^2) erfc(-iz)``.

    Accepts a complex scalar or array with ``Im(z) >= -10`` (further
    below the real axis the reflection formula overflows and no
    physical quantity in this package needs it).  Relative accuracy is
    better than 1e-10 on the strip ``|Im z| <= 10``, ``|Re z| <= 30``.
    A Python number is evaluated in complex arithmetic with no array,
    and agrees with the array path to rounding.
    """
    if isinstance(z, (int, float, complex)):
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError("faddeeva requires finite arguments")
        if z.imag < -10.0:
            raise DomainError("faddeeva arguments must satisfy Im(z) >= -10")
        if z.imag >= 0.0:
            return _faddeeva_upper(z)
        return 2.0 * cmath.exp(-z * z) - _faddeeva_upper(-z)
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("faddeeva requires finite arguments")
    if np.any(arr.imag < -10.0):
        raise DomainError("faddeeva arguments must satisfy Im(z) >= -10")
    upper = arr.imag >= 0.0
    out = np.empty_like(arr)
    with np.errstate(over="ignore"):  # squares past |z| ~ 1e154
        if np.any(upper):
            out[upper] = _faddeeva_upper(arr[upper])
        if not np.all(upper):
            zl = arr[~upper]
            # reflection through the real axis keeps the entire function
            out[~upper] = 2.0 * np.exp(-zl * zl) - _faddeeva_upper(-zl)
    return complex(out) if out.ndim == 0 else out


def density(spec: BroadeningSpec, delta) -> float | np.ndarray:
    """Distribution density ``f(Delta)``; undefined for the point mass."""
    family = spec.family
    if family is BroadeningFamily.HOMOGENEOUS:
        raise PreconditionError("a homogeneous point mass has no density")
    delta = np.asarray(delta, dtype=float)
    if family is BroadeningFamily.LORENTZIAN:
        w = spec.width
        out = (w / (2.0 * math.pi)) / (delta * delta + w * w / 4.0)
    else:
        sigma = spec.width
        twice_variance = 2.0 * sigma * sigma
        if np.finfo(float).tiny <= twice_variance < math.inf:
            exponent = -delta * delta / twice_variance
        else:
            # 2 sigma^2 is not a normal float: scale by sigma first; a
            # square past the float range is an exponent of -inf
            with np.errstate(over="ignore"):
                exponent = -0.5 * (delta / sigma) ** 2
        out = np.exp(exponent) / (sigma * math.sqrt(2.0 * math.pi))
    return float(out) if out.ndim == 0 else out


def characteristic_width(spec: BroadeningSpec, gamma_perp: float) -> float:
    """Effective linewidth ``Gamma`` of the broadened transition.

    Defined through ``1/Gamma = integral f(Delta) dDelta /
    (gamma_perp + i Delta)``; for a symmetric distribution the result
    is real.  Closed forms: homogeneous ``gamma_perp``; Lorentzian
    ``width/2 + gamma_perp``; Gaussian
    ``sqrt(2/pi) * sigma / w(i gamma_perp / (sqrt(2) sigma))``, which is
    ``sqrt(2/pi) * sigma`` at ``gamma_perp = 0`` (``w(0) = 1``).
    """
    gamma_perp = float(gamma_perp)
    if gamma_perp < 0.0 or not math.isfinite(gamma_perp):
        raise PreconditionError("gamma_perp must be finite and >= 0")
    family = spec.family
    if family is BroadeningFamily.HOMOGENEOUS:
        if gamma_perp == 0.0:
            raise PreconditionError(
                "homogeneous ensemble with gamma_perp = 0 has no linewidth"
            )
        return gamma_perp
    if family is BroadeningFamily.LORENTZIAN:
        return spec.width / 2.0 + gamma_perp
    sigma = spec.width
    if gamma_perp == 0.0:
        return math.sqrt(2.0 / math.pi) * sigma  # w(0) = 1
    value = math.sqrt(2.0 / math.pi) * sigma / faddeeva(
        1j * gamma_perp / (math.sqrt(2.0) * sigma)
    )
    gamma = value.real
    if abs(value.imag) > 1e-12 * gamma:
        raise PreconditionError(
            "characteristic width came out non-real; distribution not symmetric?"
        )
    return gamma


def solve_width_for_gamma(
    family: BroadeningFamily, gamma: float, gamma_perp: float
) -> float:
    """Width parameter that realizes characteristic width ``gamma``.

    Inverse of :func:`characteristic_width` at fixed ``gamma_perp``.
    Returns the FWHM (Lorentzian), the standard deviation (Gaussian),
    or 0.0 (homogeneous, only consistent when gamma == gamma_perp).
    """
    family = BroadeningFamily(family)
    gamma = float(gamma)
    gamma_perp = float(gamma_perp)
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise PreconditionError(f"gamma must be finite and > 0, got {gamma}")
    if not (math.isfinite(gamma_perp) and gamma_perp >= 0.0):
        raise PreconditionError(f"gamma_perp must be finite and >= 0, got {gamma_perp}")
    if family is BroadeningFamily.HOMOGENEOUS:
        if not math.isclose(gamma, gamma_perp, rel_tol=1e-12):
            raise PreconditionError(
                "homogeneous width is gamma_perp itself; cannot retarget"
            )
        return 0.0
    if gamma <= gamma_perp:
        raise PreconditionError(
            "broadened families require gamma > gamma_perp "
            f"(got gamma={gamma}, gamma_perp={gamma_perp})"
        )
    if family is BroadeningFamily.LORENTZIAN:
        return 2.0 * (gamma - gamma_perp)
    if gamma_perp == 0.0:
        return gamma * math.sqrt(math.pi / 2.0)  # w(0) = 1

    def mismatch(sigma):
        spec = BroadeningSpec(BroadeningFamily.GAUSSIAN, sigma)
        return characteristic_width(spec, gamma_perp) - gamma

    # Gamma(sigma) = sqrt(2/pi) sigma / erfcx(u), u = gamma_perp / (sqrt(2)
    # sigma), and the erfcx bounds of Abramowitz & Stegun 7.1.13 give
    # Gamma(s) < gamma <= Gamma(sqrt(pi/2) s) at s^2 = gamma (gamma -
    # gamma_perp); s is formed from two roots so that it cannot overflow
    s = math.sqrt(gamma) * math.sqrt(gamma - gamma_perp)
    return _illinois(mismatch, s, math.sqrt(math.pi / 2.0) * s,
                     xtol=1e-15 * gamma, rtol=8.9e-16)


def _illinois(f, lo, hi, xtol, rtol, maxiter=100):
    """Root of the increasing ``f`` in ``[lo, hi]``.

    The Illinois method (Dowell & Jarratt, BIT 11, 168 (1971)): false
    position that halves the value kept at an end which has not moved
    for two steps.  Once the bracket is narrower than ``(xtol + rtol x)
    / 2`` it returns the point of smallest ``|f|`` seen, which at the
    rounding level of ``f`` need not be the last.  An end whose value
    already has the root's sign, where rounding can put it, is returned
    at once.  Raises
    :class:`ConvergenceError` after ``maxiter`` iterations.
    """
    flo, fhi = f(lo), f(hi)
    if flo >= 0.0 or fhi <= 0.0:
        return lo if flo >= 0.0 else hi
    best, side = min((-flo, lo), (fhi, hi)), 0
    for _ in range(maxiter):
        x = lo + (hi - lo) * (flo / (flo - fhi))  # no product of two widths
        fx = f(x)
        best = min(best, (abs(fx), x))
        if fx < 0.0:
            if side < 0:
                fhi /= 2.0
            lo, flo, side = x, fx, -1
        else:
            if side > 0:
                flo /= 2.0
            hi, fhi, side = x, fx, 1
        if fx == 0.0 or hi - lo <= (xtol + rtol * x) / 2.0:
            return best[1]
    raise ConvergenceError(f"Illinois iteration unconverged after {maxiter} steps")


def discretize(
    spec: BroadeningSpec, M: int, g_ens: float, N: float
) -> SubEnsembleGrid:
    """Split the distribution into ``M`` sub-ensembles.

    Node placement follows the family: the Gaussian uses a uniform grid
    over ``[-6 sigma, +6 sigma]`` with trapezoidal weights renormalized
    to unit mass (tail mass below 2e-9 is folded in by the
    renormalization); the Lorentzian uses equal-probability-mass
    quantile nodes ``Delta_m = (w/2) tan(pi (u_m - 1/2))`` with
    ``u_m = (m - 1/2)/M``, each of weight ``1/M``, which keeps the
    heavy tails exactly representable in measure.  Sub-ensemble ``m``
    carries ``N_m = N * weight_m`` spins of coupling
    ``g_m = g_ens * sqrt(weight_m / N_m)``.

    ``M`` must be odd and >= 3 for the broadened families so that the
    grid contains the symmetry point ``Delta = 0``; the homogeneous
    family always produces a single sub-ensemble.
    """
    g_ens = float(g_ens)
    N = float(N)
    if not (math.isfinite(g_ens) and g_ens >= 0.0):
        raise PreconditionError(f"g_ens must be finite and >= 0, got {g_ens!r}")
    if not (math.isfinite(N) and N > 0.0):
        raise PreconditionError(f"total spin count must be finite and > 0, got {N!r}")
    family = spec.family

    if family is BroadeningFamily.HOMOGENEOUS:
        weights = np.array([1.0])
        deltas = np.array([0.0])
        spacing = None
    else:
        M = int(M)
        if M < 3 or M % 2 == 0:
            raise PreconditionError(
                f"broadened families need odd M >= 3, got {M}"
            )
        if family is BroadeningFamily.GAUSSIAN:
            sigma = spec.width
            half = (M - 1) // 2
            spacing = 6.0 * sigma / half
            # integer mirror construction keeps Delta_m == -Delta_{M-1-m}
            # exact to the bit
            pos = spacing * np.arange(1, half + 1)
            deltas = np.concatenate([-pos[::-1], [0.0], pos])
            weights = density(spec, deltas) * spacing
            weights[0] *= 0.5
            weights[-1] *= 0.5
            weights = weights / weights.sum()
        else:
            w = spec.width
            u = (np.arange(1, M + 1) - 0.5) / M
            nodes = (w / 2.0) * np.tan(np.pi * (u - 0.5))
            deltas = (nodes - nodes[::-1]) / 2.0  # enforce exact symmetry
            weights = np.full(M, 1.0 / M)
            spacing = None

    spins = N * weights
    couplings = g_ens * np.sqrt(weights / spins)
    return SubEnsembleGrid(
        family=family,
        deltas=deltas,
        couplings=couplings,
        spins=spins,
        total_spins=N,
        g_ens=g_ens,
        spacing=spacing,
    )
