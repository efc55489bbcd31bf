"""Closed-form and semi-analytic results for the mean-value dynamics.

Everything here is expressed through three derived quantities: the
characteristic width ``Gamma`` of the broadened line, the critical
cavity decay ``kappa_c = g_ens^2 / Gamma`` and the effective
cooperativity ``C = g_ens^2 / (kappa Gamma)``.  An inverted ensemble is
stable against self-oscillation exactly when ``C < 1``.

The kicked-cavity response has a closed form for homogeneous and
Lorentzian broadening (two-pole interference).  For Gaussian
broadening the decay rates are roots of a transcendental pole equation
involving the Faddeeva function, located here by damped Newton
iteration; near threshold and in the weak-coupling limit the module
also provides the corresponding asymptotic laws.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .broadening import BroadeningSpec, characteristic_width, faddeeva
from .errors import ConvergenceError, DomainError, PreconditionError, UnstableModelError
from .model import SystemParams

__all__ = [
    "StabilityReport",
    "SteadyMomentsHom",
    "stability_report",
    "eigenvalue_pair",
    "lorentzian_kick_response",
    "PoleRoot",
    "gaussian_pole",
    "pole_seeds",
    "threshold_rate_approx",
    "weak_coupling_response",
    "steady_state_moments_hom",
]

_SQRT_PI_HALF = math.sqrt(math.pi / 2.0)


@contextmanager
def _in_float_range(**rates):
    """:class:`DomainError` naming ``rates`` for an overflow or a zero divisor."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        named = ", ".join(f"{name}={value:g}" for name, value in rates.items())
        raise DomainError(f"the closed form leaves the float range at {named}") from exc


@dataclass(frozen=True)
class StabilityReport:
    """Derived stability quantities of one (params, broadening) pair."""

    Gamma: float
    kappa_c: float
    C: float
    stable: bool
    lambda_plus: complex
    lambda_minus: complex


def eigenvalue_pair(kappa: float, Gamma: float, C: float):
    """Mean-field decay eigenvalues of the two-mode reduction.

    ``lambda_pm = -(kappa+Gamma)/2 * (1 -/+ sqrt(1 + 4(C-1) kappa Gamma
    / (kappa+Gamma)^2))``; exact for homogeneous and Lorentzian
    broadening, heuristic for Gaussian.
    """
    s = kappa + Gamma
    root = cmath.sqrt(1.0 + 4.0 * (C - 1.0) * kappa * Gamma / (s * s))
    lam_plus = -s / 2.0 * (1.0 - root)
    lam_minus = -s / 2.0 * (1.0 + root)
    return lam_plus, lam_minus


def stability_report(params: SystemParams, spec: BroadeningSpec) -> StabilityReport:
    """Characteristic width, cooperativity and eigenvalues in one record
    (:class:`DomainError` past the float range)."""
    with _in_float_range(kappa=params.kappa, gamma_perp=params.gamma_perp,
                         g_ens=params.g_ens, width=spec.width):
        Gamma = characteristic_width(spec, params.gamma_perp)
        kappa_c = params.g_ens**2 / Gamma
        C = params.g_ens**2 / (params.kappa * Gamma)
        lam_plus, lam_minus = eigenvalue_pair(params.kappa, Gamma, C)
    return StabilityReport(
        Gamma=Gamma,
        kappa_c=kappa_c,
        C=C,
        stable=C < 1.0,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
    )


def lorentzian_kick_response(alpha, kappa, Gamma, g_ens, t):
    """Cavity mean after a kick, Lorentzian (or homogeneous) line.

    Two-pole closed form
    ``a_c(t) = alpha [ (lam_+ + Gamma) e^{lam_+ t}
    - (lam_- + Gamma) e^{lam_- t} ] / (lam_+ - lam_-)`` for t >= 0 and
    0 for t < 0; the degenerate double-pole case falls back to the
    analytic limit ``alpha (1 + (Gamma + lam) t) e^{lam t}``.
    Vectorized over ``t``, returns complex; raises :class:`DomainError`
    where the poles leave the float range.
    """
    t = np.asarray(t, dtype=float)
    with _in_float_range(kappa=kappa, Gamma=Gamma, g_ens=g_ens):
        C = g_ens**2 / (kappa * Gamma)
        lam_plus, lam_minus = eigenvalue_pair(kappa, Gamma, C)
    out = np.zeros(t.shape, dtype=complex)
    fwd = t >= 0.0
    tf = t[fwd]
    if abs(lam_plus - lam_minus) <= 1e-12 * (kappa + Gamma):
        lam = (lam_plus + lam_minus) / 2.0
        out[fwd] = alpha * (1.0 + (Gamma + lam) * tf) * np.exp(lam * tf)
    else:
        out[fwd] = (
            alpha
            * (
                (lam_plus + Gamma) * np.exp(lam_plus * tf)
                - (lam_minus + Gamma) * np.exp(lam_minus * tf)
            )
            / (lam_plus - lam_minus)
        )
    return complex(out) if out.ndim == 0 else out


def _pole_function(lam: complex, kappa, gamma_perp, g_ens, sigma_delta):
    """Pole condition F(lam) and its derivative dF/dlam.

    ``F(lam) = lam + kappa - sqrt(pi/2) (g_ens^2/sigma) w(z)`` with
    ``z = i (lam + gamma_perp) / (sqrt(2) sigma)``; roots of F are the
    exponential decay rates of the Gaussian-broadened mean dynamics.
    """
    z = 1j * (lam + gamma_perp) / (math.sqrt(2.0) * sigma_delta)
    w = faddeeva(z)
    prefactor = _SQRT_PI_HALF * g_ens**2 / sigma_delta
    F = lam + kappa - prefactor * w
    # dw/dz = -2 z w(z) + 2i/sqrt(pi); dz/dlam = i/(sqrt(2) sigma)
    dw = -2.0 * z * w + 2.0j / math.sqrt(math.pi)
    dF = 1.0 - prefactor * dw * 1j / (math.sqrt(2.0) * sigma_delta)
    return F, dF


class PoleRoot(NamedTuple):
    """A root of the Gaussian pole condition and ``F`` there."""

    lam: complex
    residual: complex


def gaussian_pole(
    params: SystemParams,
    sigma_delta: float,
    seed: complex,
    max_iter: int = 100,
) -> PoleRoot:
    """Locate a decay-rate pole of the Gaussian-broadened response.

    Damped Newton iteration on the transcendental pole condition,
    converged when ``|F(lam)| <= 1e-10 kappa``.  Returns the root
    nearest the seed and ``F`` there; raises :class:`ConvergenceError`
    with the iterate trace if the budget is exhausted.  Use
    :func:`pole_seeds` for the standard fast/slow starting points.
    """
    sigma_delta = float(sigma_delta)
    if not 0.0 < sigma_delta < math.inf:
        raise PreconditionError("sigma_delta must be finite and > 0")
    lam = complex(seed)
    if not cmath.isfinite(lam):
        raise PreconditionError("seed must be finite")
    kappa = params.kappa
    gp = params.gamma_perp
    g = params.g_ens
    tol = 1e-10 * kappa
    trace = [lam]
    try:
        F, dF = _pole_function(lam, kappa, gp, g, sigma_delta)
    except DomainError as exc:
        floor = -10.0 * math.sqrt(2.0) * sigma_delta - gp
        raise PreconditionError(
            "seed maps outside the evaluable Faddeeva strip; "
            f"need Re(seed) >= {floor:.6g}"
        ) from exc
    for _ in range(max_iter):
        if abs(F) <= tol:
            return PoleRoot(lam, F)
        if dF == 0:
            raise ConvergenceError(
                "pole search stalled on a vanishing derivative", trace
            )
        step = -F / dF
        # damp the step until the residual actually decreases; also
        # retreat from regions where the pole function overflows
        damping = 1.0
        for _ in range(60):
            candidate = lam + damping * step
            try:
                F_new, dF_new = _pole_function(
                    candidate, kappa, gp, g, sigma_delta
                )
            except DomainError:
                damping /= 2.0
                continue
            if abs(F_new) < abs(F) or abs(F_new) <= tol:
                break
            damping /= 2.0
        else:
            raise ConvergenceError(
                "pole search could not reduce the residual "
                f"(|F|={abs(F):.3e} at lam={lam:.6g})",
                trace,
            )
        lam, F, dF = candidate, F_new, dF_new
        trace.append(lam)
    raise ConvergenceError(
        f"pole search did not converge in {max_iter} iterations "
        f"(|F|={abs(F):.3e}, tol={tol:.3e})",
        trace,
    )


def pole_seeds(params: SystemParams, sigma_delta: float):
    """Standard seeds for :func:`gaussian_pole`.

    ``fast``: the less-damped root of
    ``(lam + kappa)(lam + gamma_perp) = g_ens^2``, the initial-decay
    rate when the narrow line cannot yet be resolved.  (The more-damped
    root of that quadratic sits where the pole function has no zero:
    for ``Re lam + gamma_perp < 0`` the Faddeeva factor grows like
    ``2 exp(|z|^2)``, so it is useless as a seed.)
    ``slow``: the near-threshold expansion of the pole condition, the
    long-time tail rate.  Raises :class:`DomainError` when a seed
    overflows, for rates past about 1e154.
    """
    kappa = params.kappa
    gp = params.gamma_perp
    g = params.g_ens
    spec = BroadeningSpec("gaussian", sigma_delta)
    Gamma = characteristic_width(spec, gp)
    kappa_c = g * g / Gamma
    try:  # a float ** raises on overflow, where * and + return inf
        disc = math.sqrt((kappa - gp) ** 2 + 4.0 * g * g)
        fast = (-(kappa + gp) + disc) / 2.0
        slow = threshold_rate_approx(kappa, kappa_c, sigma_delta, g)
    except OverflowError:
        fast = slow = math.inf
    if not (math.isfinite(fast) and math.isfinite(slow)):
        raise DomainError(
            f"the pole seeds overflow at kappa={kappa:g}, "
            f"gamma_perp={gp:g}, g_ens={g:g}"
        )
    return {"fast": complex(fast), "slow": complex(slow)}


def threshold_rate_approx(
    kappa: float, kappa_c: float, sigma_delta: float, g_ens: float
) -> float:
    """Near-threshold decay rate of the Gaussian-broadened tail.

    Second-order expansion in ``kappa_c - kappa``; positive (growth)
    below the critical decay rate, negative above.  Raises
    :class:`DomainError` where it leaves the float range.
    """
    with _in_float_range(kappa=kappa, kappa_c=kappa_c, width=sigma_delta, g_ens=g_ens):
        ratio = 1.0 + g_ens**2 / sigma_delta**2
        first = (kappa_c - kappa) / ratio
        second = (math.sqrt(math.pi / 8.0) * g_ens**2 / sigma_delta**3
                  * (kappa_c - kappa) ** 2 / ratio**3)
    return first + second


def weak_coupling_response(alpha, params: SystemParams, sigma_delta, t):
    """Kicked-cavity response in the weak-coupling limit.

    Fast cavity transient plus the free-induction tail the spins
    imprint back onto the field:
    ``alpha e^{-kappa t} + alpha (g_ens/kappa)^2
    e^{-sigma^2 t^2/2 - gamma_perp t}``.  The tail's log-amplitude is
    quadratic in time, the signature of Gaussian broadening.
    Vectorized over ``t``, returns real values; raises
    :class:`DomainError` where ``(g_ens / kappa)^2`` leaves the float range.
    """
    t = np.asarray(t, dtype=float)
    kappa = params.kappa
    with _in_float_range(kappa=kappa, g_ens=params.g_ens):
        ratio = (params.g_ens / kappa) ** 2
    # (sigma t)^2: a square of sigma alone can leave the float range
    with np.errstate(over="ignore"):
        spread = (sigma_delta * t) ** 2
    out = alpha * (
        np.exp(-kappa * t)
        + ratio * np.exp(-0.5 * spread - params.gamma_perp * t)
    )
    return float(out) if out.ndim == 0 else out


class SteadyMomentsHom(NamedTuple):
    """Steady second moments of the stable resonant homogeneous system."""

    var_X_c: float
    var_P_c: float
    var_S_x: float
    var_S_y: float
    cov_Sx_Pc: float
    cov_Sy_Xc: float


def steady_state_moments_hom(
    kappa: float, Gamma: float, g_ens: float, N: float
) -> SteadyMomentsHom:
    """Closed-form steady moments of the inverted resonant ensemble.

    With ``x = (kappa - Gamma)/(kappa + Gamma)``:
    field variances ``(1 - C x) / (2 (1 - C))``, effective collective
    spin variances ``N (1 + C x) / (1 - C)`` and the two equal cross
    moments ``-sqrt(N/2) * 2 g_ens / ((kappa + Gamma)(1 - C))``.
    Only defined for ``C < 1``; the moments diverge at threshold.
    """
    C = g_ens**2 / (kappa * Gamma)
    if C >= 1.0:
        raise UnstableModelError(
            f"steady moments undefined at C={C:.6g} >= 1 (variances diverge)"
        )
    x = (kappa - Gamma) / (kappa + Gamma)
    var_field = 0.5 * (1.0 - C * x) / (1.0 - C)
    var_spin = N * (1.0 + C * x) / (1.0 - C)
    cross = -math.sqrt(N / 2.0) * 2.0 * g_ens / ((kappa + Gamma) * (1.0 - C))
    return SteadyMomentsHom(
        var_X_c=var_field,
        var_P_c=var_field,
        var_S_x=var_spin,
        var_S_y=var_spin,
        cov_Sx_Pc=cross,
        cov_Sy_Xc=cross,
    )
