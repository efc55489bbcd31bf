"""Closed-form and semi-analytic results for the mean-value dynamics.

Everything here is expressed through three derived quantities: the
characteristic width ``Gamma`` of the broadened line, the critical
cavity decay ``kappa_c = g_ens^2 / Gamma`` and the effective
cooperativity ``C = g_ens^2 / (kappa Gamma)``.  An inverted ensemble is
stable against self-oscillation exactly when ``C < 1``.

The kicked-cavity response has a closed form for homogeneous and
Lorentzian broadening (two-pole interference); every two-pole result
here is a root pair of ``(lam + a)(lam + b) = c``, taken from one
cancellation-free formula.  For Gaussian broadening the decay rates are
roots of a transcendental pole equation in the line resolvent
(:func:`~spincavity.broadening.line_resolvent`), located here by damped
Newton iteration; near threshold and in the weak-coupling limit the
module also provides the corresponding asymptotic laws.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .broadening import BroadeningSpec, characteristic_width, line_resolvent
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


def _root_pair(a, b, c):
    """Roots ``(near, far)`` of ``(lam + a)(lam + b) = c``, as complex.

    With ``m = (a + b)/2`` and ``d = sqrt(((a - b)/2)^2 + c)``, the far
    root is ``-(m + d)``, the sign of ``d`` taken to add magnitudes, and
    the near root is ``(a b - c) / far`` by Vieta's formula, so neither
    subtracts one root-sized number from another (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 1.8).  Both are
    formed in units of the power of two ``2^k`` at the largest of
    ``|a|``, ``|b|`` and ``sqrt|c|``, so no square leaves the float range.
    For real ``a``, ``b`` the near root is the less damped one.
    """
    unit = math.ldexp(1.0, -math.frexp(max(abs(a), abs(b), math.sqrt(abs(c))))[1])
    a_unit, b_unit = a * unit, b * unit
    half_sum, half_diff = (a_unit + b_unit) / 2.0, (a_unit - b_unit) / 2.0
    d = cmath.sqrt(half_diff * half_diff + c * unit * unit)
    if half_sum.real * d.real + half_sum.imag * d.imag < 0.0:
        d = -d
    far = -(half_sum + d)
    return (a_unit * b - c * unit) / far, far / unit


def eigenvalue_pair(kappa: float, Gamma: float, C: float):
    """Mean-field decay eigenvalues ``(lambda_+, lambda_-)`` of the
    two-mode reduction.

    The roots of ``(lam + kappa)(lam + Gamma) = C kappa Gamma``,
    ``lambda_+`` the less damped; exact for homogeneous and Lorentzian
    broadening, heuristic for Gaussian.  ``lambda_-`` is the far root of
    :func:`_root_pair`, and ``lambda_+`` its Vieta partner formed with
    ``1 - C`` rather than ``kappa Gamma - C kappa Gamma``, so both keep
    a few ulps of relative accuracy at any ratio ``kappa / Gamma`` and
    at any distance from threshold.
    """
    lam_minus = _root_pair(kappa, Gamma, C * kappa * Gamma)[1]
    return kappa / lam_minus * Gamma * (1.0 - C), lam_minus


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


def lorentzian_kick_response(alpha, kappa, Gamma, g_ens, t, p=1, delta_cs=0.0):
    """Cavity mean after a kick, Lorentzian (or homogeneous) line.

    The poles ``lam_1``, ``lam_2`` are the roots of ``(lam + kappa + i
    delta_cs)(lam + Gamma) = p g_ens^2``, ``lam_1`` the less damped, and
    the two residues sum to
    ``a_c(t) = alpha e^{lam_1 t} [1 + (lam_2 + Gamma) t phi_1((lam_2 -
    lam_1) t)]`` for t >= 0 and 0 for t < 0, where ``phi_1(z) =
    expm1(z) / z`` and ``phi_1(0) = 1``: a double root takes the same
    expression.  ``p`` is the inversion sign and ``delta_cs`` the
    cavity-spin detuning of the model.  Vectorized over ``t``, returns
    complex; raises :class:`DomainError` where ``g_ens^2`` leaves the
    float range.
    """
    t = np.asarray(t, dtype=float)
    with _in_float_range(kappa=kappa, Gamma=Gamma, g_ens=g_ens, delta_cs=delta_cs):
        lam_1, lam_2 = _root_pair(complex(kappa, delta_cs), Gamma, p * g_ens**2)
    if lam_2.real > lam_1.real:
        lam_1, lam_2 = lam_2, lam_1
    out = np.zeros(t.shape, dtype=complex)
    fwd = t >= 0.0
    tf = t[fwd]
    z = (lam_2 - lam_1) * tf
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_1 = np.where(z == 0.0, 1.0, np.expm1(z) / z)
    out[fwd] = alpha * np.exp(lam_1 * tf) * (1.0 + (lam_2 + Gamma) * tf * phi_1)
    return complex(out) if out.ndim == 0 else out


def _pole_function(lam: complex, params: SystemParams, spec: BroadeningSpec):
    """Pole condition F(lam) and its derivative dF/dlam on a Gaussian line.

    ``F(lam) = lam + kappa - g_ens^2 G(lam)`` with ``G`` the line
    resolvent, whose derivative is ``((lam + gamma_perp) G - 1) /
    sigma^2``; roots of F are the exponential decay rates of the
    Gaussian-broadened mean dynamics.
    """
    gp, g2, sigma = params.gamma_perp, params.g_ens**2, spec.width
    G = line_resolvent(spec, gp, lam)
    dG = ((lam + gp) * G - 1.0) / sigma / sigma
    return lam + params.kappa - g2 * G, 1.0 - g2 * dG


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
    with the iterate trace if the budget is exhausted, and
    :class:`DomainError` naming ``g_ens`` where its square leaves the
    float range.  Use :func:`pole_seeds` for the standard fast/slow
    starting points.
    """
    sigma_delta = float(sigma_delta)
    if not 0.0 < sigma_delta < math.inf:
        raise PreconditionError("sigma_delta must be finite and > 0")
    lam = complex(seed)
    if not cmath.isfinite(lam):
        raise PreconditionError("seed must be finite")
    spec = BroadeningSpec("gaussian", sigma_delta)
    tol = 1e-10 * params.kappa
    trace = [lam]
    # every F squares g_ens: checked once here, its overflow names g_ens,
    # where the except below would blame the seed
    with _in_float_range(g_ens=params.g_ens):
        params.g_ens**2
    try:
        F, dF = _pole_function(lam, params, spec)
    except DomainError as exc:
        floor = -10.0 * math.sqrt(2.0) * sigma_delta - params.gamma_perp
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
                F_new, dF_new = _pole_function(candidate, params, spec)
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
    long-time tail rate.  Raises :class:`DomainError` when the slow seed
    leaves the float range, for rates past about 1e154; the fast seed is
    a :func:`_root_pair` root and stays finite.
    """
    kappa, gp, g = params.kappa, params.gamma_perp, params.g_ens
    Gamma = characteristic_width(BroadeningSpec("gaussian", sigma_delta), gp)
    with _in_float_range(kappa=kappa, gamma_perp=gp, g_ens=g):
        fast = _root_pair(kappa, gp, g**2)[0].real
    slow = threshold_rate_approx(kappa, g * g / Gamma, sigma_delta, g)
    if not math.isfinite(slow):
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
