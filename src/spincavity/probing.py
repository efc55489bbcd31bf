"""Driven-cavity linear response: spectra, cooperativity estimation,
spin-polarization depletion and the probing photon budget.

A weak coherent probe of amplitude ``beta`` (normalized so ``|beta|^2``
is the incoming photon flux) drives one mirror of the cavity; the
other mirror transmits.  In steady state the intracavity field is
``<a_c> = sqrt(2 kappa1) beta / (kappa - i Delta_e - p g_ens^2 I)``
where ``I`` is the overlap of the spin distribution with the probe
detuning ``Delta_e``.  Reflection and transmission coefficients follow
from input-output relations, and on resonance they encode the product
``p C`` of inversion sign and cooperativity, which
:func:`estimate_pC` inverts.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .broadening import (
    BroadeningSpec,
    SubEnsembleGrid,
    characteristic_width,
    line_resolvent,
)
from .errors import PreconditionError, UnstableModelError
from .model import DriftModel, SystemParams

__all__ = [
    "ProbeConfig",
    "SpectrumTable",
    "driven_field",
    "reflection_transmission",
    "spectrum_scan",
    "estimate_pC",
    "sz_depletion_rate",
    "photon_budget",
    "sz_drain_subensemble_sum",
    "sz_drain_from_covariance",
]


def _check_sign(p) -> None:
    """Reject an inversion sign other than +1 or -1: a bad argument."""
    if p not in (+1, -1):
        raise PreconditionError(f"inversion sign p must be +1 or -1, got {p}")


@dataclass(frozen=True)
class ProbeConfig:
    """Drive amplitude, probe detuning and sample inversion sign."""

    beta0: complex
    delta_e: float = 0.0
    p: int = -1

    def __post_init__(self):
        object.__setattr__(self, "beta0", complex(self.beta0))
        object.__setattr__(self, "delta_e", float(self.delta_e))
        _check_sign(self.p)


@dataclass(frozen=True)
class SpectrumTable:
    """Reflection/transmission rows over a probe-detuning grid.

    Rows where the response is undefined (inverted sample at or beyond
    threshold) carry NaN values and ``valid == False``; they are kept,
    not dropped.
    """

    delta_e: np.ndarray
    r: np.ndarray
    t: np.ndarray
    valid: np.ndarray

    @property
    def abs_r2(self) -> np.ndarray:
        return np.abs(self.r) ** 2

    @property
    def abs_t2(self) -> np.ndarray:
        return np.abs(self.t) ** 2


def _field_per_drive(
    params: SystemParams, spec: BroadeningSpec, p: int, delta_e: np.ndarray
) -> np.ndarray:
    """Steady ``<a_c> / beta`` over an array of probe detunings.

    The distribution overlap ``integral f(Delta) dDelta / (gamma_perp +
    i (Delta - Delta_e))`` is the line resolvent at ``-i Delta_e``.  The
    undamped homogeneous ensemble has no linear response at zero
    detuning, where that resolvent has its pole; those entries are NaN.
    """
    if params.delta_cs != 0.0:
        raise PreconditionError(
            "driven response assumes the cavity resonant with the spins "
            "(delta_cs = 0)"
        )
    if p == +1:
        Gamma = characteristic_width(spec, params.gamma_perp)
        C = params.g_ens**2 / (params.kappa * Gamma)
        if C >= 1.0:
            raise UnstableModelError(
                f"inverted sample beyond threshold (C={C:.6g} >= 1); "
                "the driven steady state does not exist"
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap = line_resolvent(spec, params.gamma_perp, -1j * delta_e)
        denominator = params.kappa - 1j * delta_e - p * params.g_ens**2 * overlap
        field = math.sqrt(2.0 * params.kappa1) / denominator
    return np.where(np.isfinite(overlap), field, np.nan)


def _coefficients(params: SystemParams, field):
    """``(r, t)`` from the field per unit drive ``<a_c> / beta``."""
    r = math.sqrt(2.0 * params.kappa1) * field - 1.0
    t = math.sqrt(2.0 * params.kappa2) * field
    return r, t


def driven_field(
    params: SystemParams, spec: BroadeningSpec, probe: ProbeConfig
) -> complex:
    """Steady intracavity mean field under a coherent probe."""
    field = complex(
        _field_per_drive(params, spec, probe.p, np.asarray(probe.delta_e))
    )
    if cmath.isnan(field):
        raise PreconditionError(
            "undamped homogeneous ensemble has a singular resonant response"
        )
    return probe.beta0 * field


def reflection_transmission(
    params: SystemParams, spec: BroadeningSpec, probe: ProbeConfig
):
    """Complex reflection and transmission coefficients ``(r, t)``.

    ``r = (sqrt(2 kappa1) <a_c> - beta) / beta`` and
    ``t = sqrt(2 kappa2) <a_c> / beta``.
    """
    if probe.beta0 == 0:
        raise PreconditionError("reflection/transmission need a nonzero drive")
    return _coefficients(params, driven_field(params, spec, probe) / probe.beta0)


def spectrum_scan(
    params: SystemParams, spec: BroadeningSpec, p: int, delta_e_grid
) -> SpectrumTable:
    """Scan reflection and transmission over a probe-detuning grid.

    The whole grid is one array expression.  When its preconditions
    fail (detuned cavity, inverted sample at or beyond threshold) every
    row is flagged invalid; singular rows are NaN-flagged in place.  An
    inversion sign other than +1 or -1 raises :class:`PreconditionError`.
    """
    _check_sign(p)
    grid = np.asarray(delta_e_grid, dtype=float)
    try:
        field = _field_per_drive(params, spec, p, grid)
    except PreconditionError:
        field = np.full(grid.shape, np.nan, dtype=complex)
    r, t = _coefficients(params, field)
    return SpectrumTable(delta_e=grid, r=r, t=t, valid=np.isfinite(field))


def estimate_pC(
    r_or_t: complex, which: str, kappa1: float, kappa2: float
) -> float:
    """Invert a resonant reflection or transmission into ``p * C``.

    ``which`` selects the measured coefficient: ``"reflection"`` uses
    ``pC = (r - (kappa1-kappa2)/(kappa1+kappa2)) / (r + 1)``;
    ``"transmission"`` uses
    ``pC = 1 - (2 sqrt(kappa1 kappa2)/kappa) / t``.  Only the real part
    is returned; off resonance the expressions acquire an imaginary
    residual, reported through a warning.
    """
    kappa = kappa1 + kappa2
    value = complex(r_or_t)
    if which == "reflection":
        if value == -1:
            raise PreconditionError("reflection r = -1 leaves pC undefined")
        estimate = (value - (kappa1 - kappa2) / kappa) / (value + 1.0)
    elif which == "transmission":
        if value == 0:
            raise PreconditionError("transmission t = 0 leaves pC undefined")
        estimate = 1.0 - (2.0 * math.sqrt(kappa1 * kappa2) / kappa) / value
    else:
        raise PreconditionError(
            f"which must be 'reflection' or 'transmission', got {which!r}"
        )
    if abs(estimate.imag) > 1e-9 * max(1.0, abs(estimate.real)):
        warnings.warn(
            f"pC estimate has imaginary residual {estimate.imag:.3e}; "
            "the input does not look like resonant data",
            stacklevel=2,
        )
    return estimate.real


def sz_depletion_rate(
    p: int, g_ens: float, Gamma: float, field_photon_number: float
) -> float:
    """Polarization drain of a driven sample on resonance.

    ``dS_z/dt = -4 p g_ens^2 |a_c|^2 / Gamma``: loss of inversion for
    ``p = +1`` (stimulated emission), absorption-driven growth for
    ``p = -1``.
    """
    _check_sign(p)
    return -4.0 * p * g_ens**2 * field_photon_number / Gamma


def photon_budget(kappa: float, kappa1: float, pC: float, N: float) -> float:
    """Probe-photon bound keeping the polarization depletion small.

    Returns ``(kappa/kappa1) (1 - pC)^2 / (8 |pC|) * N``; the caller
    must stay well below it.  ``pC = 0`` means the sample does not load
    the cavity and the bound is infinite.
    """
    if pC == 0.0:
        return math.inf
    return (kappa / kappa1) * (1.0 - pC) ** 2 / (8.0 * abs(pC)) * N


def sz_drain_subensemble_sum(
    grid: SubEnsembleGrid, gamma_perp: float, p: int, field_photon_number: float
) -> float:
    """Mean-field polarization drain summed over the sub-ensembles.

    ``dS_z/dt = -4 p |a_c|^2 sum_m g_m^2 N_m Re[1/(gamma_perp + i
    Delta_m)]``; for a symmetric grid the imaginary parts cancel
    pairwise.  In the continuum limit this reproduces
    :func:`sz_depletion_rate`.
    """
    _check_sign(p)
    if gamma_perp <= 0.0:
        raise PreconditionError(
            "the adiabatic sub-ensemble drain needs gamma_perp > 0"
        )
    weights = grid.couplings**2 * grid.spins
    lorentz = gamma_perp / (gamma_perp**2 + grid.deltas**2)
    return -4.0 * p * field_photon_number * float(np.sum(weights * lorentz))


def sz_drain_from_covariance(model: DriftModel, gamma: np.ndarray) -> float:
    """Polarization drain of the undriven ensemble from second moments.

    With vanishing mean fields the drain is carried entirely by the
    spin-field cross correlations:
    ``dS_z/dt = sqrt(2) sum_m g_m (gamma[Sx_m, Pc] + gamma[Sy_m, Xc]) / 2``.
    """
    M = model.grid.size
    ix = 2 + 2 * np.arange(M)
    gm = model.grid.couplings
    cross = gm * (gamma[ix, 1] + gamma[ix + 1, 0])
    return math.sqrt(2.0) * float(np.sum(cross)) / 2.0
