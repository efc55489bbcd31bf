"""Linear dynamical model of the spin-cavity system.

The state vector stacks quadratures as
``(X_c, P_c, S_x^(1), S_y^(1), ..., S_x^(M), S_y^(M))`` with the field
first and sub-ensembles ordered by ascending detuning.  Covariance
matrices use the convention ``gamma_kl = 2 Re <dy_k dy_l>``, so the
vacuum field carries ``gamma_XX = 1`` (variance 1/2) and a fully
polarized sub-ensemble carries ``gamma = 2 N_m`` per transverse
quadrature (variance ``N_m``).

Builders return plain numpy arrays wrapped in small frozen dataclasses;
everything is immutable after construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .broadening import SubEnsembleGrid
from .errors import PreconditionError

__all__ = [
    "SystemParams",
    "DriftModel",
    "InitialStateKind",
    "build_drift_matrix",
    "build_homogeneous_Q",
    "initial_state",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SystemParams:
    """Rates and couplings, all in one shared angular-frequency unit.

    ``kappa`` is the total field-decay rate and must equal
    ``kappa1 + kappa2``; when the mirror rates are omitted the cavity
    is taken as symmetric (``kappa1 = kappa2 = kappa/2``).
    """

    kappa: float
    gamma_perp: float
    g_ens: float
    delta_cs: float = 0.0
    kappa1: float | None = None
    kappa2: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "gamma_perp", float(self.gamma_perp))
        object.__setattr__(self, "g_ens", float(self.g_ens))
        object.__setattr__(self, "delta_cs", float(self.delta_cs))
        if (self.kappa1 is None) != (self.kappa2 is None):
            raise PreconditionError("pass both mirror rates or neither")
        if self.kappa1 is None:
            object.__setattr__(self, "kappa1", self.kappa / 2.0)
            object.__setattr__(self, "kappa2", self.kappa / 2.0)
        else:
            object.__setattr__(self, "kappa1", float(self.kappa1))
            object.__setattr__(self, "kappa2", float(self.kappa2))
        for name in ("kappa", "kappa1", "kappa2", "gamma_perp", "g_ens"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise PreconditionError(f"{name} must be finite and >= 0")
        if not math.isfinite(self.delta_cs):
            raise PreconditionError("delta_cs must be finite")
        if self.kappa <= 0.0:
            raise PreconditionError("kappa must be > 0")
        if not math.isclose(
            self.kappa, self.kappa1 + self.kappa2, rel_tol=1e-12, abs_tol=0.0
        ):
            raise PreconditionError(
                "kappa must equal kappa1 + kappa2 "
                f"({self.kappa} != {self.kappa1} + {self.kappa2})"
            )


@dataclass(frozen=True)
class DriftModel:
    """Drift matrix, diagonal noise and metadata of one linear model."""

    drift: np.ndarray
    noise_diag: np.ndarray
    p: int
    grid: SubEnsembleGrid
    params: SystemParams

    def __post_init__(self):
        drift = np.ascontiguousarray(self.drift, dtype=float)
        noise = np.ascontiguousarray(self.noise_diag, dtype=float)
        drift.flags.writeable = False
        noise.flags.writeable = False
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "noise_diag", noise)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def noise(self) -> np.ndarray:
        """Noise matrix as a full (diagonal) array."""
        return np.diag(self.noise_diag)

    @property
    def arrowhead(self) -> np.ndarray:
        """Complex (M+1) x (M+1) arrowhead matrix ``H`` of the drift.

        In the amplitudes ``a = X_c + i P_c`` and
        ``s_m = S_x^(m) - i S_y^(m)`` the mean equations read
        ``d(a, s_1, ..., s_M)/dt = H (a, s_1, ..., s_M)`` with
        ``H_00 = -(kappa + i delta_cs)``, ``H_0m = -i g_m / sqrt(2)``,
        ``H_m0 = i sqrt(2) g_m p N_m`` and
        ``H_mm = -(gamma_perp + i Delta_m)``, zero elsewhere.  The real
        drift is the realification of ``H`` in these coordinates, so its
        spectrum is that of ``H`` plus the complex conjugates.
        """
        params, grid = self.params, self.grid
        gm = grid.couplings
        H = np.zeros((grid.size + 1, grid.size + 1), dtype=complex)
        H[0, 0] = -complex(params.kappa, params.delta_cs)
        H[0, 1:] = -1j * gm / _SQRT2
        H[1:, 0] = 1j * _SQRT2 * gm * self.p * grid.spins
        diag = np.arange(1, grid.size + 1)
        H[diag, diag] = -(params.gamma_perp + 1j * grid.deltas)
        return H


class InitialStateKind(str, enum.Enum):
    FIELD_KICK = "field-kick"
    TILTED_SPIN = "tilted-spin"
    VACUUM = "vacuum"


def build_drift_matrix(
    params: SystemParams, grid: SubEnsembleGrid, p: int
) -> DriftModel:
    """Assemble the (2M+2) x (2M+2) drift matrix and noise diagonal.

    Block layout: the field block is
    ``[[-kappa, delta_cs], [-delta_cs, -kappa]]``; the field rows
    couple to each sub-ensemble through ``-g_m/sqrt(2)`` on the
    cross quadrature; each spin block carries dephasing ``-gamma_perp``
    with detuning rotation ``-Delta_m``/``+Delta_m`` off diagonal and
    couples back to the field through ``-sqrt(2) g_m S_z^(m)`` with
    ``S_z^(m) = p N_m``.  Noise is diagonal: ``2 kappa`` on the field,
    ``4 gamma_perp N_m`` on each spin quadrature (zero-temperature
    reservoirs).
    """
    if p not in (+1, -1):
        raise PreconditionError(f"inversion sign p must be +1 or -1, got {p}")
    if grid.size < 1:
        raise PreconditionError("grid must contain at least one sub-ensemble")
    M = grid.size
    dim = 2 * M + 2
    A = np.zeros((dim, dim))
    A[0, 0] = -params.kappa
    A[0, 1] = params.delta_cs
    A[1, 0] = -params.delta_cs
    A[1, 1] = -params.kappa

    ix = 2 + 2 * np.arange(M)  # S_x rows; S_y rows are ix + 1
    gm = grid.couplings
    sz = p * grid.spins
    A[0, ix + 1] = -gm / _SQRT2
    A[1, ix] = -gm / _SQRT2
    A[ix, 1] = -_SQRT2 * gm * sz
    A[ix + 1, 0] = -_SQRT2 * gm * sz
    A[ix, ix] = -params.gamma_perp
    A[ix + 1, ix + 1] = -params.gamma_perp
    A[ix, ix + 1] = -grid.deltas
    A[ix + 1, ix] = grid.deltas

    noise = np.zeros(dim)
    noise[0] = noise[1] = 2.0 * params.kappa
    noise[ix] = noise[ix + 1] = 4.0 * params.gamma_perp * grid.spins
    return DriftModel(drift=A, noise_diag=noise, p=p, grid=grid, params=params)


def build_homogeneous_Q(params: SystemParams, N: float):
    """Second-moment system of the resonant homogeneous ensemble.

    Returns ``(Q, r)`` such that the six-vector of moments
    ``x = [<dXc^2>, <dPc^2>, <dSx^2>, <dSy^2>, <dSx dPc>, <dSy dXc>]``
    obeys ``dx/dt = Q x + r`` for a fully inverted, resonant ensemble.
    Inhomogeneous per-spin couplings are folded in through the
    effective coupling ``g = g_ens / sqrt(N)`` acting on effective
    collective spin quadratures.
    """
    if params.delta_cs != 0.0:
        raise PreconditionError(
            "the homogeneous second-moment system is derived on resonance; "
            "delta_cs must be 0"
        )
    N = float(N)
    if N <= 0.0:
        raise PreconditionError("total spin count must be > 0")
    kappa = params.kappa
    gp = params.gamma_perp
    g = params.g_ens / math.sqrt(N)
    s2g = _SQRT2 * g
    Q = np.array(
        [
            [-2 * kappa, 0, 0, 0, 0, -s2g],
            [0, -2 * kappa, 0, 0, -s2g, 0],
            [0, 0, -2 * gp, 0, -2 * s2g * N, 0],
            [0, 0, 0, -2 * gp, 0, -2 * s2g * N],
            [0, -s2g * N, -g / _SQRT2, 0, -(kappa + gp), 0],
            [-s2g * N, 0, 0, -g / _SQRT2, 0, -(kappa + gp)],
        ]
    )
    r = np.array([kappa, kappa, 2 * gp * N, 2 * gp * N, 0.0, 0.0])
    return Q, r


def initial_state(
    kind: InitialStateKind | str,
    grid: SubEnsembleGrid,
    alpha: float = 0.0,
    theta: float = 0.0,
):
    """Mean vector and covariance for the supported preparations.

    ``field-kick``: coherent field displacement, ``X_c = sqrt(2) alpha``.
    ``tilted-spin``: each sub-ensemble tipped by the small angle theta,
    ``S_x^(m) = theta N_m``.
    ``vacuum``: zero means.
    All three share the coherent/vacuum covariance
    ``diag(1, 1, 2 N_1, 2 N_1, ..., 2 N_M, 2 N_M)``.
    """
    try:
        kind = InitialStateKind(kind)
    except ValueError as exc:
        raise PreconditionError(f"unknown initial state kind: {kind!r}") from exc
    M = grid.size
    dim = 2 * M + 2
    y0 = np.zeros(dim)
    ix = 2 + 2 * np.arange(M)
    if kind is InitialStateKind.FIELD_KICK:
        y0[0] = _SQRT2 * float(alpha)
    elif kind is InitialStateKind.TILTED_SPIN:
        y0[ix] = float(theta) * grid.spins
    gamma0 = np.zeros(dim)
    gamma0[0] = gamma0[1] = 1.0
    gamma0[ix] = gamma0[ix + 1] = 2.0 * grid.spins
    return y0, np.diag(gamma0)
