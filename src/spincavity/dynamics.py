"""Propagation of means and covariances, steady states, stability.

Mean values obey ``dy/dt = A y`` and covariances obey
``dgamma/dt = A gamma + gamma A^T + N_diag`` for the drift matrix ``A``
and diagonal noise ``N_diag`` of a :class:`~spincavity.model.DriftModel`.
Both are propagated exactly, with no step-size control.  Means use the
action of the matrix exponential ``e^{A t} y0`` (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 488 (2011)).  Covariances use Van Loan's
block-exponential identity (IEEE Trans. Autom. Control 23, 395
(1978)), which gives the exact one-step pair
``gamma(t + h) = Phi gamma(t) Phi^T + Q``.  The steady covariance comes
from the algebraic Lyapunov equation and is only defined when the
spectral abscissa of the drift is negative.

The real drift is the realification of the complex (M+1) x (M+1)
arrowhead matrix ``H`` of :attr:`DriftModel.arrowhead`, so its
spectrum is that of ``H`` plus the complex conjugates: one complex
eigenvalue problem of half the size gives the spectral abscissa.  The
eigenvalues are the roots of the secular function
``F(lambda) = lambda + kappa + i delta_cs
- p sum_m g_m^2 N_m / (lambda + gamma_perp + i Delta_m)``, and the
partial-fraction expansion of ``1 / F`` gives the field after a cavity
kick as ``a(t) / a(0) = sum_k e^{lambda_k t} / F'(lambda_k)`` with no
eigenvectors and no time stepping.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.sparse.linalg import expm_multiply

from .broadening import BroadeningFamily, SubEnsembleGrid
from .errors import (
    NumericalError,
    PreconditionError,
    RevivalGuardError,
    UnstableModelError,
)
from .model import DriftModel

__all__ = [
    "MomentSeries",
    "evolve_mean",
    "evolve_covariance",
    "steady_state_covariance",
    "drift_eigenvalues",
    "spectral_abscissa",
    "field_kick_response",
    "collective_reduce",
    "check_revival_window",
]

# largest sum_k |r_k| of the residue expansion in field_kick_response
_RESIDUE_BOUND = 100.0

# order of the compact per-time variance track stored by
# evolve_covariance: (Var Xc, Var Pc, Var Sx, Var Sy, <dSx dPc>, <dSy dXc>)
_TRACK_KEYS = (
    "var_X_c",
    "var_P_c",
    "var_S_x",
    "var_S_y",
    "cov_Sx_Pc",
    "cov_Sy_Xc",
)


@dataclass(frozen=True)
class MomentSeries:
    """Time series of first and/or second moments of one model.

    ``means`` has shape (T, dim); ``covariances`` (T, dim, dim) is only
    stored for small systems or on request, while ``var_track`` always
    records the collective second-moment reductions per output time for
    covariance runs.  ``reductions`` is filled by
    :func:`collective_reduce`.
    """

    times: np.ndarray
    model: DriftModel
    means: np.ndarray | None = None
    covariances: np.ndarray | None = None
    var_track: np.ndarray | None = None
    reductions: dict | None = None


def _validate_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise PreconditionError("times must be a 1-d grid with >= 2 points")
    if times[0] != 0.0:
        raise PreconditionError("times must start at 0")
    if not np.all(np.diff(times) > 0.0):
        raise PreconditionError("times must be strictly increasing")
    return times


def _is_uniform(times: np.ndarray) -> bool:
    """True for a grid equal to ``np.linspace(0, t_max, T)``."""
    return np.array_equal(times, np.linspace(0.0, times[-1], times.size))


def check_revival_window(grid: SubEnsembleGrid, gamma_perp: float, t_max: float):
    """Reject windows that run into discretization revivals.

    A uniform grid of undamped spins rephases at ``t = 2 pi / spacing``.
    With ``gamma_perp == 0`` the revival is undamped, so the window must
    end at or below a quarter of the revival time; refine the grid
    (larger M) to extend the window.
    """
    if (
        grid.spacing is not None
        and gamma_perp == 0.0
        and grid.family is BroadeningFamily.GAUSSIAN
    ):
        t_revival = 2.0 * math.pi / grid.spacing
        if t_revival < 4.0 * t_max:
            need = 1 + math.ceil((grid.size - 1) * 4.0 * t_max / t_revival)
            raise RevivalGuardError(
                f"window t_max={t_max:g} exceeds a quarter of the grid "
                f"revival time {t_revival:g}; use M >= {need | 1} sub-ensembles"
            )


@contextmanager
def _pinned_global_rng():
    """Seed numpy's global stream for the block, then restore it.

    The 1-norm estimator inside ``expm_multiply`` draws random sign
    vectors from the global stream, and its estimate picks the Taylor
    degree and scaling.  Pinning the stream makes equal inputs give
    equal bits and leaves the caller's stream untouched.
    """
    state = np.random.get_state()
    np.random.seed(0)
    try:
        yield
    finally:
        np.random.set_state(state)


def evolve_mean(model: DriftModel, y0: np.ndarray, times) -> MomentSeries:
    """Propagate the mean vector through the output times.

    ``y(t) = e^{A t} y0`` is evaluated by the truncated-Taylor action of
    the matrix exponential on the sparse drift
    (:func:`scipy.sparse.linalg.expm_multiply`, Al-Mohy & Higham 2011),
    accurate to double precision with no step-size control.  A uniform
    grid ``np.linspace(0, t_max, T)`` is served by one call over the
    whole interval; any other grid takes one call per output interval.
    """
    times = _validate_times(times)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (model.dim,):
        raise PreconditionError(
            f"state length {y0.shape} does not match model dim {model.dim}"
        )
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    drift = sp.csr_matrix(model.drift)
    with _pinned_global_rng():
        if _is_uniform(times):
            ys = expm_multiply(
                drift, y0, start=0.0, stop=times[-1], num=times.size,
                endpoint=True,
            )
        else:
            ys = np.empty((times.size, y0.size))
            ys[0] = y0
            for k, dt in enumerate(np.diff(times), start=1):
                ys[k] = expm_multiply(dt * drift, ys[k - 1])
    return MomentSeries(times=times, model=model, means=ys)


def _covariance_track(gamma: np.ndarray, M: int) -> np.ndarray:
    ix = 2 + 2 * np.arange(M)
    iy = ix + 1
    return np.array(
        [
            gamma[0, 0] / 2.0,
            gamma[1, 1] / 2.0,
            gamma[np.ix_(ix, ix)].sum() / 2.0,
            gamma[np.ix_(iy, iy)].sum() / 2.0,
            gamma[ix, 1].sum() / 2.0,
            gamma[iy, 0].sum() / 2.0,
        ]
    )


def _van_loan_pair(drift: np.ndarray, noise: np.ndarray, h: float):
    """Exact covariance step pair over one step ``h``.

    Returns ``Phi = e^{A h}`` and ``Q = int_0^h e^{A s} N e^{A^T s} ds``.
    With ``B = [[-A, N], [0, A^T]]``, ``expm(B s)`` holds ``e^{A s}`` as
    the transpose of its lower-right block and ``Q(s) = e^{A s} F12``
    (Van Loan 1978).  The ``e^{-A s}`` block grows like ``e^{|A| s}``
    and swamps ``F12`` when ``|A| h`` is large, so the exponential is
    taken over the sub-step ``s = h / 2^k`` with ``||A||_1 s <= 1`` and
    the pair is then doubled ``k`` times:
    ``Q(2s) = Phi(s) Q(s) Phi(s)^T + Q(s)``, ``Phi(2s) = Phi(s)^2``.
    """
    dim = drift.shape[0]
    norm_h = np.abs(drift).sum(axis=0).max() * h
    k = math.ceil(math.log2(norm_h)) if norm_h > 1.0 else 0
    s = h / 2.0**k
    block = np.zeros((2 * dim, 2 * dim))
    block[:dim, :dim] = -s * drift
    block[:dim, dim:] = np.diag(s * noise)
    block[dim:, dim:] = s * drift.T
    full = expm(block)
    phi = full[dim:, dim:].T
    q = phi @ full[:dim, dim:]
    for _ in range(k):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    return phi, q


def evolve_covariance(
    model: DriftModel,
    gamma0: np.ndarray,
    times,
    store_full: bool | None = None,
) -> MomentSeries:
    """Propagate the covariance matrix through the output times.

    Each output interval ``h`` is one exact step
    ``gamma <- Phi gamma Phi^T + Q`` with the sub-stepped Van Loan pair
    of :func:`_van_loan_pair`; there is no step-size control and no
    tolerance.  A uniform grid ``np.linspace(0, t_max, T)`` shares one
    pair, any other grid takes one pair per interval.  The matrix is
    re-symmetrized after every step.  Full (T, dim, dim) storage is kept
    when ``store_full`` is true, defaulting to systems of dimension
    <= 64; the collective variance track is recorded at every output
    time regardless.
    """
    times = _validate_times(times)
    dim = model.dim
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != (dim, dim):
        raise PreconditionError(
            f"covariance shape {gamma0.shape} does not match model dim {dim}"
        )
    scale = np.abs(gamma0).max()
    if scale > 0 and np.abs(gamma0 - gamma0.T).max() > 1e-12 * scale:
        raise PreconditionError("initial covariance must be symmetric")
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    if store_full is None:
        store_full = dim <= 64

    M = model.grid.size
    drift, noise = model.drift, model.noise_diag
    steps = np.diff(times)
    if _is_uniform(times):
        pairs = [_van_loan_pair(drift, noise, steps[0])] * steps.size
    else:
        pairs = [_van_loan_pair(drift, noise, h) for h in steps]
    track = np.empty((times.size, len(_TRACK_KEYS)))
    covs = np.empty((times.size, dim, dim)) if store_full else None
    gamma = gamma0
    for k in range(times.size):
        if k > 0:
            phi, q = pairs[k - 1]
            gamma = phi @ gamma @ phi.T + q
            gamma = (gamma + gamma.T) / 2.0
        track[k] = _covariance_track(gamma, M)
        if store_full:
            covs[k] = gamma
    return MomentSeries(
        times=times, model=model, covariances=covs, var_track=track
    )


def drift_eigenvalues(model: DriftModel) -> np.ndarray:
    """The M+1 eigenvalues of the complex arrowhead matrix of the model.

    The spectrum of the real (2M+2) drift is these eigenvalues plus
    their complex conjugates (:attr:`DriftModel.arrowhead`), so one
    complex eigenvalue problem of half the size replaces the real one.
    """
    try:
        return np.linalg.eigvals(model.arrowhead)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc


def spectral_abscissa(model: DriftModel) -> float:
    """Largest real part over the drift-matrix spectrum."""
    return float(drift_eigenvalues(model).real.max())


def field_kick_response(model: DriftModel, eigenvalues, times) -> tuple:
    """Kicked cavity field ``a(t) / a(0)`` from the arrowhead spectrum.

    After a field kick (``a(0) != 0``, every ``s_m(0) = 0``) the field
    is ``a(t) / a(0) = [e^{H t}]_00 = sum_k r_k e^{lambda_k t}``, where
    ``lambda_k`` are the roots of the secular function
    ``F(lambda) = lambda + kappa + i delta_cs
    - p sum_m g_m^2 N_m / (lambda + gamma_perp + i Delta_m)``
    (the eigenvalues from :func:`drift_eigenvalues`) and the residues
    are ``r_k = 1 / F'(lambda_k)`` with
    ``F'(lambda) = 1 + p sum_m g_m^2 N_m / (lambda + gamma_perp + i Delta_m)^2``.
    The cost is O(M^2) for the residues plus O(M T) for the sum, with
    no eigenvectors and no time stepping.

    The residues add up to 1, the response at ``t = 0``, but the sum is
    formed from terms as large as ``|r_k|``.  Near an exceptional point two
    roots merge and their residues blow up with opposite signs; a
    backward-stable eigensolver then moves those roots by about
    ``eps * sum_k |r_k|`` relative to their separation, and the
    cancelling pair carries that into the field, so the error grows
    like ``eps * (sum_k |r_k|)^2`` (about 1e-13, 1e-12 and 2e-10 of the
    kick at ``sum_k |r_k|`` = 22, 70 and 700 next to the homogeneous
    double root).  The expansion is therefore used only while
    ``sum_k |r_k| <= 100``, which keeps that error near 2e-12, and
    while the a-posteriori identity ``sum_k r_k = 1`` holds to 1e-10.
    Otherwise, or with a non-finite residue (a sub-ensemble decoupled
    at ``g_m = 0`` is a pole of ``F`` sitting on a root), the field is
    propagated with :func:`evolve_mean` from the kicked state.

    Returns ``(response, fallback)``: the complex response on
    ``times`` and whether the :func:`evolve_mean` path was taken.
    """
    times = _validate_times(times)
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    params, grid = model.params, model.grid
    lam = np.asarray(eigenvalues, dtype=complex)
    if lam.shape != (grid.size + 1,):
        raise PreconditionError(
            f"need the {grid.size + 1} arrowhead eigenvalues, got {lam.shape}"
        )
    poles = params.gamma_perp + 1j * grid.deltas
    weights = model.p * grid.couplings**2 * grid.spins
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = 1.0 + (weights / (lam[:, None] + poles) ** 2).sum(axis=1)
        residues = 1.0 / slope
        residue_sum = np.abs(residues).sum()
    if residue_sum <= _RESIDUE_BOUND and abs(residues.sum() - 1.0) <= 1e-10:
        return np.exp(np.outer(times, lam)) @ residues, False
    y0 = np.zeros(model.dim)
    y0[0] = 1.0
    means = evolve_mean(model, y0, times).means
    return means[:, 0] + 1j * means[:, 1], True


def steady_state_covariance(model: DriftModel) -> np.ndarray:
    """Solve the algebraic Lyapunov equation of the model.

    Requires a strictly stable drift (spectral abscissa < 0); the
    result is symmetrized and its residual is verified against the
    noise scale, with one refinement pass before giving up.
    """
    abscissa = spectral_abscissa(model)
    if abscissa >= 0.0:
        raise UnstableModelError(
            "no steady state: spectral abscissa "
            f"{abscissa:.3e} >= 0 (second moments diverge)"
        )
    noise = np.diag(model.noise_diag)
    drift = model.drift
    gamma = solve_continuous_lyapunov(drift, -noise)
    gamma = (gamma + gamma.T) / 2.0
    tol = 1e-10 * model.noise_diag.max()
    residual = drift @ gamma + gamma @ drift.T + noise
    if np.abs(residual).max() > tol:
        correction = solve_continuous_lyapunov(drift, -residual)
        gamma = gamma + (correction + correction.T) / 2.0
        residual = drift @ gamma + gamma @ drift.T + noise
        if np.abs(residual).max() > tol:
            raise NumericalError(
                "Lyapunov residual "
                f"{np.abs(residual).max():.3e} exceeds {tol:.3e}"
            )
    return gamma


def collective_reduce(series: MomentSeries, grid: SubEnsembleGrid) -> MomentSeries:
    """Fill the collective reductions of a moment series.

    Mean-level records (X_c, P_c, S_x, S_y) come from stored means;
    variance records come from the propagation-time variance track,
    which :func:`evolve_covariance` takes from the same matrices it
    stores.  The steady collective
    variances ``var_S_x_inf`` and ``var_P_c_inf`` and the relaxation
    ratio ``R(t) = (Var_inf - Var(t)) / (Var_inf - Var(0))`` of the
    collective S_x variance are filled when the model is stable and are
    NaN-flagged otherwise.
    """
    if grid.size != series.model.grid.size:
        raise PreconditionError("grid does not match the series' model")
    M = grid.size
    ix = 2 + 2 * np.arange(M)
    red: dict[str, np.ndarray] = {}
    if series.means is not None:
        red["X_c"] = series.means[:, 0].copy()
        red["P_c"] = series.means[:, 1].copy()
        red["S_x"] = series.means[:, ix].sum(axis=1)
        red["S_y"] = series.means[:, ix + 1].sum(axis=1)
    track = series.var_track
    if track is not None:
        for k, key in enumerate(_TRACK_KEYS):
            red[key] = track[:, k].copy()
        var_sx = red["var_S_x"]
        try:
            gamma_inf = steady_state_covariance(series.model)
        except UnstableModelError:
            red["var_S_x_inf"] = red["var_P_c_inf"] = np.nan
            red["R"] = np.full(series.times.size, np.nan)
        else:
            var_inf = gamma_inf[np.ix_(ix, ix)].sum() / 2.0
            red["var_S_x_inf"] = var_inf
            red["var_P_c_inf"] = gamma_inf[1, 1] / 2.0
            denom = var_inf - var_sx[0]
            if denom == 0.0:
                red["R"] = np.full(series.times.size, np.nan)
            else:
                red["R"] = (var_inf - var_sx) / denom
    return replace(series, reductions=red)
