"""Propagation of means and covariances, steady states, stability.

Every path works in the amplitudes ``z = (a, s_1, ..., s_M)``,
``a = X_c + i P_c``, ``s_m = S_x - i S_y``: ``dz/dt = H z`` with the
complex (M+1) x (M+1) arrowhead ``H`` (:attr:`DriftModel.arrowhead`), and
``C = T gamma T^H`` obeys ``dC/dt = H C + C H^H + D``.  The roots
``lambda_k`` of the secular function ``F`` and the residues
``r_k = 1 / F'(lambda_k)``, found by the one root finder, the secular
iteration (O(M) per root off its pole, O(1) next to it), and gated once
per model
(:func:`arrowhead_eigenvalues`; models that share their poles, as the
points of a sweep over ``g_ens`` and ``kappa`` do, in one batched
iteration, :func:`arrowhead_spectra`), give every moment on any time
grid with no (M+1)^2 array: the kicked field (:func:`field_kick_response`), the
means through the Cauchy-matrix eigenvectors (:func:`evolve_mean`), and
the covariance as the Ornstein-Uhlenbeck solution in the eigenbasis
(Gardiner, *Handbook of Stochastic Methods*), where the poles' common
real part folds ``left D left^H`` to O(1) per entry (:func:`_folding`).
The steady state is built from its field row and checked entry by entry
in O(M^2) (:func:`_spectral_steady`, :func:`_lyapunov_check`).  A
covariance run starts from the diagonal that
:func:`~spincavity.model.initial_state` returns, equal in the two
quadratures of each mode, so the phase-insensitive model keeps the
anomalous ``A = T gamma T^T`` at zero.

Where the residues fail their gate (next to an exceptional point), or a
mean weight or the steady state is not finite (a root on its pole, as a
deflated pole's is), dense paths on ``H`` remain as gated fallbacks of
the moments: exact steps ``z <- e^{H h} z``, Van Loan's block
exponential (IEEE Trans. Autom. Control 23, 395 (1978)) for ``C <- Phi
C Phi^H + Q``, and Bartels-Stewart for the steady state, checked the
same way.  They import scipy where they run, so the package imports
with numpy alone, and all three step and solve on the arrowhead balanced
by ``1 / sqrt(N_m)`` (:func:`_balanced`), which first checks the model
against ``_DENSE_BYTE_BUDGET`` (:func:`_check_dense`); steps past the
float range raise :class:`NumericalError` (:func:`_finite`).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .broadening import BroadeningFamily, SubEnsembleGrid
from .errors import (
    NumericalError, PreconditionError, RevivalGuardError, UnstableModelError,
)
from .model import DriftModel

__all__ = [
    "MomentSeries", "evolve_mean", "evolve_covariance", "steady_state_covariance",
    "arrowhead_eigenvalues", "arrowhead_spectra", "spectral_abscissa",
    "field_kick_response", "check_revival_window",
]

# largest sum_k |r_k| = sum_k 1 / |F'(lambda_k)| accepted by the residue
# gate of a spectrum (_spectra)
_RESIDUE_BOUND = 100.0

# Aberth iterations before a secular iteration fails (see _spectra)
_ABERTH_MAX_ITER = 100

# a root next to its pole iterates on the pole's local function (see
# _moments): the far poles' series to this many orders, the _NEAR poles
# on each side summed exactly, while the root stays within _REACH of
# the distance to its nearest far pole
_ORDERS = 16
_NEAR = 4
_REACH = 0.1

# bytes of each complex (roots x sub-ensembles) work array
_CHUNK_BYTES = 256 * 2**10

# bytes of one dense complex (M+1) x (M+1) array (see _check_dense)
_DENSE_BYTE_BUDGET = 16 * 2**20

# largest Lyapunov residual accepted from a steady state, relative to
# ||H|| ||C|| + ||D|| (see _lyapunov_check)
_LYAPUNOV_RTOL = 1e-10

# R(t) is NaN when |Var_inf - Var(0)| is at most this fraction of
# |Var_inf|.  A start at the steady variance leaves a few to ~50 ulps
# there, while Van Loan steps leave Var(t) ~1e-12 relative rounding
# (3e-10 at N = 1e12), so R over a denominator of a few ulps is noise
_R_RTOL = 1e-10

# each live model's _Spectrum, dropped when the model dies
_MEMO = weakref.WeakKeyDictionary()

# order of the per-time variance track of evolve_covariance:
# (Var Xc, Var Pc, Var Sx, Var Sy, <dSx dPc>, <dSy dXc>)
_TRACK_KEYS = ("var_X_c", "var_P_c", "var_S_x", "var_S_y", "cov_Sx_Pc", "cov_Sy_Xc")


@dataclass(frozen=True)
class MomentSeries:
    """Time series of the first or the second moments of one model.

    ``reductions`` holds the collective values at the caller's T times;
    ``means`` (T, dim) and ``covariances`` (T, dim, dim), the latter only
    with ``store_full``.  ``fallbacks`` counts the computations behind the
    series that took a dense path instead of the roots and residues.
    """

    reductions: dict
    means: np.ndarray | None = None
    covariances: np.ndarray | None = None
    fallbacks: int = 0


def _validate_times(times) -> np.ndarray:
    """``times`` as floats, or :class:`PreconditionError` unless they are a
    finite, strictly increasing 1-d grid of at least 2 points from 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise PreconditionError("times must be a 1-d grid with >= 2 points")
    if not np.isfinite(times).all():
        raise PreconditionError("times must be finite")
    if times[0] != 0.0:
        raise PreconditionError("times must start at 0")
    if not np.all(np.diff(times) > 0.0):
        raise PreconditionError("times must be strictly increasing")
    return times


def _uniform(times: np.ndarray) -> bool:
    """Whether the grid equals ``np.linspace(0, t_max, T)`` to the bit."""
    return np.array_equal(times, np.linspace(0.0, times[-1], times.size))


def _interval_maps(times: np.ndarray, step):
    """``step(h)`` for each output interval ``h`` in turn, each formed when it
    is asked for, so a grid holds one map at a time; a uniform grid takes one
    call."""
    steps = np.diff(times)
    if _uniform(times):
        return itertools.repeat(step(steps[0]), steps.size)
    return map(step, steps)


def check_revival_window(
    grid: SubEnsembleGrid, gamma_perp: float, t_max: float
) -> float | None:
    """Reject windows that run into discretization revivals.

    A uniform grid of undamped spins rephases at ``t = 2 pi / spacing``,
    so with ``gamma_perp == 0`` the window must end within a quarter of
    that; a larger M extends it.  Returns the margin ``t_revival /
    (4 t_max)``, at least 1, or ``None`` where no revival is guarded (a
    damped line, or a grid that is not uniform Gaussian).  Any window
    but ``0 < t_max < inf`` raises :class:`PreconditionError`.
    """
    if not 0.0 < t_max < math.inf:
        raise PreconditionError(f"t_max must be finite and > 0, got {t_max:g}")
    if not (
        grid.spacing is not None
        and gamma_perp == 0.0
        and grid.family is BroadeningFamily.GAUSSIAN
    ):
        return None
    t_revival = 2.0 * math.pi / grid.spacing
    if t_revival / 4.0 < t_max:
        # a Python float, inf past the float range with no warning
        ratio = (grid.size - 1) * 4.0 * float(t_max) / t_revival
        if ratio < 2.0**53:
            need = 1 + math.ceil(ratio) | 1
        else:  # no such M is exact: name the power of ten that suffices
            scale = math.log10((grid.size - 1) * 4.0 / t_revival)
            need = f"1e{math.ceil(scale + math.log10(t_max))}"
        raise RevivalGuardError(
            f"window t_max={t_max:g} exceeds a quarter of the grid "
            f"revival time {t_revival:g}; use M >= {need} sub-ensembles"
        )
    return t_revival / (4.0 * t_max)


def evolve_mean(model: DriftModel, y0: np.ndarray, times) -> MomentSeries:
    """Propagate the mean vector through the output times.

    With ``b_m = H_0m``, ``c_m = H_m0`` and ``d_m = -H_mm`` the root
    ``lambda_k`` has the eigenvectors ``v_k = (1, c_m / (lambda_k +
    d_m))`` and ``u_k = r_k (1, b_m / (lambda_k + d_m))`` (Gu &
    Eisenstat 1995), so ``z(t) = sum_k v_k e^{lambda_k t} u_k z(0)``.  The
    Cauchy sums over ``1 / (lambda_k + d_m)`` all go through
    :func:`_pole_sums`: once for the weights ``u_k z(0)``, then per block
    of ``e^{lambda_k t}`` (:func:`_growth_blocks`) for the spin rows
    ``c_m sum_k e^{lambda_k t} u_k z(0) / (lambda_k + d_m)``, next to the
    field row ``sum_k e^{lambda_k t} u_k z(0)``: O(M^2) per output time
    on any grid.  The real means are the real and the signed imaginary
    parts of ``z``, the first row ``y0`` itself; ``reductions`` holds
    ``X_c``, ``P_c`` and the collective ``S_x`` and ``S_y``.  Fallback
    (``fallbacks`` 1), chosen before any time is propagated: when the
    residues fail their gate (:func:`_spectra`) or a weight is not
    finite (a root on its pole: a deflated pole's, whose residue 0 meets
    an infinite Cauchy entry, or one that rounds onto it, as at very weak
    coupling), each output interval ``h`` is one step ``z~ <- e^{h S H
    S^-1} z~`` of the amplitudes ``z~ = S z`` balanced as the Van Loan and
    Bartels-Stewart paths balance them (:func:`_dense_steps`), so the means
    depend on N only by their scale.  A mean past the float range raises
    :class:`NumericalError` naming the path and the time
    (:func:`_finite`), and so does an ``e^{lambda t}`` past it
    (:func:`_growth_blocks`).
    """
    times = _validate_times(times)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (model.dim,):
        raise PreconditionError(
            f"state length {y0.shape} does not match model dim {model.dim}"
        )
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    spectrum = _spectrum(model)
    lam, poles = spectrum.lam, _secular_terms(model)[0]
    _, row, col = model._arrowhead_border()
    signs = _signs(lam.size)
    z = y0[0::2] + 1j * signs * y0[1::2]
    ys = np.empty((times.size, y0.size))
    spectral = spectrum.residues is not None
    if spectral:
        # a root that rounds onto its pole leaves its weight not finite
        with np.errstate(invalid="ignore", over="ignore"):
            weights = spectrum.residues * (z[0] + _pole_sums(lam, poles, row * z[1:]))
        spectral = np.isfinite(weights).all()
    if spectral:
        for block, growth in _growth_blocks(times, lam, _DENSE_BYTE_BUDGET):
            weighted = np.multiply(growth, weights, out=growth)
            field = weighted.sum(axis=1)
            spins = col * _pole_sums(poles, lam, weighted)
            ys[block, 0], ys[block, 1] = field.real, field.imag
            ys[block, 2::2], ys[block, 3::2] = spins.real, -spins.imag
    else:
        # steps past the float range are left to _finite, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (real, imag) in enumerate(_dense_steps(model, z, times), start=1):
                ys[k, 0::2], ys[k, 1::2] = real, signs * imag
    ys[0] = y0
    path = "the eigenvectors" if spectral else "the dense fallback (e^{H h} steps)"
    _finite(ys, f"mean propagation by {path}", times)
    reductions = {
        "X_c": ys[:, 0].copy(), "P_c": ys[:, 1].copy(),
        "S_x": ys[:, 2::2].sum(axis=1), "S_y": ys[:, 3::2].sum(axis=1),
    }
    return MomentSeries(reductions=reductions, means=ys, fallbacks=int(not spectral))


def _dense_steps(model: DriftModel, z: np.ndarray, times: np.ndarray):
    """The amplitudes ``z`` at each output time after the first by the
    dense fallback, as their real and imaginary parts.

    Each output interval ``h`` is one step ``z~ <- e^{h S H S^-1} z~`` of
    the balanced ``z~ = S z`` (:func:`_balanced`), its map formed by
    :func:`scipy.linalg.expm` when the step is taken, one for a uniform
    grid (:func:`_interval_maps`), and each part unscaled by ``S`` on its
    own: a complex amplitude over the real scales rounds otherwise.
    Steps past the float range are left to the caller's ``errstate``.
    """
    from scipy.linalg import expm

    scale, balanced = _balanced(model)
    z = scale * z
    for phi in _interval_maps(times, lambda h: expm(h * balanced)):
        z = phi @ z
        yield z.real / scale, z.imag / scale


def _sums(amp: np.ndarray) -> np.ndarray:
    """``Re X_00``, ``Re 1^T X_ss 1``, ``Im X_0s 1`` of amplitudes or their diagonal."""
    if amp.ndim == 1:
        return np.array([amp[0], amp[1:].sum(), 0.0]).real
    block = np.ascontiguousarray(amp[1:, 1:].real)
    return np.array([amp[0, 0].real, block.sum(), amp[0, 1:].imag.sum()])


def _track(sums: np.ndarray) -> np.ndarray:
    """The six ``_TRACK_KEYS`` from :func:`_sums` of ``C``, along the last axis.

    With no anomalous part ``gamma`` holds ``Re C / 2`` on both
    quadratures (up to the signs of ``T``) and ``Im C / 2`` across them,
    so ``Var X_c = Var P_c = Re C_00 / 4``, and the rest follows alike.
    """
    return np.repeat(sums, 2, axis=-1) / 4.0


def _van_loan_pair(arrowhead: np.ndarray, noise: np.ndarray, h: float):
    """``Phi = e^{H h}`` and ``Q = int_0^h e^{H s} D e^{H^H s} ds``.

    With ``B = [[-H, D], [0, H^H]]``, ``expm(B s)`` holds ``e^{H s}`` as
    the conjugate transpose of its lower-right block and
    ``Q(s) = e^{H s} F12`` (Van Loan 1978).  The ``e^{-H s}`` block
    swamps ``F12`` when ``|H| h`` is large, so the exponential is taken
    over ``s = h / 2^k`` with ``||H||_1 s <= 1`` and the pair doubled
    ``k`` times: ``Q(2s) = Phi Q Phi^H + Q``, ``Phi(2s) = Phi^2``.
    """
    from scipy.linalg import expm

    size = arrowhead.shape[0]
    norm_h = np.abs(arrowhead).sum(axis=0).max() * h
    k = math.ceil(math.log2(norm_h)) if norm_h > 1.0 else 0
    s = h / 2.0**k
    block = np.zeros((2 * size, 2 * size), dtype=complex)
    block[:size, :size] = -s * arrowhead
    block[:size, size:] = np.diag(s * noise)
    block[size:, size:] = s * arrowhead.conj().T
    full = expm(block)
    phi = full[size:, size:].conj().T
    q = phi @ full[:size, size:]
    for _ in range(k):
        q = phi @ q @ phi.conj().T + q
        phi = phi @ phi
    return phi, q


def evolve_covariance(
    model: DriftModel,
    gamma0: np.ndarray,
    times,
    store_full: bool = False,
) -> MomentSeries:
    """Propagate the covariance matrix through the output times.

    ``gamma0`` is the diagonal of the real initial covariance, of length
    ``dim`` and equal in the two quadratures of each mode, as
    :func:`~spincavity.model.initial_state` returns it; anything else,
    a squeezed start among them, raises :class:`PreconditionError`.  In
    the amplitudes ``dC/dt = H C + C H^H + D`` with diagonal ``D``; the
    anomalous ``A = T gamma T^T`` obeys ``dA/dt = H A + A H^T`` and so
    stays at its start, zero.  The track comes from the roots and
    residues (:func:`_spectral_covariance`, :func:`_spectral_steady`).
    When the spectrum fails the gates of :func:`evolve_mean`, or the
    steady state fails its check or its ``residual`` exceeds
    ``_LYAPUNOV_RTOL`` of the largest noise entry (near threshold
    ``C_inf + (C(t) - C_inf)`` cancels too many digits), each output
    interval is one exact step ``C <- Phi C Phi^H + Q`` of the Van Loan
    pair (:func:`_van_loan_pair`, one for a uniform grid) of the balanced
    arrowhead (:func:`_balanced`), counted in ``fallbacks``.  A track past
    the float range raises :class:`NumericalError` naming the path and the
    time (:func:`_finite`).

    ``reductions`` holds the track under the ``_TRACK_KEYS``, its first
    row that of ``gamma0``; the steady ``var_S_x_inf`` and
    ``var_P_c_inf`` (Bartels-Stewart adds a count to ``fallbacks``), NaN
    for an unstable model; and ``R(t) = (Var_inf - Var(t)) / (Var_inf -
    Var(0))`` of the collective ``S_x`` variance, NaN when the model is
    unstable or ``Var(0)`` equals ``Var_inf`` to ``_R_RTOL`` relative
    (rounding over rounding).  A stable model whose steady state meets
    no residual bound raises :class:`NumericalError`.  ``store_full``
    stores the real (T, dim, dim) matrices, refused past
    ``_DENSE_BYTE_BUDGET`` bytes in all.
    """
    times = _validate_times(times)
    dim = model.dim
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != (dim,):
        raise PreconditionError(
            f"covariance shape {gamma0.shape} is not the ({dim},) diagonal "
            "that initial_state returns"
        )
    if not np.array_equal(gamma0[0::2], gamma0[1::2]):
        raise PreconditionError("the two quadratures of each mode must start with "
                                "equal variances: no squeezed start")
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    need = 8 * times.size * dim**2  # bytes of the stored covariances
    if store_full and need > _DENSE_BYTE_BUDGET:
        raise PreconditionError(f"store_full needs {need / 2**20:.1f} MiB, over "
                                f"the {_DENSE_BYTE_BUDGET // 2**20} MiB budget")

    steady = _spectral_steady(model)
    try:
        steady_inf, dense = _steady_state(model, steady)
    except UnstableModelError:
        var_inf, dense = dict.fromkeys(_TRACK_KEYS, np.nan), False
    else:
        var_inf = dict(zip(_TRACK_KEYS, _track(steady_inf.sums)))
    amp0 = gamma0[0::2] + gamma0[1::2]
    spectral = (
        steady is not None
        and steady.residual <= _LYAPUNOV_RTOL * model.noise_diag.max()
    )
    if spectral:
        track, covs = _spectral_covariance(model, times, steady, amp0, store_full)
    else:
        track, covs = _van_loan_covariance(model, amp0, times, store_full)
    track[0] = _track(_sums(amp0))
    path = "the residues" if spectral else "the dense fallback (Van Loan steps)"
    _finite(track, f"covariance propagation by {path}", times)
    if store_full:
        covs[0] = np.diag(gamma0)
    reductions = dict(zip(_TRACK_KEYS, track.T))
    var_sx, var_sx_inf = reductions["var_S_x"], var_inf["var_S_x"]
    denom = var_sx_inf - var_sx[0]
    ratio = (var_sx_inf - var_sx) / denom if abs(denom) > _R_RTOL * abs(
        var_sx_inf) else np.full(times.size, np.nan)
    reductions.update(var_S_x_inf=var_sx_inf, var_P_c_inf=var_inf["var_P_c"], R=ratio)
    return MomentSeries(reductions=reductions, covariances=covs,
                        fallbacks=int(not spectral) + dense)


def _van_loan_covariance(model, amp0, times, store_full) -> tuple:
    """Track and optional matrices by Van Loan steps from the diagonal
    ``amp0`` of ``C_0``, on the balanced ``H``, ``D`` and ``C``
    (:func:`_balanced`), one pair at a time (:func:`_interval_maps`), each
    step unscaled before its sums."""
    scale, arrowhead = _balanced(model)
    noise = scale * _noise(model) * scale
    amp = np.diag(scale * amp0 * scale + 0j)
    sums = np.zeros((times.size, 3))
    covs = np.empty((times.size, model.dim, model.dim)) if store_full else None
    with np.errstate(over="ignore", invalid="ignore"):  # left to _finite
        pairs = _interval_maps(times, lambda h: _van_loan_pair(arrowhead, noise, h))
        for k in range(times.size):
            if k > 0:
                phi, q = next(pairs)
                amp = phi @ amp @ phi.conj().T + q
                amp = (amp + amp.conj().T) / 2.0
            unscaled = amp / scale / scale[:, None]
            sums[k] = _sums(unscaled)
            if store_full:
                covs[k] = _from_amplitudes(unscaled)
    return _track(sums), covs


def _row_blocks(rows: int, cols: int):
    """Row slices of a complex (rows x cols) array, each <= ``_CHUNK_BYTES``."""
    step = max(1, _CHUNK_BYTES // (16 * max(cols, 1)))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _cauchy(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The Cauchy matrix ``1 / (rows_i + cols_j)``, infinite where they cancel."""
    out = np.add.outer(rows, cols)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.divide(1.0, out, out=out)


def _pole_sums(rows, cols, values, square=False) -> np.ndarray:
    """``sum_j values_j / (rows_i + cols_j)`` (squared with ``square``),
    for one vector of ``values`` or each of a stack, in row blocks."""
    values = np.asarray(values)
    out = np.empty(values.shape[:-1] + rows.shape, dtype=complex)
    for block in _row_blocks(rows.size, cols.size):
        cauchy = _cauchy(rows[block], cols)
        if square:
            cauchy *= cauchy
        out[..., block] = values @ cauchy.T
    return out


def _growth_blocks(times: np.ndarray, lam: np.ndarray, chunk: int | None = None):
    """Row blocks of the (T x K) ``e^{lambda_k t_j}``, each <= ``chunk`` bytes
    (``_CHUNK_BYTES`` by default).

    Each block is a view of one reused work array.  On a uniform grid
    (:func:`_uniform`) row ``j = a B + b`` is ``e^{lambda t_aB} e^{lambda
    t_b}``, ``B = ceil(sqrt(T))`` capped at a block; a grid that spans
    several blocks is cut at coarse rows ``a``, and each block is filled
    as one product of the ``B`` fine rows and its coarse rows: about ``2
    sqrt(T) K`` exponentials, where other grids take ``T K``; an entry
    moves by a few ulps times ``1 + |lambda t_j|``.  A block with an entry past the
    float range raises :class:`NumericalError` naming the overflow: the
    growth ``e^{Re lambda t}`` or, first on a decaying spectrum, the
    phase ``Im lambda t``.
    """
    uniform = _uniform(times)
    rows = max(1, (chunk or _CHUNK_BYTES) // (16 * lam.size))
    size = min(math.isqrt(times.size - 1) + 1, rows) if uniform else 1
    # whole coarse rows per block, all of the grid's if they fit
    rows = size * min(rows // size, -(-times.size // size))
    if uniform:
        with np.errstate(over="ignore", invalid="ignore"):
            fine = np.exp(np.multiply.outer(times[:size], lam))
    work = np.empty((rows, lam.size), dtype=complex)
    for start in range(0, times.size, rows):
        block = slice(start, min(start + rows, times.size))
        growth = work[: block.stop - start]
        with np.errstate(over="ignore", invalid="ignore"):
            if uniform:
                coarse = np.exp(np.multiply.outer(times[block][::size], lam))
                # the last coarse row may run past T into the work array
                tiles = work[: coarse.shape[0] * size].reshape(-1, size, lam.size)
                np.multiply(fine, coarse[:, None], out=tiles)
            else:
                np.exp(np.multiply(times[block, None], lam, out=growth), out=growth)
        if not np.isfinite(growth.view(float)).all():
            # the growth e^(Re lambda t) or the phase Im(lambda) t left
            # the float range, whichever does so first
            rate, turn = lam.real.max(), np.abs(lam.imag).max()
            huge = np.finfo(float).max
            with np.errstate(divide="ignore", over="ignore"):
                grows, turns = np.log(huge) / rate, huge / turn
            if 0.0 < grows <= turns:
                raise NumericalError("e^(lambda t) overflows the float range past "
                                     f"t = {grows:.6g} (Re lambda = {rate:.6g})")
            raise NumericalError(
                "the phase Im(lambda) t of e^(lambda t) overflows the float range "
                f"past t = {turns:.6g} (max |Im lambda| = {turn:.6g})"
            )
        yield block, growth


def _check_dense(model: DriftModel) -> None:
    """Refuse a model whose dense (M+1) x (M+1) complex arrays exceed the budget."""
    need = 16 * (model.grid.size + 1) ** 2
    if need > _DENSE_BYTE_BUDGET:
        raise PreconditionError(
            f"M = {model.grid.size} needs {need / 2**20:.1f} MiB per dense "
            f"(M+1)^2 complex array, over the {_DENSE_BYTE_BUDGET // 2**20} "
            f"MiB budget (M <= {math.isqrt(_DENSE_BYTE_BUDGET // 16) - 1})"
        )


def _finite(values: np.ndarray, what: str, times: np.ndarray) -> np.ndarray:
    """``values`` (one row per time), or :class:`NumericalError` naming
    ``what`` and the first time at which one is not finite."""
    bad = ~np.isfinite(values.reshape(times.size, -1)).all(axis=1)
    if bad.any():
        raise NumericalError(
            f"{what} overflows the float range by t = {times[bad.argmax()]:g}"
        )
    return values


def _secular_terms(model: DriftModel):
    """Poles ``d_m = gamma_perp + i Delta_m`` and weights ``w_m = p g_m^2
    N_m``, or :class:`NumericalError` where a weight leaves the float range."""
    grid = model.grid
    poles = model.params.gamma_perp + 1j * grid.deltas
    with np.errstate(over="ignore", invalid="ignore"):
        weights = model.p * grid.couplings**2 * grid.spins
        if not np.isfinite(weights).all():
            # at a tiny N, g_m^2 leaves the float range before g_m^2 N_m
            weights = model.p * grid.couplings * (grid.couplings * grid.spins)
    if not np.isfinite(weights).all():
        raise NumericalError("the coupling weights p g_m^2 N_m overflow the float range")
    return poles, weights


def _mirrored(poles: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the poles, sorted by ``Delta``, and their weights are
    mirror-symmetric to the bit, with an odd count."""
    return (poles.size % 2 == 1 and np.array_equal(poles, poles[::-1].conjugate())
            and np.array_equal(weights, weights[::-1]))


def _lattice(deltas: np.ndarray):
    """``(unit, scale, tangent)`` of sorted deltas that lie, to rounding,
    on a lattice of :func:`~spincavity.broadening.discretize`, else
    ``None``.

    Told from the deltas alone, in O(M).  On the uniform lattice
    ``Delta_j - Delta_m = h (j - m)``; on the tangent lattice ``Delta_j =
    c + a tan theta_j``, ``theta_j = (j - (n - 1) / 2) pi / n``, ``Delta_j
    - Delta_m = a sin(theta_j - theta_m) / (cos theta_j cos theta_m)``.
    Either way ``unit_m / (Delta_j - Delta_m) = scale_j kernel_(j - m)``
    (:func:`_kernels`): unit ``h`` and scale 1 (``None``), or unit ``a (pi
    / n) / cos theta_m`` and scale ``cos theta_j``.
    """
    n = deltas.size
    index = np.arange(n) - (n - 1) / 2.0
    centre = (deltas[0] + deltas[-1]) / 2.0
    rest = deltas - centre
    eps = np.finfo(float).eps
    step = (deltas[-1] - deltas[0]) / (n - 1)
    if np.abs(rest - step * index).max() <= 8.0 * eps * np.abs(deltas).max():
        return np.full(n, step), None, False
    # cos and sin of the angles to full relative accuracy near +-pi/2
    angle = math.pi / n
    cos = np.sin((n / 2.0 - np.abs(index)) * angle)
    tan = np.sin(index * angle) / cos
    quarter = (n - 1) // 2 + n // 4  # theta near pi/4
    a = rest[quarter] / tan[quarter]
    if np.all(np.abs(rest - a * tan)
              <= 8.0 * eps * (np.abs(rest) + abs(centre) + a * math.pi / cos**2)):
        return a * angle / cos, cos, True
    return None


@functools.lru_cache(maxsize=4)
def _kernels(n: int, tangent: bool) -> tuple:
    """``(size, spectra)``: the FFT length for a lattice of ``n`` poles and
    the real FFTs of its far-pole kernels ``kernel_s^(k+1)``, ``|s| >
    _NEAR``, laid out for a correlation, in blocks of orders.

    The kernel is ``1 / s`` on the uniform lattice and ``(pi / n) / sin(pi
    s / n)`` on the tangent one (:func:`_lattice`), odd in ``s``.  A
    block holds up to 2^14 real entries, 128 KiB, whatever
    ``_CHUNK_BYTES`` is: an FFT rounds a row by how many rows share its
    transform.  They depend on ``n`` alone, so the lines of a sweep share
    them.
    """
    steps = np.arange(1.0, n)
    angle = math.pi / n
    if tangent:
        kernel = angle / np.sin(np.minimum(steps, n - steps) * angle)
    else:
        kernel = 1.0 / steps
    kernel[:_NEAR] = 0.0
    size = 1 << (2 * n - 2).bit_length()  # no wrap-around
    count = min(max(2**14 // size, 1), _ORDERS)
    spectra = []
    for first in range(0, _ORDERS, count):
        power = np.arange(first + 1, min(first + count, _ORDERS) + 1)[:, None]
        ker = np.zeros((power.size, size))
        ker[:, size - 1:size - n:-1] = kernel**power
        ker[:, 1:n] = ker[:, size - 1:size - n:-1] * (-1.0) ** power
        spectra.append(np.fft.rfft(ker))
        spectra[-1].flags.writeable = False
    return size, tuple(spectra)


def _moments(deltas: np.ndarray, weights: np.ndarray) -> tuple:
    """``(table, unit, reach)`` of the far poles of each pole ``m``.

    ``table[m, k] = sum_{|j - m| > q} w_j (unit_m / (Delta_j -
    Delta_m))^(k+1)`` for ``k < _ORDERS``, ``q = _NEAR``, of sorted
    deltas: the series ``sum_{|j - m| > q} w_j / (t + d_j - d_m) = (-i /
    unit_m) sum_k (i t / unit_m)^k table[m, k]`` in the offset ``t = z +
    d_m``, held in units of each pole's ``unit`` so that no power over-
    or underflows at any width.  On a lattice (:func:`_lattice`) each
    order is one real FFT convolution of a power-of-two length; any other
    line takes direct row sums in units of the distance to the pole's
    nearest far pole.  ``reach_m``, the lesser of ``unit_m / 2`` and
    ``_REACH`` of that distance, bounds the offsets at which a root reads
    the series (:func:`_local_sums`): there the truncated orders, and the
    convolution's rounding in the high ones, stay below rounding of ``F``
    and ``F'``.  A line of fewer than ``2 q + 2`` poles has reach 0.
    """
    n, near = deltas.size, _NEAR
    orders = np.arange(1, _ORDERS + 1)[:, None]
    span = np.full(n, np.inf)  # distance to the nearest far pole
    if n > near + 1:
        gaps = deltas[near + 1:] - deltas[:-near - 1]
        span[:-near - 1] = gaps
        span[near + 1:] = np.minimum(span[near + 1:], gaps)
    local = n >= 2 * near + 2
    lattice = _lattice(deltas) if local else None
    table = np.zeros((n, _ORDERS))
    if lattice is not None:
        unit, scale, tangent = lattice
        size, spectra = _kernels(n, tangent)
        first, signal = 0, np.fft.rfft(weights, size)
        for kernel in spectra:
            block = slice(first, first + kernel.shape[0])
            if scale is not None:
                signal = np.fft.rfft(weights * scale ** orders[block], size)
            table[:, block] = np.fft.irfft(signal * kernel, size)[:, :n].T
            first = block.stop
    else:
        unit = np.where(span < np.inf, span, 1.0)
        index = np.arange(n)
        # with no reach, only the dressing's orders 0 and 1 are read
        for block in _row_blocks(n if n > near + 1 else 0, n):
            m = index[block, None]
            ratio = unit[m] / (deltas - deltas[m])
            ratio[np.abs(index - m) <= near] = 0.0
            power = ratio
            for k in range(_ORDERS if local else 2):
                table[m[:, 0], k] = (weights * power).sum(axis=1)
                power = power * ratio
    reach = np.minimum(_REACH * span, unit / 2.0) if local else np.zeros(n)
    return table, unit, reach


def _dressing(spread: np.ndarray, padded: np.ndarray, table, unit) -> tuple:
    """``T_m = sum_{j != m} w_j / (Delta_j - Delta_m)`` and its slope
    ``U_m = sum_{j != m} w_j / (Delta_j - Delta_m)^2``: orders 0 and 1 of
    the far moments (:func:`_moments`) and the ``_NEAR`` neighbours on
    each side, each pair at one distance summed first (under the caller's
    ``errstate``), from the line's padded deltas and weights
    (:func:`_line`)."""
    n, near = unit.size, _NEAR
    deltas = spread[near:near + n]
    # row o - 1 holds the neighbours at distance o
    up = near + np.arange(1, near + 1)[:, None] + np.arange(n)
    down = up - 2 * np.arange(1, near + 1)[:, None]
    above, below = spread[up] - deltas, spread[down] - deltas
    over, under = padded[up] / above, padded[down] / below
    sums = table[:, 0] / unit + (over + under).sum(axis=0)
    slopes = table[:, 1] / unit / unit + (over / above + under / below).sum(axis=0)
    return sums, slopes


def _seeds(shift: complex, poles: np.ndarray, weights: np.ndarray,
           dressing: tuple) -> np.ndarray:
    """The decoupled cavity root ``-shift``, then one seed per pole.

    The seed of pole m is the root nearest ``-d_m`` of its dressed
    problem ``(1 - U_m) t^2 + (shift - d_m - S_m) t = w_m``, ``t = z +
    d_m``: ``t F`` with the sum over the other poles taken to first order
    in ``t``, ``S_m + U_m t``.  Its value ``S_m = sum_{j != m} w_j / (d_j
    - d_m) = -i T_m`` dresses the cavity and its slope ``U_m`` offsets
    the unit slope of ``F``; ``dressing`` holds both, ``(T, U)`` of
    :func:`_dressing`: orders 0 and 1 of the far-pole moments of
    :func:`_moments` and the neighbours summed exactly, so the local rows
    of :func:`_aberth_roots` start from a seed of their own local function
    to second order.  Without them (``T_m = U_m = 0``) the seed is
    the weak-coupling one, ``-d_m + w_m / (shift - d_m)`` to first order
    in ``w_m``.
    """
    seeds = np.empty(poles.size + 1, dtype=complex)
    seeds[0] = -shift
    sums, slopes = dressing
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = shift - poles
        gap.imag += sums
        root = np.sqrt(gap * gap + 4.0 * (1.0 - slopes) * weights)
        root = np.where((gap.conjugate() * root).real < 0.0, -root, root)
        seeds[1:] = -poles + 2.0 * weights / (gap + root)
    return seeds


def _collective_seeds(shift: float, poles, weights, centre_seed) -> tuple:
    """Both layouts of the two roots of a mirrored problem not seeded at
    pole pairs, the likelier first.

    ``poles`` holds the real centre pole ``d_0``, then one of each
    mirrored pair; ``centre_seed`` is the seed of ``d_0`` (:func:`_seeds`).
    They come from ``(z + shift)(z + d_0) = sum_m w_m``.  One layout is a
    conjugate pair, seeded as one, the 2 x 2 root with positive imaginary
    part (the mirror image of the real ones about their midpoint when the
    2 x 2 roots are real).  The other is two real seeds: the 2 x 2 root
    nearest ``-shift`` (their midpoint if complex) and, for the root next
    to ``d_0``, the other 2 x 2 root on a strongly coupled line, else
    ``centre_seed``; ``F`` keeps its sign from next to ``d_0`` out to that
    root, so ``F`` at the geometric mean of the candidates' distances from
    ``d_0`` tells which lies nearer.  The pair comes first when there are
    no real roots off the pole pairs (:func:`_real_pair` decides for
    negative weights; positive ones always leave some).
    """
    centre, w0 = poles[0].real, weights[0]
    mid, half = -(shift + centre) / 2.0, (shift - centre) / 2.0
    total = w0 + 2.0 * weights[1:].sum()
    halves = poles[1:].imag
    with np.errstate(over="ignore", invalid="ignore"):  # half^2 past rates ~1e154
        pair = np.array([complex(mid, math.sqrt(abs(total + half * half)))])
        root = math.copysign(math.sqrt(max(half * half + total, 0.0)), half)
        real = np.array([mid - root, centre_seed])
        near, far = centre_seed.real + centre, mid + root + centre  # t = z + d_0
        if root != 0.0 and near * far > 0.0:
            t = math.copysign(math.sqrt(near * far), far)
            odd = _odd_part(np.array([t]), halves, weights)[0]
            if (2.0 * half + odd) * w0 * t < 0.0:
                real = np.array([mid - root, far - centre], dtype=complex)
        if w0 < 0.0 and not _real_pair(2.0 * abs(half), halves, weights):
            return pair, real
    return real, pair


def _odd_part(t: np.ndarray, halves: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``t - w_0 / t - sum_k 2 w_k t / (t^2 + D_k^2)`` at real ``t``.

    The secular function of a mirrored problem on the real axis, with
    ``t = z + d_0``, less ``shift - d_0``; ``halves`` holds the ``D_k``.
    """
    out = t - weights[0] / t
    squares, w2 = halves**2, 2.0 * weights[1:]
    for block in _row_blocks(t.size, squares.size):
        tb = t[block, None]
        out[block] -= (w2 * tb / (tb * tb + squares)).sum(axis=1)
    return out


def _real_pair(level: float, halves: np.ndarray, weights: np.ndarray) -> bool:
    """Whether a mirrored problem with negative weights has real roots.

    On the real axis ``F = phi(t) + shift - d_0`` with ``phi`` of
    :func:`_odd_part`, odd in ``t = z + d_0`` and positive for ``t > 0``,
    so real roots need ``phi`` to fall to ``level = |shift - d_0|`` on
    ``t > 0``, within ``-w_0 / level <= t <= level``.  No term of ``phi``
    changes by more than a factor ``r`` over a factor ``r`` in ``t``, so
    on ``[a, r a]`` ``phi >= sqrt(phi(a) phi(r a) / r)``.  A geometric
    ladder is refined where that bound still reaches ``level`` until a
    sample does (real roots), none can (none), or after 12 halvings or
    256 open intervals, where the roots are nearly double and taken as
    real.
    """
    w0 = weights[0]
    if not (level > 0.0 and -w0 < level * level):
        return False
    lo, hi = math.log(-w0 / level), math.log(level)
    count = math.ceil(2.0 * (hi - lo))
    step = (hi - lo) / count
    ladder = np.exp(np.linspace(lo, hi, count + 1))
    values = _odd_part(ladder, halves, weights)
    a, b, fa, fb = ladder[:-1], ladder[1:], values[:-1], values[1:]
    for _ in range(12):
        if min(fa.min(), fb.min()) <= level:
            return True
        open_ = np.sqrt(fa * fb) * math.exp(-step / 2.0) <= level
        if not open_.any():
            return False
        if np.count_nonzero(open_) > 256:
            break
        a, b, fa, fb = a[open_], b[open_], fa[open_], fb[open_]
        mid = np.sqrt(a * b)
        fm = _odd_part(mid, halves, weights)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
        step /= 2.0
    return True


def _work_arrays(width: int) -> np.ndarray:
    """Three complex work arrays of ``_CHUNK_BYTES`` for :func:`_view`.

    Every block array of the secular kernel lives in them: fresh arrays
    that large cost more to allocate than to fill.
    """
    return np.empty((3, max(_CHUNK_BYTES // 16, width)), dtype=complex)


def _view(work, index, count, columns, dtype=complex) -> np.ndarray:
    """A (count x columns) view of work array ``index``."""
    return work[index].view(dtype)[: count * columns].reshape(count, columns)


def _take(table, owner, work, index=2) -> np.ndarray:
    """Rows ``table[owner]`` of a (models x columns) table, gathered into
    work array ``index``; of a one-row table (one model, or one line) that
    row, to broadcast."""
    if table.shape[0] == 1:
        return table[0]
    out = _view(work, index, owner.size, table.shape[1], table.dtype)
    return np.take(table, owner, axis=0, out=out, mode="clip")


def _row_sums(weights, inv, work) -> tuple:
    """``sum w inv``, ``sum w inv^2`` and ``sum w inv^3`` along each row of
    ``inv`` (work array 0), with ``weights`` of its shape or one row to
    broadcast, which may live in work array 2: the three products go to
    work arrays 1 and 2, none formed in place (see :func:`_split_sums`)."""
    terms = np.multiply(weights, inv, out=_view(work, 1, *inv.shape))
    square = np.multiply(terms, inv, out=_view(work, 2, *inv.shape))
    first, second = terms.sum(axis=1), square.sum(axis=1)
    return first, second, np.multiply(square, inv, out=terms).sum(axis=1)


def _split_sums(z, shift, poles, weights, pairs, work, owner) -> tuple:
    """Secular sums at ``z`` with the nearest pole, or pole pair, split off.

    With ``F_k``, ``S_k`` the sums over the other poles, ``F = F_k - v /
    q``: ``q = z + d_k``, ``v = w_k`` for an unpaired pole, ``q = (y +
    iD)(y - iD)``, ``y = z + g``, ``v = 2 w_k y`` for the pair ``g +- iD``.
    Returns ``(F_k, F_k', F_k'', S_k, q, v, q', v', q'')``, finite and
    uncancelled at the pole, ``F_k''`` for the residue of a freezing root
    (``-2 sum w inv^3`` over the unpaired poles, ``12 y sum w inv^2 - 16
    y^3 sum w inv^3`` over the pairs); the poles are laid out as in
    :func:`_aberth_roots`.  Row ``i`` reads the weights
    ``weights[owner_i]`` and ``shift``, one value or one per row; every
    (rows x poles) array lives in ``work`` (:func:`_work_arrays`).  No
    product is formed in place: numpy rounds an in-place complex product
    of one element apart from the same product in a longer array, and a
    row's sums must not depend on its block.  These are the full rows of
    the Aberth steps, O(M) each; a root next to its pole takes local rows
    of the same shape instead (:func:`_local_sums`).
    """
    single = poles.size - pairs
    lone_poles = poles[:single]
    count = z.size
    at = np.arange(count)
    gap = np.add(z[:, None], lone_poles, out=_view(work, 0, count, single))
    dist = np.abs(gap, out=_view(work, 1, count, single, float))
    near = dist.argmin(axis=1)
    q = gap[at, near]
    v = weights[owner, near].astype(complex)
    dq = np.ones(count, dtype=complex)
    dv, ddq = np.zeros(count), np.zeros(count)
    if pairs:
        halves = poles[single:].imag
        y = z + lone_poles[-1].real
        k = _nearest(halves, np.abs(y.imag))
        pair_dist = np.hypot(y.real, np.abs(y.imag) - halves[k])
        split = pair_dist < dist[at, near]
        ys, ws, hs = y[split], weights[owner, single + k][split], 1j * halves[k[split]]
        q[split], v[split] = (ys + hs) * (ys - hs), 2.0 * ws * ys
        dq[split], dv[split], ddq[split] = 2.0 * ys, 2.0 * ws, 2.0
        gap[at[~split], near[~split]] = np.inf
    else:
        gap[at, near] = np.inf
    inv = np.divide(1.0, gap, out=gap)
    first, square, cube = _row_sums(_take(weights[:, :single], owner, work), inv, work)
    f, df, ddf = z + shift - first, 1.0 + square, -2.0 * cube
    rest = inv.sum(axis=1)
    if pairs:
        # 1/(z + d) + 1/(z + conj d) = 2y / (y^2 + D^2), and the squares
        # add up to 4y^2 / (y^2 + D^2)^2 - 2 / (y^2 + D^2); y^2 + D^2
        # cancels only next to a pole, and the nearest pair was split off
        # above in the product form
        inv = np.add((y * y)[:, None], halves**2, out=_view(work, 0, count, pairs))
        inv[at[split], k[split]] = np.inf
        inv = np.divide(1.0, inv, out=inv)
        first, square, cube = _row_sums(_take(weights[:, single:], owner, work), inv, work)
        f -= 2.0 * y * first
        df += 4.0 * y * y * square
        df -= 2.0 * first
        ddf += y * (12.0 * square - 16.0 * y * y * cube)
        rest += 2.0 * y * inv.sum(axis=1)
    return f, df, ddf, rest, q, v, dq, dv, ddq


def _local_sums(z, shift, pole, owner, line, work) -> tuple:
    """``(F_k, F_k', F_k'', q, v)`` at rows ``z`` next to their poles
    ``pole`` (merged indices), row ``i`` on line ``owner_i`` of the stacked
    ``line``, with that pole split off as in :func:`_split_sums`: ``q = t =
    z + d_m`` and ``v = w_m``.

    The ``_NEAR`` poles on each side are summed exactly and the far poles
    by their series ``(-i / unit_m) P(u)``, ``P(u) = sum_k H_k u^k``, ``u
    = i t / unit_m`` (:func:`_moments`), with ``P'`` and ``P''`` by
    Horner: O(K + q) per row.  Of the :class:`_Line` it reads the merged
    ``poles``, padded deltas ``spread`` and ``unit`` that the lines share,
    and their ``padded`` weights and ``moments`` tables, each line's in
    turn (:func:`_solve`); the (rows x neighbours) arrays live in ``work``
    (:func:`_work_arrays`).
    """
    n, near, span = line.unit.size, _NEAR, 2 * _NEAR + 1
    count = z.size
    t = z + line.poles[pole]
    cols = pole[:, None] + np.arange(span)
    around = np.take(line.spread, cols, mode="clip",
                     out=_view(work, 2, count, span, float))
    gap = _view(work, 0, count, span)
    gap.real = t.real[:, None]
    np.subtract(around, around[:, near, None], out=gap.imag)
    gap.imag += t.imag[:, None]
    gap.imag[:, near] = np.inf  # the pole itself is split off
    inv = np.divide(1.0, gap, out=gap)
    cols += (owner * (n + 2 * near))[:, None]  # each line's padded weights in turn
    nearby = np.take(line.padded, cols, mode="clip",
                     out=_view(work, 2, count, span, float))
    own = nearby[:, near].copy()
    near_sum, near_square, near_cube = _row_sums(nearby, inv, work)
    scale = line.unit[pole]
    u = 1j * t / scale
    # P, P' and P'' by Horner in rows of work array 0, the moments of
    # each row's pole (a row of the table) in work array 2
    moments = np.take(line.moments, owner * n + pole, axis=0, mode="clip",
                      out=_view(work, 2, count, _ORDERS, float))
    p, dp, ddp, product, twice = _view(work, 0, 5, count)
    p[:], dp[:], ddp[:] = moments[:, -1], 0.0, 0.0
    for k in range(_ORDERS - 2, -1, -1):
        np.multiply(ddp, u, out=product)
        np.add(product, np.add(dp, dp, out=twice), out=ddp)
        np.multiply(dp, u, out=product)
        np.add(product, p, out=dp)
        np.multiply(p, u, out=product)
        np.add(product, moments[:, k], out=p)
    f = z + shift - near_sum + 1j * p / scale
    df = 1.0 + near_square - dp / scale / scale
    ddf = -2.0 * near_cube - 1j * ddp / scale / scale / scale
    return f, df, ddf, t, own


def _aberth_roots(shifts, seeds, line, line_of, root_pairs=0) -> list:
    """Roots of ``z + shifts_b - sum_m w_lm / (z + d_m)`` from ``seeds[b]``,
    for each model ``b`` of a batch that shares the poles ``d_m`` of the
    stacked :class:`_Line` ``line``, on the line ``l = line_of[b]`` of its
    own (a row of ``line.weights``).

    The poles must be distinct and the weights nonzero; n poles give
    n + 1 roots.  On a mirrored line the iteration folds: it runs on the
    centre pole and the upper half, whose last ``pairs = n // 2`` poles
    stand for themselves and their conjugates, of equal weight; the last
    ``root_pairs`` seeds of each model likewise stand for conjugate
    pairs, and with any pair the other seeds must be real.  The roots of
    all models iterate as one set of rows, each reading only its own
    model's shift, weights and roots, in row sums of unchanged length
    and order, so a model's roots do not depend on its batch; the
    settling floor, the iteration cap and the finite-step check hold per
    model.  The roots replace ``seeds`` in place.  Returns one ``(roots,
    residues)`` per model, views of the model's row of the settled
    tables holding the folded roots only (the caller appends the
    conjugates of the last ``root_pairs``, :func:`_spectra`), each
    residue ``1 / F'`` formed in the row that froze its root, or for a
    model whose roots do not settle the :class:`NumericalError` that
    names why (see :func:`arrowhead_eigenvalues`).

    The last seeds are each at a pole of its own, the last ``pairs``
    poles on a fold, every pole otherwise (:func:`_job`); the others are
    collective.  A pole-seeded root within its pole's reach
    (:func:`_moments`) takes Newton rows on the pole's local function
    (:func:`_local_sums`); a root whose step is not finite or leaves the
    reach takes Aberth rows (:func:`_split_sums`) from then on, as every
    other root does.  One model is a batch of one, whose one-row tables
    broadcast (:func:`_take`).
    """
    models, size = seeds.shape
    n = line.poles.size
    if n == 0:
        return list(zip(seeds, np.ones_like(seeds)))
    # the fold's pole pairs, and the count of last seeds that sit each at a
    # pole: the poles above the centre on a fold, every pole otherwise
    pairs, seeded = (n // 2, n // 2) if line.mirrored else (0, n)
    pole_of = np.concatenate([np.full(size - seeded, -1), np.arange(n - seeded, n)])
    poles, weights, reach = line.poles[pairs:], line.weights[:, pairs:], line.reach
    table = seeds  # (models x roots), settled in place
    roots = table.reshape(-1)
    lone = size - root_pairs
    mirrored = pairs + root_pairs > 0
    floor = np.maximum(np.abs(shifts), np.abs(poles).max())
    tol = 4.0 * np.finfo(float).eps
    width = max(poles.size, size)
    work = _work_arrays(width)
    residues = np.empty(roots.size, dtype=complex)

    # whether each root's next row is a local one, else a full Aberth row
    near_pole = np.zeros((models, size), dtype=bool)
    ends = slice(size - seeded, size)
    at = pole_of[ends]
    for block in _row_blocks(models, seeded):
        near_pole[block, ends] = np.abs(table[block, ends] + line.poles[at]) < reach[at]
    near_pole = near_pole.reshape(-1)
    # why each model failed: 0 it did not, 1 a step not finite, 2 the cap
    failed = np.zeros(models, dtype=np.int8)
    active = np.arange(roots.size)
    for _ in range(_ABERTH_MAX_ITER):
        steps = np.empty(active.size, dtype=complex)
        moving = np.empty(active.size, dtype=bool)  # still moving after the row
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            partner = table[:, lone:]
            partner_real, partner_square = partner.real, partner.imag**2
            for near in (False, True):
                part = np.flatnonzero(near_pole[active] == near)
                for block in _row_blocks(part.size, _ORDERS if near else width):
                    here = part[block]
                    who, rows = np.divmod(active[here], size)
                    z = roots[active[here]]
                    shift, owner = shifts[who], line_of[who]
                    if near:
                        pole = pole_of[rows]
                        f, df, ddf, q, v = _local_sums(z, shift, pole, owner, line, work)
                        dq, dv, ddq = 1.0, 0.0, 0.0
                    else:
                        # P'/P = G'/G + S_k for P = F prod_m (z + d_m), G = F_k q - v
                        f, df, ddf, rest, q, v, dq, dv, ddq = _split_sums(
                            z, shift, poles, weights, pairs, work, owner)
                    own = rows < lone
                    num, den = df * q + f * dq - dv, f * q - v
                    slope = num
                    if not near:
                        count = rows.size
                        at = np.arange(count)
                        diff = np.subtract(z[:, None],
                                           _take(table[:, :lone], who, work, 0),
                                           out=_view(work, 0, count, lone))
                        diff[at[own], rows[own]] = np.inf
                        rest -= np.divide(1.0, diff, out=diff).sum(axis=1)
                        if root_pairs:
                            # 1/(z - a) + 1/(z - conj a) = 2x / (x^2 + Im(a)^2)
                            # with x = z - Re(a); a paired root keeps its own
                            # conjugate
                            x = np.subtract(z[:, None], _take(partner_real, who, work),
                                            out=_view(work, 0, count, root_pairs))
                            quad = np.multiply(x, x,
                                               out=_view(work, 1, count, root_pairs))
                            quad += _take(partner_square, who, work)
                            quad[at[~own], rows[~own] - lone] = np.inf
                            x += x
                            rest -= np.divide(x, quad, out=x).sum(axis=1)
                            rest[~own] -= 0.5 / (1j * z[~own].imag)
                        # 1 / (P'/P - sum_j 1/(z_i - z_j))
                        slope = num + den * rest
                    # zero at an exact root, even one that another iterate
                    # or a double root shares, where the slope is not finite
                    step = np.divide(den, slope, out=np.zeros_like(den),
                                     where=den != 0.0)
                    if mirrored:
                        # the unpaired roots of a mirrored problem are real, and
                        # so are their steps but for rounding, which would pull
                        # them off
                        step[own] = step[own].real
                    stepped = z - step
                    length = np.abs(step)
                    scale = np.maximum(np.abs(stepped), floor[who])
                    leaves = False
                    if near:
                        # a root that leaves its pole's reach, or whose step is
                        # not finite, stays put and takes full rows from now on
                        leaves = ~(np.abs(q - step) < reach[pole])
                        step[leaves] = 0.0
                        near_pole[active[here[leaves]]] = False
                    steps[here] = step
                    # the root's condition |r_k| = |q / G'| widens its freeze
                    # up to 2^26 of rounding: a near-double root is known to
                    # about the square root of it
                    cond = np.fmin(np.fmax(np.abs(q / num), 1.0), 2.0**26)
                    moving[here] = leaves | (length > tol * scale * cond)
                    # 1 / F' = q^2 / (F_k' q^2 - (v' q - v q')) at the stepped
                    # root, a move h = z - stepped away: q and v are exact
                    # there, F_k' - h F_k'' is to first order in h, and the
                    # row that freezes a root leaves its residue
                    h = z - stepped
                    qh, dqh = q - h * (dq - 0.5 * h * ddq), dq - h * ddq
                    residues[active[here]] = qh * qh / (
                        (df - h * ddf) * qh * qh - (dv * qh - (v - h * dv) * dqh))
        bad = ~np.isfinite(steps)
        if bad.any():
            # a step that is not finite fails its model; the others go on
            failed[active[bad] // size] = 1
            keep = failed[active // size] == 0
            active, steps, moving = active[keep], steps[keep], moving[keep]
        roots[active] -= steps
        active = active[moving]
        if active.size == 0:
            break
    else:
        failed[active // size] = 2
    why = (None, "a secular iteration step is not finite", "secular roots still "
           f"moving at the cap of {_ABERTH_MAX_ITER} iterations")
    return [NumericalError(why[code]) if code else settled
            for code, settled in zip(failed, zip(table, residues.reshape(models, size)))]


def _nearest(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the entry of the increasing ``values`` nearest each target."""
    upper = np.minimum(np.searchsorted(values, targets), values.size - 1)
    lower = np.maximum(upper - 1, 0)
    return np.where(targets - values[lower] <= values[upper] - targets, lower, upper)


def arrowhead_spectra(models) -> list:
    """The eigenvalues of each model, as :func:`arrowhead_eigenvalues`
    gives them.

    The models' secular iterations run as one batch per group of models
    whose merged poles agree to the bit and whose iterations have one
    layout (every point of a sweep over ``g_ens`` and ``kappa``), with
    each model's roots bit-equal to its own solve; a model that fails in
    its batch retries its other layout in a batch of the failed ones.
    The set-up each model reads of its line, the merged poles, their
    far-pole moments and the dressing sums of its seeds, is formed once
    per distinct line in the call (:func:`_line`), so a sweep sets up one
    line per ``g_ens``.
    Each model's spectrum is kept while the model lives, so its later
    paths, and later calls, read it and only models with no spectrum yet
    are solved.
    """
    return [spectrum.lam for spectrum in _spectra(models)]


def arrowhead_eigenvalues(model: DriftModel) -> np.ndarray:
    """Eigenvalues of the arrowhead matrix.

    They are the roots of ``F(lambda) = lambda + c - sum_m w_m / (lambda
    + d_m)``, ``c = kappa + i delta_cs``, ``w_m = p g_m^2 N_m``,
    ``d_m = gamma_perp + i Delta_m``.  A decoupled sub-ensemble keeps
    ``-d_m``, and k sub-ensembles on one pole keep k - 1 roots ``-d_m``
    and enter ``F`` as one pole of summed weight (deflation; Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)).  These roots
    come first, each with residue 0, as its mode has no field component.
    The other roots come from the Aberth-Ehrlich iteration (Aberth, Math. Comp. 27,
    339 (1973); Bini & Robol, J. Comput. Appl. Math. 272, 276 (2014)) on
    ``P = F prod_m (lambda + d_m)``, all roots at once, with the pole
    nearest each iterate split off (:func:`_split_sums`) so ``P'/P``
    stays finite and uncancelled there.  Each root starts as a small
    offset from its pole, the root of the pole's quadratic problem in
    which every other pole dresses the cavity with its value and slope
    at the pole (:func:`_seeds`), so strongly coupled lines settle in a
    few iterations too.  Such a root, while within its pole's reach (the
    lesser of a tenth of the distance to the pole's (q+1)-th neighbour and
    half a unit of the local node spacing, :func:`_moments`), iterates with
    Newton rows on the pole's local function: the pole itself, its ``q =
    _NEAR`` neighbours on each side and a ``_ORDERS``-term series of the
    far poles in the offset ``t = lambda + d_m``, whose moments each line
    forms once by FFT convolutions on a lattice of
    :func:`~spincavity.broadening.discretize`, told from its deltas, or
    by direct row sums (Livne & Brandt, SIAM J. Matrix Anal. Appl. 24,
    439 (2002)): O(K + q) per row (:func:`_local_sums`).  Every other
    root, the collective ones, one that leaves its reach or whose local
    step is not finite, and all roots of a line of fewer than ``2 q +
    2`` poles, takes Aberth rows of O(M) sums.
    A root is frozen once its step is at most ``4 eps max(|lambda_i|,
    |c|, max_m |d_m|) min(max(1, |r_i|), 2^26)``, ``|r_i| ~ |q / G'|`` its
    condition (Bini & Robol); the absolute floor stops roots near the
    band centre, which jitter at the rounding level of ``F``, and the
    condition stops roots that merge at an exceptional point, known
    there to about the square root of the rounding error.  Rows run in
    blocks of ``_CHUNK_BYTES``.  The row that freezes a root also forms
    its residue ``1 / F'`` at the stepped root, from ``F_k'`` and
    ``F_k''`` of that row (a local row's from the same series), to first
    order in the step (the value before the step moved the kicked field
    by up to 2e-12 of the kick).  A pole-seeded root takes under 0.2 full
    rows on the benchmark's lines, and the solve grows about as M^0.64 up
    to M = 10001 on a discretized Gaussian line.

    On a mirrored line (``delta_cs = 0``, coupled poles and weights
    mirror-symmetric to the bit, an odd count: every
    :func:`~spincavity.broadening.discretize` grid) the roots are real or
    conjugate pairs, and the iteration runs on the real roots and one of
    each pair, mirrored pole and root pairs summed in closed form
    (``1/(y + iD) + 1/(y - iD) = 2y / (y^2 + D^2)``), seeded by
    :func:`_collective_seeds`.  An iteration fails on a step that is not
    finite or a root still moving after ``_ABERTH_MAX_ITER`` iterations;
    a folded one then runs once more with the other layout of its
    collective pair.  A model whose iteration still fails raises
    :class:`NumericalError` naming the cause.  With their conjugates the eigenvalues are the
    spectrum of the real drift, read-only and found once per model.
    This is the one-model case of :func:`arrowhead_spectra`.
    """
    return arrowhead_spectra([model])[0]


class _Line(NamedTuple):
    """The part of a secular iteration that a line's models share: :func:`_line`.

    A batch of :func:`_solve` reads one, its lines' ``weights`` stacked one
    row per line, and their ``padded`` weights and ``moments`` tables each
    line's in turn (:func:`_aberth_roots`)."""

    poles: np.ndarray
    weights: np.ndarray
    deflated: np.ndarray
    mirrored: bool
    spread: np.ndarray
    padded: np.ndarray
    dressing: tuple
    moments: np.ndarray
    unit: np.ndarray
    reach: np.ndarray


def _line(poles: np.ndarray, weights: np.ndarray, real_shift: bool) -> _Line:
    """The coupled poles merged, with their summed weights, the deflated
    poles (see :func:`arrowhead_eigenvalues`), whether the line is
    mirrored (a ``real_shift`` and :func:`_mirrored` merged poles), the
    merged deltas padded with ``_NEAR`` infinities on each side and their
    weights with ``_NEAR`` zeros, the far-pole moments of the merged poles
    with their units and reach (:func:`_moments`) and the dressing sums of
    their seeds (:func:`_dressing`): everything a model's secular iteration
    needs but its cavity shift, and all that a batch of :func:`_solve`
    reads of its lines.

    A mirrored line's iteration seeds only the centre pole and the upper
    half (:func:`_job`), so it keeps only their dressing, the centre's at
    ``T = U = 0``: ``T`` is odd there, and with no ``U`` its seed stays
    first-order (see :func:`_collective_seeds`)."""
    coupled = weights != 0.0
    merged, first, index = np.unique(poles[coupled], return_index=True,
                                     return_inverse=True)
    merged_weights = np.zeros(merged.size)
    np.add.at(merged_weights, index, weights[coupled])
    deflated = np.concatenate([poles[~coupled], np.delete(poles[coupled], first)])
    mirrored = real_shift and _mirrored(merged, merged_weights)
    pad, none = np.full(_NEAR, np.inf), np.zeros(_NEAR)
    spread = np.concatenate([-pad, merged.imag, pad])
    padded = np.concatenate([none, merged_weights, none])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        table, unit, reach = _moments(merged.imag, merged_weights)
        sums, slopes = _dressing(spread, padded, table, unit)
    if mirrored:
        sums, slopes = sums[merged.size // 2:], slopes[merged.size // 2:]
        sums[0] = slopes[0] = 0.0
    return _Line(merged, merged_weights, deflated, mirrored, spread, padded,
                 (sums, slopes), table, unit, reach)


def _job(shift: complex, line: _Line, layout: int = 0) -> tuple:
    """``(seeds, root_pairs)`` of the secular iteration of a model with
    cavity shift ``shift`` on ``line``: the arguments of
    :func:`_aberth_roots` that its line does not hold.

    An unmirrored line seeds the cavity root, then every pole
    (:func:`_seeds`).  A mirrored line folds onto its centre pole and upper
    half, with the ``layout``-th of the two layouts of its collective pair,
    the likelier first (:func:`_collective_seeds`), then one seed of each
    pole pair; the last ``root_pairs`` seeds stand for conjugate pairs.
    """
    if not line.mirrored:
        return _seeds(shift, line.poles, line.weights, line.dressing), 0
    # np.unique sorts the poles, which share one real part, by Delta
    half = line.poles.size // 2
    upper, upper_weights = line.poles[half:], line.weights[half:]
    seeds = _seeds(shift, upper, upper_weights, line.dressing)
    collective = _collective_seeds(shift.real, upper, upper_weights, seeds[1])[layout]
    paired = seeds[2:]
    if collective.size == 1:  # a conjugate pair
        collective, paired = seeds[:0], np.concatenate([collective, paired])
    return np.concatenate([collective, paired]), paired.size


def _solve(models, layout: int = 0) -> list:
    """``[deflated poles, mirrored, root pairs, roots and residues or the
    error]`` of each model's secular iteration (:func:`_job`), in one batch
    of :func:`_aberth_roots` per group of models with bit-equal merged
    poles, one fold and one layout.  Models whose poles and weights agree
    to the bit, and whose cavity shifts are all real or all not, share one
    :func:`_line` within the call, as the points of a sweep at one
    ``g_ens`` do; nothing of it outlives the call.

    A batch reads its first line with each of its lines' weights, padded
    weights and moment tables stacked in, one row per line (:class:`_Line`,
    :func:`_aberth_roots`), handed to the iteration as a plain argument;
    its roots and residues come back as views of the batch's settled
    tables, folded roots only."""
    out, groups, lines = [], {}, {}
    for model in models:
        poles, weights = _secular_terms(model)
        shift = complex(model.params.kappa, model.params.delta_cs)
        key = (poles.tobytes(), weights.tobytes(), shift.imag == 0.0)
        if key not in lines:
            lines[key] = _line(poles, weights, key[2])
        line = lines[key]
        seeds, root_pairs = _job(shift, line, layout)
        groups.setdefault((line.poles.tobytes(), line.mirrored, root_pairs),
                          []).append((len(out), shift, seeds, line))
        out.append([line.deflated, line.mirrored, root_pairs, None])
    lines = line = seeds = None  # each line lives on in its group alone
    while groups:
        (_, _, root_pairs), group = groups.popitem()
        index, shifts, seeds, batch = zip(*group)
        # the stacked rows replace the models' own before the batch iterates
        shifts, seeds, group = np.array(shifts), np.array(seeds), None
        _, first, line_of = np.unique([id(line) for line in batch], return_index=True,
                                      return_inverse=True)
        batch = [batch[k] for k in first]  # each line once
        stacked = batch[0]._replace(
            weights=np.array([line.weights for line in batch]),
            padded=np.concatenate([line.padded for line in batch]),
            moments=np.concatenate([line.moments for line in batch]))
        batch = None
        found = _aberth_roots(shifts, seeds, stacked, line_of, root_pairs=root_pairs)
        for i, result in zip(index, found):
            out[i][3] = result
    return out


class _Spectrum(NamedTuple):
    """The arrowhead spectrum of one model: :func:`_spectra`, read-only.

    The roots ``-d_m`` of the deflated poles come first, each with
    residue 0: its mode has no field component.  The last ``pairs`` roots
    and residues are the conjugates of the ``pairs`` before them, as a
    folded iteration found them; ``pairs`` is the fold's count of root
    pairs, 0 unless the model's iteration folded, whether or not its
    residues passed their gate (``residues`` is then ``None``).
    """

    lam: np.ndarray
    residues: np.ndarray | None
    pairs: int


def _spectra(models) -> list:
    """Each model's :class:`_Spectrum`, kept read-only while the model
    lives, so every path on one model shares one record.

    Models with no record run their first iterations batched
    (:func:`_solve`; none when every model has one), then, for each
    mirrored line whose iteration
    failed, one with the other layout of its collective pair: a real seed
    stays real on a mirrored line, so no iteration can repair a wrong
    layout.  A model that fails both raises the :class:`NumericalError`
    of its last iteration.  It is the one writer of the record's layout:
    one concatenation each of the roots and the residues puts the
    deflated roots ``-d_m`` first, then the folded roots, then the
    conjugates of their last ``pairs``.  The residues ``r_k = 1 /
    F'(lambda_k)`` come from the secular solve, 0 at a deflated pole.
    They are ``None`` unless ``sum_k |r_k| <= _RESIDUE_BOUND`` and
    ``|sum_k r_k - 1| <= 1e-10`` (see :func:`field_kick_response`).
    """
    missing = list(dict.fromkeys(model for model in models if model not in _MEMO))
    first = _solve(missing)
    again = iter(_solve([model for model, (_, mirrored, _, found) in zip(missing, first)
                         if mirrored and isinstance(found, NumericalError)], layout=1))
    for model, (deflated, mirrored, pairs, result) in zip(missing, first):
        if mirrored and isinstance(result, NumericalError):
            _, _, pairs, result = next(again)
        if isinstance(result, NumericalError):
            raise result
        roots, residues = result
        lone = roots.size - pairs
        lam = np.concatenate([-deflated, roots, roots[lone:].conjugate()])
        residues = np.concatenate([np.zeros(deflated.size), residues,
                                   residues[lone:].conjugate()])
        with np.errstate(invalid="ignore", over="ignore"):
            gated = (np.abs(residues).sum() <= _RESIDUE_BOUND
                     and abs(residues.sum() - 1.0) <= 1e-10)
        for array in (lam, residues):
            array.flags.writeable = False
        _MEMO[model] = _Spectrum(lam, residues if gated else None, pairs)
    return [_MEMO[model] for model in models]


def _spectrum(model: DriftModel) -> _Spectrum:
    """The model's spectrum (:func:`_spectra`)."""
    return _spectra([model])[0]


def spectral_abscissa(model: DriftModel) -> float:
    """Largest real part over the drift-matrix spectrum."""
    return float(arrowhead_eigenvalues(model).real.max())


def field_kick_response(model: DriftModel, times) -> tuple:
    """Kicked cavity field ``a(t) / a(0)`` from the arrowhead spectrum.

    After a field kick ``a(t) / a(0) = [e^{H t}]_00 = sum_k r_k
    e^{lambda_k t}``, the partial fractions of ``1 / F``
    (:func:`arrowhead_eigenvalues`), with ``e^{lambda_k t}`` from
    :func:`_growth_blocks`.  A folded spectrum (``pairs`` of
    :class:`_Spectrum`, a mirrored line) sums only its first ``K -
    pairs`` roots, each paired one with twice its residue, and keeps the
    real part, as a conjugate pair adds ``2 Re(r_k e^{lambda_k t})``:
    about half the exponentials and products.  The residues add up to 1
    from terms as large as ``|r_k|``: near an exceptional point they
    blow up with opposite signs and leave an error near ``eps (sum_k
    |r_k|)^2`` (1e-13, 1e-12 and 2e-10 of the kick at ``sum_k |r_k|`` =
    22, 70 and 700 next to the homogeneous double root).  So the
    expansion is used only while the residues pass their gate
    (:func:`_spectra`: ``sum_k |r_k| <= 100``, and ``sum_k r_k = 1`` to
    1e-10); otherwise the field is propagated by the dense steps of
    :func:`evolve_mean`'s fallback (:func:`_dense_steps`), of which it keeps
    only the field, O(T) stored however large M.
    A deflated pole's root adds nothing, its residue 0: with ``g_ens =
    0`` the field is the cavity's own ``e^{-(kappa + i delta_cs) t}``.
    Returns ``(response, fallback)``, ``fallback`` telling whether it
    was; a NaN on either path, or an ``e^{lambda t}`` past the float
    range, raises :class:`NumericalError`.
    """
    times = _validate_times(times)
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    lam, residues, pairs = _spectrum(model)
    if residues is not None:
        folded = lam.size - pairs
        coefs = residues[:folded].copy()
        coefs[folded - pairs:] *= 2.0
        response = np.empty(times.size, dtype=complex)
        for block, growth in _growth_blocks(times, lam[:folded]):
            response[block] = growth @ coefs
        if pairs:
            response.imag = 0.0
        return _finite(response, "the residue expansion of the kicked field",
                       times), False
    kick = np.eye(1, model.grid.size + 1, dtype=complex)[0]  # a(0) = 1
    response = np.ones(times.size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # left to _finite
        for k, (real, imag) in enumerate(_dense_steps(model, kick, times), start=1):
            response[k] = complex(real[0], imag[0])
    return _finite(response, "the field by the dense fallback (e^{H h} steps)", times), True


def _signs(size: int) -> np.ndarray:
    """Sign of the second quadrature in each amplitude: ``s_m = S_x - i S_y``."""
    signs = -np.ones(size)
    signs[0] = 1.0
    return signs


def _from_amplitudes(amp: np.ndarray) -> np.ndarray:
    """Real ``gamma`` of a Hermitian ``C`` with no anomalous part."""
    signs = _signs(amp.shape[0])
    half = amp / 2.0
    gamma = np.empty((2 * amp.shape[0],) * 2)
    gamma[0::2, 0::2] = half.real
    gamma[1::2, 1::2] = signs[:, None] * half.real * signs
    gamma[1::2, 0::2] = signs[:, None] * half.imag
    gamma[0::2, 1::2] = -half.imag * signs
    return (gamma + gamma.T) / 2.0


def _noise(model: DriftModel) -> np.ndarray:
    """Diagonal of the amplitude noise ``D = T N T^H``."""
    return model.noise_diag[0::2] + model.noise_diag[1::2]


def _balance(model: DriftModel) -> np.ndarray:
    """Amplitude scales, 1 for the field and ``1 / sqrt(N_m)`` for the spins,
    that bring couplings (``sqrt(N)`` to ``1 / sqrt(N)``) and variances
    (``1`` to ``N``) to order one."""
    spins = model.grid.spins
    return np.concatenate(([1.0], 1.0 / np.sqrt(np.where(spins > 0.0, spins, 1.0))))


def _balanced(model: DriftModel) -> tuple:
    """``(scale, S H S^-1)``: the scales ``S`` of :func:`_balance` and the
    arrowhead balanced by them, in which every dense path steps and solves
    (the mean and Van Loan steps, Bartels-Stewart), or
    :class:`PreconditionError` past the budget of :func:`_check_dense`.

    Unscaled, the couplings span ``sqrt(N)`` to ``1 / sqrt(N)``: at N =
    1e11 Bartels-Stewart returns a negative field variance that passes
    the residual, at N = 1e-307 Van Loan steps subnormal spin entries,
    and at N = 1e-300 unscaled mean steps miss ``S_x`` by 6e26 of
    ``S_x(0)``.  A balanced amplitude vector is ``scale * z``, a balanced
    ``X`` is ``scale * X * scale`` (diagonal) or ``scale[:, None] * X *
    scale``, one scale after the other, as at N_m = 1e-300 their product
    overflows, and each is unscaled likewise."""
    _check_dense(model)
    scale = _balance(model)
    return scale, scale[:, None] * model.arrowhead / scale


class _Steady(NamedTuple):
    """A steady amplitude covariance ``C`` that passed :func:`_lyapunov_check`."""

    sums: np.ndarray  # _sums of C, as the track adds them
    residual: float  # largest residual part or its rounding level, unscaled
    field: np.ndarray  # the field row C[0]
    rows: Callable  # a slice of spin rows -> those rows of C

    def matrix(self) -> np.ndarray:
        """The dense ``C``."""
        return np.vstack([self.field, self.rows(slice(0, self.field.size - 1))])


def _folding(model: DriftModel, start=None) -> tuple:
    """``(rows, rho)``: row blocks of ``C~_inf``, or of ``C~_0 - C~_inf``.

    ``C~_inf,kl = -D~_kl / (lambda_k + conj(lambda_l))``, ``D~ = left D
    left^H``, ``C~_0 = left C_0 left^H`` for the amplitude diagonal
    ``start``.  As ``u_k = r_k (1, b_m / (lambda_k + d_m))`` and the poles
    share one real part, partial fractions fold ``left X left^H`` for a
    diagonal ``X`` into ``r_k conj(r_l) [X_0 + (s_k + conj(s_l)) / (y_k +
    conj(y_l))]``, ``y = lambda + gamma_perp``, ``s = sum_m X_m |b_m|^2 /
    (lambda + d_m)``: O(1) per entry after one O(M^2) pass, which also
    gives the spin sums ``rho_k = sum_m c_m / (lambda_k + d_m)`` of
    ``v_k``.  On the diagonal every term of ``s_k + conj(s_k)`` carries
    the ``Re y_k`` of the denominator, so the fold stays accurate however
    small it is; a pair mirrored about the line of poles (``|y_k +
    conj(y_l)|`` below 2^-20 of the spectral scale, or ``Re y_k = 0``) is
    summed directly.
    """
    spectrum = _spectrum(model)
    lam, residues = spectrum.lam, spectrum.residues
    poles = _secular_terms(model)[0]
    _, row, col = model._arrowhead_border()
    noise = _noise(model)
    values = np.array([noise[1:]] + ([] if start is None else [start[1:]]))
    values *= np.abs(row) ** 2
    *sums, rho = _pole_sums(lam, poles, np.vstack([values, col]))
    shifted = lam + model.params.gamma_perp
    near = 2.0**-20 * (np.abs(shifted).max() + np.abs(poles.imag).max())

    def rows(block):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pair = np.add.outer(shifted[block], shifted.conj())
            lyapunov = np.add.outer(lam[block], lam.conj())
            k, l = np.nonzero(np.abs(pair) < near)  # the mirrored pairs
            keep = (k + block.start != l) | (shifted.real[l] == 0.0)
            k, l = k[keep], l[keep]
            out = np.add.outer(sums[0][block], sums[0].conj()) + noise[0] * pair
            if start is not None:
                out += np.add.outer(sums[1][block], sums[1].conj()) * lyapunov
            out /= np.multiply(pair, lyapunov, out=pair)
            direct = _cauchy(lam[block][k], poles) * _cauchy(lam[l], poles).conj()
            direct = values @ direct.T
            out[k, l] = (noise[0] + direct[0]) / lyapunov[k, l]
            if start is not None:
                out[k, l] += direct[1]
                out += start[0]
            sign = 1.0 if start is not None else -1.0
            out *= np.multiply.outer(sign * residues[block], residues.conj())
        return out

    return rows, rho


def _spectral_steady(model: DriftModel) -> _Steady | None:
    """Steady covariance from the roots and residues, or ``None``.

    Row blocks of ``C~_inf`` (:func:`_folding`) give ``f = 1^T C~_inf``
    and ``rho^T C~_inf conj(rho)``.  ``C = right C~_inf right^H`` is
    never multiplied out: ``C_00 = sum_l f_l``, ``C_0n = conj(c_n)
    sum_l f_l / (conj(lambda_l) + conj(d_n))``, and the Lyapunov equation
    gives the spin block, ``C_mn = (c_m C_0n + C_m0 conj(c_n) + D_m
    delta_mn) / (d_m + conj(d_n))``.  At ``gamma_perp = 0`` the
    denominator and ``D_m`` vanish on the diagonal; there, as the
    residues of ``1 / ((lambda + d_m)(lambda + conj(lambda_l)) F)`` sum
    to zero, ``C_mm = -D_0 |c_m|^2 sum_l conj(r_l) / ((conj(lambda_l) -
    d_m)^2 F(-conj(lambda_l)))``.  ``None`` unless the spectrum passes
    the gates of :func:`evolve_mean`, ``C`` passes
    :func:`_lyapunov_check`, and the sums of ``C`` the track adds
    (:func:`_sums`) match ``1^T C~_inf 1``, ``rho^T C~_inf conj(rho)``
    and ``f conj(rho)`` within its bound, carried to each sum by
    :func:`_balance`.  ``residual`` is the larger of the measured one
    and its rounding level ``eps ||H|| ||C_inf||``, which near threshold
    the measured one can fall far below (1e-13 of the noise at N = 1e5,
    C = 1 - 1e-9, where the track loses 7e-8).
    """
    spectrum = _spectrum(model)
    if spectrum.residues is None:
        return None
    lam, residues = spectrum.lam, spectrum.residues
    poles, weights = _secular_terms(model)
    _, _, col = model._arrowhead_border()
    noise, scale = _noise(model), _balance(model)
    undamped = model.params.gamma_perp == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tilde_rows, rho = _folding(model)
        total, spins = np.zeros(lam.size, dtype=complex), 0.0
        for block in _row_blocks(lam.size, lam.size):
            tilde = tilde_rows(block)
            total += tilde.sum(axis=0)
            spins += rho[block] @ (tilde @ rho.conj())
        field = np.concatenate([
            [total.sum().real], (col * _pole_sums(poles, lam, total.conj())).conj()
        ])
        if undamped:
            at = -lam.conj()
            shift = complex(model.params.kappa, model.params.delta_cs)
            own = residues.conj() / (at + shift - _pole_sums(at, poles, weights))
            own = -noise[0] * np.abs(col) ** 2 * _pole_sums(-poles, -at, own, True)

        def rows(block):
            """Spin rows ``block`` of ``C``, from its field row."""
            out = np.empty((block.stop - block.start, field.size), dtype=complex)
            out[:, 0] = field[1:][block].conj()
            num = np.multiply.outer(col[block], field[1:])
            num += np.multiply.outer(out[:, 0], col.conj())
            den = np.add.outer(poles[block], poles.conj())
            diagonal = np.arange(num.shape[0]), np.arange(block.start, block.stop)
            num[diagonal] += noise[1:][block]
            if undamped:
                num[diagonal], den[diagonal] = own[block].real, 1.0
            np.divide(num, den, out=out[:, 1:])
            return out

        worst, bound, unscaled, sums = _lyapunov_check(model, field, rows)
        folded = [field[0].real, spins.real, (total @ rho.conj()).imag]
    spread = (1.0 / scale[1:]).sum()
    if not (worst <= bound and np.all(
        np.abs(sums - folded) <= bound * np.array([1.0, spread**2, spread])
    )):
        return None
    # bound / _LYAPUNOV_RTOL is ||H|| ||C|| + ||D||, balanced
    floor = np.abs(scale * noise * scale).max()
    rounding = np.finfo(float).eps * (bound / _LYAPUNOV_RTOL - floor) / floor
    residual = max(unscaled / 2.0, rounding * model.noise_diag.max())
    return _Steady(sums, residual, field, rows)


def _lyapunov_check(model: DriftModel, field, rows, out=None) -> tuple:
    """Residual ``R = H C + C H^H + D`` of a steady ``C``, in O(M^2).

    ``C`` is its field row ``field`` and ``rows(slice)`` of spin rows;
    every entry of ``R`` is formed, a row block at a time, into ``out``
    when given.  Returns the largest entry of ``R`` and the bound
    ``_LYAPUNOV_RTOL (||H|| ||C|| + ||D||)`` (infinity norm, largest
    entries), both balanced (:func:`_balance`); the largest part of ``R``,
    unscaled; and :func:`_sums` of ``C``.  ``C`` passes when the first is
    at most the second: near threshold ``C`` and the rounding of ``H C``
    grow as ``1 / (1 - C)``, and a bound on ``D`` alone fails there.
    """
    noise = _noise(model)
    diag, row, col = model._arrowhead_border()
    scale = _balance(model)
    # infinity norm of the balanced arrowhead, scale H / scale
    norm = max(abs(diag[0]) + np.abs(row / scale[1:]).sum(),
               (np.abs(diag[1:]) + np.abs(col * scale[1:])).max())

    def sizes(at, residual, amp):
        """Balanced largest entries of ``R`` and ``C``, and unscaled ``R``."""
        rows = scale[at, None]  # one scale after the other: their product overflows
        return (np.abs(rows * (residual * scale)).max(), np.abs(rows * (amp * scale)).max(),
                np.abs(residual.view(float)).max())

    top = diag[0] * field  # the field row of H C, less the spin rows' part
    stats, spins = [], 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for block in _row_blocks(diag.size - 1, diag.size):
            amp, at = rows(block), np.arange(block.start, block.stop) + 1
            top += row[block] @ amp
            residual = diag[at, None] * amp + np.multiply.outer(col[block], field)
            residual[:, 0] += amp[:, 0] * diag[0].conj() + amp[:, 1:] @ row.conj()
            residual[:, 1:] += np.multiply.outer(amp[:, 0], col.conj())
            residual[:, 1:] += amp[:, 1:] * diag[1:].conj()
            residual[at - at[0], at] += noise[at]
            stats.append(sizes(at, residual, amp))
            spins += amp[:, 1:].sum().real
            if out is not None:
                out[at] = residual
        top[0] += field[0] * diag[0].conj() + field[1:] @ row.conj() + noise[0]
        top[1:] += field[0] * col.conj() + field[1:] * diag[1:].conj()
        stats.append(sizes([0], top[None], field[None]))
    if out is not None:
        out[0] = top
    worst, peak, unscaled = np.max(stats, axis=0)
    bound = _LYAPUNOV_RTOL * (norm * peak + np.abs(scale * noise * scale).max())
    sums = np.array([field[0].real, spins, field[1:].sum().imag])
    return worst, bound, unscaled, sums


def _spectral_covariance(model, times, steady, amp0, store_full) -> tuple:
    """Variance track, and optionally the matrices, from the roots and residues.

    ``C(t) = C_inf + right e^{Lambda t} diff e^{Lambda^H t} right^H`` with
    ``diff = C~_0 - C~_inf`` (:func:`_folding`).  The track needs
    ``C_00``, ``1^T C_ss 1`` and ``C_0s 1``: the forms ``x diff y^H`` of
    ``x = e^{lambda t}`` and ``y = rho e^{lambda t}``, one (T x K)(K x
    rows) product per row block of ``diff`` for all three, over blocks of
    times up to ``_DENSE_BYTE_BUDGET``.  ``C_inf`` enters through
    ``steady.sums``, as in the steady values.
    """
    lam = _spectrum(model).lam
    diff, rho = _folding(model, amp0)
    forms = np.zeros((times.size, 3), dtype=complex)
    for block, growth in _growth_blocks(times, lam, _DENSE_BYTE_BUDGET):
        back = growth.conj()
        for rows in _row_blocks(lam.size, lam.size):
            part = diff(rows)
            count = part.shape[0]
            x = growth[:, rows]
            with np.errstate(over="ignore", invalid="ignore"):  # left to _finite
                product = back @ np.concatenate([part, part * rho.conj()]).T
                forms[block, 0] += (x * product[:, :count]).sum(axis=1)
                forms[block, 1] += (x * rho[rows] * product[:, count:]).sum(axis=1)
                forms[block, 2] += (x * product[:, count:]).sum(axis=1)
    covs = None
    if store_full:
        poles, (_, _, col) = _secular_terms(model)[0], model._arrowhead_border()
        right = np.vstack([np.ones(lam.size), col[:, None] * _cauchy(poles, lam)])
        full, amp_inf = diff(slice(0, lam.size)), steady.matrix()
        covs = np.empty((times.size, 2 * lam.size, 2 * lam.size))
        for k, t in enumerate(times):
            grown = right * np.exp(lam * t)
            covs[k] = _from_amplitudes(amp_inf + grown @ full @ grown.conj().T)
    sums = np.column_stack([forms.real[:, :2], forms.imag[:, 2]]) + steady.sums
    return _track(sums), covs


def steady_state_covariance(model: DriftModel) -> np.ndarray:
    """Solve the algebraic Lyapunov equation of a stable model.

    ``C_inf`` comes from the roots and residues, checked entry by entry
    in O(M^2) (:func:`_spectral_steady`), or else from Bartels-Stewart
    (:func:`scipy.linalg.solve_continuous_lyapunov`) on the balanced
    ``H`` within :func:`_check_dense`, made Hermitian and checked the
    same way, with one refinement pass.  Returns the real ``gamma``, a
    dense array held to :func:`_check_dense`.
    """
    _check_dense(model)
    return _from_amplitudes(_steady_state(model, _spectral_steady(model))[0].matrix())


def _steady_state(model: DriftModel, steady: _Steady | None) -> tuple:
    """``steady``, or else the Bartels-Stewart steady state, and whether it ran."""
    abscissa = spectral_abscissa(model)
    if abscissa >= 0.0:
        raise UnstableModelError(
            "no steady state: spectral abscissa "
            f"{abscissa:.3e} >= 0 (second moments diverge)"
        )
    if steady is not None:
        return steady, False
    scale, balanced = _balanced(model)

    def solve(source):
        """``C`` with ``H C + C H^H + source = 0``."""
        from scipy.linalg import solve_continuous_lyapunov

        # scipy warns of an eigenvalue pair that nearly cancels, as at a
        # marginal mode; _lyapunov_check judges the result instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            amp = solve_continuous_lyapunov(balanced, -scale[:, None] * (source * scale))
        return (amp + amp.conj().T) / 2.0 / scale / scale[:, None]

    amp = solve(np.diag(_noise(model)))
    residual = np.empty_like(amp)
    for refine in (True, False):
        rows = lambda block, amp=amp: amp[1 + block.start: 1 + block.stop]  # noqa: E731
        worst, bound, unscaled, sums = _lyapunov_check(model, amp[0], rows, residual)
        if worst <= bound:
            return _Steady(sums, unscaled / 2.0, amp[0], rows), True
        if refine:
            amp = amp + solve(residual)
    raise NumericalError(
        f"Lyapunov residual {worst:.3e} exceeds {bound:.3e} "
        "(spin amplitudes scaled by 1 / sqrt(N_m))"
    )
