"""Propagation of means and covariances, steady states, stability.

Every path works in the amplitudes ``z = (a, s_1, ..., s_M)``,
``a = X_c + i P_c``, ``s_m = S_x - i S_y``: ``dz/dt = H z`` with the
complex (M+1) x (M+1) arrowhead ``H`` (:attr:`DriftModel.arrowhead`), and
``C = T gamma T^H`` obeys ``dC/dt = H C + C H^H + D``.  The roots
``lambda_k`` of the secular function ``F`` and the residues
``r_k = 1 / F'(lambda_k)``, found in O(M^2) by the one root finder,
the secular iteration, and gated once per model
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

Where the residues fail their gate (next to an exceptional point) or a
pole was deflated, dense paths on ``H`` remain as gated fallbacks of
the moments: exact steps ``z <- e^{H h} z``, Van Loan's block
exponential (IEEE Trans. Autom. Control 23, 395 (1978)) for ``C <- Phi
C Phi^H + Q``, and Bartels-Stewart for the steady state, checked the
same way.  They import scipy where they run, so the package imports
with numpy alone, and each first checks the model against
``_DENSE_BYTE_BUDGET`` (:func:`_check_dense`); steps past the float
range raise :class:`NumericalError` (:func:`_finite`).
"""

from __future__ import annotations

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
# gate of a spectrum (_roots)
_RESIDUE_BOUND = 100.0

# Aberth iterations before a secular iteration fails (see _roots)
_ABERTH_MAX_ITER = 100

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

# each live model's spectrum: model -> (the gate constants it was found
# under, its _Spectrum), dropped when the model dies
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
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise PreconditionError("times must be a 1-d grid with >= 2 points")
    if times[0] != 0.0:
        raise PreconditionError("times must start at 0")
    if not np.all(np.diff(times) > 0.0):
        raise PreconditionError("times must be strictly increasing")
    return times


def _uniform(times: np.ndarray) -> bool:
    """Whether the grid equals ``np.linspace(0, t_max, T)`` to the bit."""
    return np.array_equal(times, np.linspace(0.0, times[-1], times.size))


def _interval_maps(times: np.ndarray, step) -> list:
    """``step(h)`` for each output interval ``h``; a uniform grid takes one call."""
    steps = np.diff(times)
    if _uniform(times):
        return [step(steps[0])] * steps.size
    return [step(h) for h in steps]


def check_revival_window(
    grid: SubEnsembleGrid, gamma_perp: float, t_max: float
) -> float | None:
    """Reject windows that run into discretization revivals.

    A uniform grid of undamped spins rephases at ``t = 2 pi / spacing``,
    so with ``gamma_perp == 0`` the window must end within a quarter of
    that; a larger M extends it.  Returns the margin ``t_revival /
    (4 t_max)``, at least 1, or ``None`` where no revival is guarded (a
    damped line, or a grid that is not uniform Gaussian).
    """
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
    (``fallbacks`` 1), chosen before any time is propagated: when a pole
    was deflated, the residues fail their gate (:func:`_roots`) or a
    weight is not finite (a root that rounds onto its pole, as at very
    weak coupling), each output interval ``h`` is one step ``z <- e^{H
    h} z`` (:func:`scipy.linalg.expm` within :func:`_check_dense`, one
    for a uniform grid).  A mean past the float range raises
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
        from scipy.linalg import expm

        _check_dense(model)
        arrowhead = model.arrowhead
        # steps past the float range are left to _finite, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            phis = _interval_maps(times, lambda h: expm(h * arrowhead))
            for k, phi in enumerate(phis, start=1):
                z = phi @ z
                ys[k, 0::2], ys[k, 1::2] = z.real, signs * z.imag
    ys[0] = y0
    path = "the eigenvectors" if spectral else "the dense fallback (e^{H h} steps)"
    _finite(ys, f"mean propagation by {path}", times)
    reductions = {
        "X_c": ys[:, 0].copy(), "P_c": ys[:, 1].copy(),
        "S_x": ys[:, 2::2].sum(axis=1), "S_y": ys[:, 3::2].sum(axis=1),
    }
    return MomentSeries(reductions=reductions, means=ys, fallbacks=int(not spectral))


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
    pair (:func:`_van_loan_pair`, one for a uniform grid), counted in
    ``fallbacks``.  A track past the float range raises
    :class:`NumericalError` naming the path and the time (:func:`_finite`).

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
        _check_dense(model)
        track, covs = _van_loan_covariance(model, np.diag(amp0 + 0j), times, store_full)
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


def _van_loan_covariance(model, amp, times, store_full) -> tuple:
    """Track and optional matrices by Van Loan steps from ``C_0``."""
    arrowhead, noise = model.arrowhead, _noise(model)
    sums = np.zeros((times.size, 3))
    covs = np.empty((times.size, model.dim, model.dim)) if store_full else None
    with np.errstate(over="ignore", invalid="ignore"):  # left to _finite
        pairs = _interval_maps(times, lambda h: _van_loan_pair(arrowhead, noise, h))
        for k in range(times.size):
            if k > 0:
                phi, q = pairs[k - 1]
                amp = phi @ amp @ phi.conj().T + q
                amp = (amp + amp.conj().T) / 2.0
            sums[k] = _sums(amp)
            if store_full:
                covs[k] = _from_amplitudes(amp)
    return _track(sums), covs


def _row_blocks(rows: int, cols: int, chunk: int | None = None):
    """Row slices of a complex (rows x cols) array, each <= ``chunk`` bytes
    (``_CHUNK_BYTES`` by default)."""
    step = max(1, (chunk or _CHUNK_BYTES) // (16 * max(cols, 1)))
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
    """Row blocks of the (T x K) ``e^{lambda_k t_j}``, each <= ``chunk`` bytes.

    Each block is a view of one reused work array.  On a uniform grid
    (:func:`_uniform`) row ``j = a B + b`` is ``e^{lambda t_aB} e^{lambda
    t_b}``, ``B = ceil(sqrt(T))`` capped at a block: about ``2 sqrt(T) K``
    exponentials, where other grids take ``T K``; an entry moves by a few
    ulps times ``1 + |lambda t_j|``.  A block with an entry past the
    float range raises :class:`NumericalError` naming the overflow: the
    growth ``e^{Re lambda t}`` or, first on a decaying spectrum, the
    phase ``Im lambda t``.
    """
    uniform = _uniform(times)
    rows = min(times.size, max(1, (chunk or _CHUNK_BYTES) // (16 * lam.size)))
    if uniform:
        size = min(math.isqrt(times.size - 1) + 1, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            fine = np.exp(np.multiply.outer(times[:size], lam))
        last = -1
    work = np.empty((rows, lam.size), dtype=complex)
    for block in _row_blocks(times.size, lam.size, chunk):
        growth = work[: block.stop - block.start]
        with np.errstate(over="ignore", invalid="ignore"):
            if uniform:
                for a in range(block.start // size, (block.stop - 1) // size + 1):
                    if a != last:  # a coarse row can span two blocks
                        last, coarse = a, np.exp(times[a * size] * lam)
                    lo = max(block.start, a * size)
                    hi = min(block.stop, (a + 1) * size)
                    np.multiply(
                        fine[lo - a * size: hi - a * size], coarse,
                        out=growth[lo - block.start: hi - block.start],
                    )
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
    """Poles ``d_m = gamma_perp + i Delta_m`` and weights ``w_m = p g_m^2 N_m``."""
    grid = model.grid
    poles = model.params.gamma_perp + 1j * grid.deltas
    return poles, model.p * grid.couplings**2 * grid.spins


def _mirrored(poles: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the poles, sorted by ``Delta``, and their weights are
    mirror-symmetric to the bit, with an odd count."""
    return (poles.size % 2 == 1 and np.array_equal(poles, poles[::-1].conjugate())
            and np.array_equal(weights, weights[::-1]))


def _hilbert_sums(poles: np.ndarray, weights: np.ndarray, mirrored: bool) -> tuple:
    """``T_m = sum_{j != m} w_j / (Delta_j - Delta_m)`` and its slope ``U_m
    = sum_{j != m} w_j / (Delta_j - Delta_m)^2``, of poles ``d_j =
    gamma_perp + i Delta_j`` sorted by ``Delta``, in real row sums (under
    the caller's ``errstate``).

    A ``mirrored`` line (:func:`_mirrored`) forms only the upper half,
    each mirrored pair ``j`` as ``2 Delta_m w_j / (Delta_j^2 - Delta_m^2)``
    in ``T`` and ``2 w_j (Delta_j^2 + Delta_m^2) / (Delta_j^2 -
    Delta_m^2)^2`` in ``U``, and the centre and partner terms of ``m``
    apart, so ``T`` is odd and ``U`` even to the bit.  The centre's ``T``
    is 0; its ``U`` is left 0, so its seed stays first-order (see
    :func:`_collective_seeds`).
    """
    deltas, half = poles.imag, poles.size // 2
    if mirrored:
        centre, deltas, weights = weights[half], deltas[half + 1:], weights[half + 1:]
        squares = deltas * deltas
    sums, slopes = np.empty(deltas.size), np.empty(deltas.size)
    for block in _row_blocks(deltas.size, deltas.size):
        den = deltas - deltas[block, None]
        if mirrored:
            den *= deltas + deltas[block, None]
        np.fill_diagonal(den[:, block.start:], np.inf)
        terms = weights / den
        sums[block] = terms.sum(axis=1)
        if mirrored:
            # the ratio first: a square of the denominator would leave the
            # float range at widths far from 1 where U does not
            terms *= (squares + squares[block, None]) / den
        else:
            terms /= den
        slopes[block] = terms.sum(axis=1)
    if not mirrored:
        return sums, slopes
    upper = 2.0 * deltas * sums - (centre + weights / 2.0) / deltas
    slopes = 2.0 * slopes + (centre + weights / 4.0) / squares
    return (np.concatenate([-upper[::-1], [0.0], upper]),
            np.concatenate([slopes[::-1], [0.0], slopes]))


def _seeds(shift: complex, poles: np.ndarray, weights: np.ndarray,
           dressing: tuple) -> np.ndarray:
    """The decoupled cavity root ``-shift``, then one seed per pole.

    The seed of pole m is the root nearest ``-d_m`` of its dressed
    problem ``(1 - U_m) t^2 + (shift - d_m - S_m) t = w_m``, ``t = z +
    d_m``: ``t F`` with the sum over the other poles taken to first order
    in ``t``, ``S_m + U_m t``.  Its value ``S_m = sum_{j != m} w_j / (d_j
    - d_m) = -i T_m`` dresses the cavity and its slope ``U_m`` offsets
    the unit slope of ``F``; ``dressing`` holds both, ``(T, U)`` of
    :func:`_hilbert_sums`.  Without them (``T_m = U_m = 0``) the seed is
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
    work array ``index``; with no ``owner`` (one model) its one row, to
    broadcast."""
    if owner is None:
        return table[0]
    out = _view(work, index, owner.size, table.shape[1], table.dtype)
    return np.take(table, owner, axis=0, out=out, mode="clip")


def _split_sums(z, shift, poles, weights, pairs, work, owner=None,
                aberth=True) -> tuple:
    """Secular sums at ``z`` with the nearest pole, or pole pair, split off.

    With ``F_k``, ``S_k`` the sums over the other poles, ``F = F_k - v /
    q``: ``q = z + d_k``, ``v = w_k`` for an unpaired pole, ``q = (y +
    iD)(y - iD)``, ``y = z + g``, ``v = 2 w_k y`` for the pair ``g +- iD``.
    Returns ``(F_k, F_k', F_k'', S_k, q, v, q', v', q'')``, finite and
    uncancelled at the pole, ``F_k''`` for the residue of a freezing root
    (``-2 sum w inv^3`` over the unpaired poles, ``12 y sum w inv^2 - 16
    y^3 sum w inv^3`` over the pairs); the poles are laid out as in
    :func:`_aberth_roots`.  Row ``i`` reads the weights
    ``weights[owner_i]`` (row 0 with no ``owner``) and ``shift``, one
    value or one per row; every (rows x poles) array lives in ``work``
    (:func:`_work_arrays`).  No product is formed in place: numpy rounds
    an in-place complex product of one element apart from the same
    product in a longer array, and a row's sums must not depend on its
    block.  Unless ``aberth`` no ``S_k``, which only an Aberth step
    reads, is formed; it comes back ``None``.
    """
    single = poles.size - pairs
    lone_poles = poles[:single]
    count = z.size
    at = np.arange(count)
    which = 0 if owner is None else owner
    gap = np.add(z[:, None], lone_poles, out=_view(work, 0, count, single))
    dist = np.abs(gap, out=_view(work, 1, count, single, float))
    near = dist.argmin(axis=1)
    q = gap[at, near]
    v = weights[which, near].astype(complex)
    dq = np.ones(count, dtype=complex)
    dv, ddq = np.zeros(count), np.zeros(count)
    if pairs:
        halves = poles[single:].imag
        y = z + lone_poles[-1].real
        k = _nearest(halves, np.abs(y.imag))
        pair_dist = np.hypot(y.real, np.abs(y.imag) - halves[k])
        split = pair_dist < dist[at, near]
        ys, ws, hs = y[split], weights[which, single + k][split], 1j * halves[k[split]]
        q[split], v[split] = (ys + hs) * (ys - hs), 2.0 * ws * ys
        dq[split], dv[split], ddq[split] = 2.0 * ys, 2.0 * ws, 2.0
        gap[at[~split], near[~split]] = np.inf
    else:
        gap[at, near] = np.inf
    inv = np.divide(1.0, gap, out=gap)
    terms = np.multiply(_take(weights[:, :single], owner, work), inv,
                        out=_view(work, 1, count, single))
    f = z + shift - terms.sum(axis=1)
    square = np.multiply(terms, inv, out=_view(work, 2, count, single))
    df = 1.0 + square.sum(axis=1)
    ddf = -2.0 * np.multiply(square, inv, out=terms).sum(axis=1)
    rest = inv.sum(axis=1) if aberth else None
    if pairs:
        # 1/(z + d) + 1/(z + conj d) = 2y / (y^2 + D^2), and the squares
        # add up to 4y^2 / (y^2 + D^2)^2 - 2 / (y^2 + D^2); y^2 + D^2
        # cancels only next to a pole, and the nearest pair was split off
        # above in the product form
        inv = np.add((y * y)[:, None], halves**2, out=_view(work, 0, count, pairs))
        inv[at[split], k[split]] = np.inf
        inv = np.divide(1.0, inv, out=inv)
        terms = np.multiply(_take(weights[:, single:], owner, work), inv,
                            out=_view(work, 1, count, pairs))
        pole_sum = terms.sum(axis=1)
        f -= 2.0 * y * pole_sum
        square = np.multiply(terms, inv, out=_view(work, 2, count, pairs))
        cube = np.multiply(square, inv, out=terms).sum(axis=1)
        square = square.sum(axis=1)
        df += 4.0 * y * y * square
        df -= 2.0 * pole_sum
        ddf += y * (12.0 * square - 16.0 * y * y * cube)
        if aberth:
            rest += 2.0 * y * inv.sum(axis=1)
    return f, df, ddf, rest, q, v, dq, dv, ddq


def _aberth_roots(shifts, poles, weights, seeds, pairs=0, root_pairs=0) -> list:
    """Roots of ``z + shifts_b - sum_m weights_bm / (z + poles_m)`` from
    ``seeds[b]``, for each model ``b`` of a batch that shares the poles.

    The poles must be distinct and the weights nonzero; n poles give
    n + 1 roots.  The last ``pairs`` poles stand for themselves and their
    conjugates, of equal weight, sharing the real part of the last
    unpaired pole, with increasing positive imaginary parts; the last
    ``root_pairs`` seeds of each model likewise stand for conjugate
    pairs, and with any pair the other seeds must be real.  The roots of
    all models iterate as one set of rows, each reading only its own
    model's shift, weights and roots, in row sums of unchanged length
    and order, so a model's roots do not depend on its batch; the
    settling floor, the iteration cap and the finite-step check hold per
    model.  The roots replace ``seeds`` in place.  Returns one ``(roots,
    residues)`` per model, each residue ``1 / F'`` formed in the row
    that froze its root, or for a model whose roots do not settle the
    :class:`NumericalError` that names why (see
    :func:`arrowhead_eigenvalues`).
    """
    models, size = seeds.shape
    if poles.size == 0:
        return [(row.copy(), np.ones(size, dtype=complex)) for row in seeds]
    table = seeds  # (models x roots), settled in place
    roots = table.reshape(-1)
    lone = size - root_pairs
    mirrored = pairs + root_pairs > 0
    floor = np.maximum(np.abs(shifts), np.abs(poles).max())
    tol = 4.0 * np.finfo(float).eps
    width = max(poles.size, size)
    work = _work_arrays(width)
    residues = np.empty(roots.size, dtype=complex)

    # why each model failed: 0 it did not, 1 a step not finite, 2 the cap
    failed = np.zeros(models, dtype=np.int8)
    active = np.arange(roots.size)
    # the iteration converges cubically, so a root whose last step was at
    # most eps^(1/3) of its scale is within rounding of its root after
    # one more step: it confirms itself with a Newton step on G = F_k q -
    # v, without the root sums.  The root sums must also have moved that
    # step by at most eps^(1/3) of itself (the Newton step N and the
    # Aberth step s differ by s N rest): an iterate next to another one
    # takes small steps that only the root sums make, and Newton's would
    # pull it onto the other's root
    confirm = np.finfo(float).eps ** (1.0 / 3.0)
    newton = np.zeros(roots.size, dtype=bool)
    for _ in range(_ABERTH_MAX_ITER):
        steps = np.empty(active.size, dtype=complex)
        # whether each row's step makes its next one a Newton step, and
        # whether the row is still moving after it
        confirms = np.empty(active.size, dtype=bool)
        moving = np.empty(active.size, dtype=bool)
        partner = table[:, lone:]
        partner_real, partner_square = partner.real, partner.imag**2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for aberth in (True, False):
                part = np.flatnonzero(newton[active] != aberth)
                for block in _row_blocks(part.size, width):
                    here = part[block]
                    who, rows = (None, active[here]) if models == 1 else np.divmod(
                        active[here], size)
                    z = roots[active[here]]
                    # P'/P = G'/G + S_k for P = F prod_m (z + d_m), G = F_k q - v
                    f, df, ddf, rest, q, v, dq, dv, ddq = _split_sums(
                        z, shifts[0 if who is None else who], poles, weights, pairs,
                        work, who, aberth,
                    )
                    own = rows < lone
                    num, den = df * q + f * dq - dv, f * q - v
                    if aberth:
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
                        local = np.abs(den * rest) <= confirm * np.abs(num)
                    else:
                        slope, local = num, True
                    # zero at an exact root, even one that another iterate
                    # or a double root shares, where the slope is not finite
                    step = np.divide(den, slope, out=np.zeros_like(den),
                                     where=den != 0.0)
                    if mirrored:
                        # the unpaired roots of a mirrored problem are real, and
                        # so are their steps but for rounding, which would pull
                        # them off
                        step[own] = step[own].real
                    steps[here] = step
                    stepped = z - step
                    length = np.abs(step)
                    scale = np.maximum(np.abs(stepped), floor[0 if who is None else who])
                    confirms[here] = (length <= confirm * scale) & local
                    # the root's condition |r_k| = |q / G'| widens its freeze
                    # up to 2^26 of rounding: a near-double root is known to
                    # about the square root of it
                    cond = np.fmin(np.fmax(np.abs(q / num), 1.0), 2.0**26)
                    moving[here] = length > tol * scale * cond
                    # 1 / F' = q^2 / (F_k' q^2 - (v' q - v q')) at the stepped
                    # root, a move h = z - stepped away: q and v are exact
                    # there, F_k' - h F_k'' is to first order in h, and the
                    # row that freezes a root leaves its residue
                    h = z - stepped
                    qh, dqh = q - h * (dq - 0.5 * h * ddq), dq - h * ddq
                    residues[active[here]] = qh * qh / (
                        (df - h * ddf) * qh * qh - (dv * qh - (v - h * dv) * dqh))
        newton[active] = confirms
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
    del work  # let the work arrays go before the roots are copied out
    why = (None, "a secular iteration step is not finite", "secular roots still "
           f"moving at the cap of {_ABERTH_MAX_ITER} iterations")
    found = [NumericalError(why[code]) if code else None for code in failed]
    pair = slice(lone, None)
    for b, row in enumerate(residues.reshape(models, size)):
        if not failed[b]:
            found[b] = (np.concatenate([table[b], table[b, pair].conjugate()]),
                        np.concatenate([row, row[pair].conjugate()]))
    return found


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
    The set-up each model reads of its line, the merged poles and the
    dressing sums of its seeds, is formed once per distinct line in the
    call (:func:`_line`), so a sweep sets up one line per ``g_ens``.
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
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)).  The other
    roots come from the Aberth-Ehrlich iteration (Aberth, Math. Comp. 27,
    339 (1973); Bini & Robol, J. Comput. Appl. Math. 272, 276 (2014)) on
    ``P = F prod_m (lambda + d_m)``, all roots at once, with the pole
    nearest each iterate split off (:func:`_split_sums`) so ``P'/P``
    stays finite and uncancelled there.  Each root starts as a small
    offset from its pole, the root of the pole's quadratic problem in
    which every other pole dresses the cavity with its value and slope
    at the pole (:func:`_seeds`), so strongly coupled lines settle in a
    few iterations too.  A root whose last step was at most ``eps^(1/3)``
    of its scale, and which the root sums moved by at most ``eps^(1/3)``
    of itself, takes its next step as Newton's on the split-off ``F``,
    with no root sums: that step confirms it.
    A root is frozen once its step is at most ``4 eps max(|lambda_i|,
    |c|, max_m |d_m|) min(max(1, |r_i|), 2^26)``, ``|r_i| ~ |q / G'|`` its
    condition (Bini & Robol); the absolute floor stops roots near the
    band centre, which jitter at the rounding level of ``F``, and the
    condition stops roots that merge at an exceptional point, known
    there to about the square root of the rounding error.  An iteration
    costs O(M) per unfrozen root, in row blocks of ``_CHUNK_BYTES``.  The
    row that freezes a root also forms its residue ``1 / F'`` at the
    stepped root, from ``F_k'`` and ``F_k''`` of that row, to first order
    in the step (the value before the step moved the kicked field by up
    to 2e-12 of the kick).  A root takes about two rows of O(M) sums: a
    step and the step that confirms it.

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


class _Job(NamedTuple):
    """One model's secular iteration: the arguments of :func:`_aberth_roots`."""

    shift: complex
    poles: np.ndarray
    weights: np.ndarray
    seeds: np.ndarray
    pairs: int = 0
    root_pairs: int = 0


class _Line(NamedTuple):
    """The part of a secular iteration that a line's models share: :func:`_line`."""

    poles: np.ndarray
    weights: np.ndarray
    deflated: np.ndarray
    mirrored: bool
    dressing: tuple


def _line(poles: np.ndarray, weights: np.ndarray, real_shift: bool) -> _Line:
    """The coupled poles merged, with their summed weights, the deflated
    poles (see :func:`_roots`), whether the line is mirrored (a
    ``real_shift`` and :func:`_mirrored` merged poles) and the dressing
    sums of the merged poles (:func:`_hilbert_sums`): everything a
    model's secular iteration needs but its cavity shift."""
    coupled = weights != 0.0
    merged, first, index = np.unique(poles[coupled], return_index=True,
                                     return_inverse=True)
    merged_weights = np.zeros(merged.size)
    np.add.at(merged_weights, index, weights[coupled])
    deflated = np.concatenate([poles[~coupled], np.delete(poles[coupled], first)])
    mirrored = real_shift and _mirrored(merged, merged_weights)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dressing = _hilbert_sums(merged, merged_weights, mirrored)
    return _Line(merged, merged_weights, deflated, mirrored, dressing)


def _job(shift: complex, line: _Line, layout: int = 0) -> _Job:
    """The secular iteration of a model with cavity shift ``shift`` on ``line``.

    A mirrored line folds, with the ``layout``-th of the two layouts of
    its collective pair, the likelier first (:func:`_collective_seeds`).
    """
    seeds = _seeds(shift, line.poles, line.weights, line.dressing)
    if not line.mirrored:
        return _Job(shift, line.poles, line.weights, seeds)
    # np.unique sorts the poles, which share one real part, by Delta
    half = line.poles.size // 2
    upper, upper_weights = line.poles[half:], line.weights[half:]
    collective = _collective_seeds(
        shift.real, upper, upper_weights, seeds[half + 1]
    )[layout]
    paired = seeds[half + 2:]
    if collective.size == 1:  # a conjugate pair
        collective, paired = seeds[:0], np.concatenate([collective, paired])
    seeds = np.concatenate([collective, paired])
    return _Job(shift, upper, upper_weights, seeds, half, paired.size)


def _solve(models, layout: int = 0) -> list:
    """``[deflated poles, mirrored, root pairs, roots and residues or the
    error]`` of each model's secular iteration (:func:`_job`), in one batch
    of :func:`_aberth_roots` per group of models with bit-equal merged
    poles and one layout.  Models whose poles and weights agree to the
    bit, and whose cavity shifts are all real or all not, share one
    :func:`_line` within the call, as the points of a sweep at one
    ``g_ens`` do; nothing of it outlives the call."""
    out, groups, lines = [], {}, {}
    for model in models:
        poles, weights = _secular_terms(model)
        shift = complex(model.params.kappa, model.params.delta_cs)
        key = (poles.tobytes(), weights.tobytes(), shift.imag == 0.0)
        if key not in lines:
            lines[key] = _line(poles, weights, key[2])
        line = lines[key]
        job = _job(shift, line, layout)
        groups.setdefault((job.poles.tobytes(), job.pairs, job.root_pairs),
                          []).append((len(out), job))
        out.append([line.deflated, line.mirrored, job.root_pairs, None])
    while groups:
        # the stacked rows replace the jobs before the batch iterates
        index, jobs = zip(*groups.popitem()[1])
        first = jobs[0]
        shifts = np.array([job.shift for job in jobs])
        weights = np.array([job.weights for job in jobs])
        seeds = np.array([job.seeds for job in jobs])
        del jobs
        found = _aberth_roots(shifts, first.poles, weights, seeds,
                              pairs=first.pairs, root_pairs=first.root_pairs)
        for i, result in zip(index, found):
            out[i][3] = result
    return out


class _Spectrum(NamedTuple):
    """The arrowhead spectrum of one model: :func:`_roots`, read-only.

    The last ``pairs`` roots and residues are the conjugates of the
    ``pairs`` before them, as a folded iteration found them; ``pairs`` is
    0 unless the model's iteration folded and its residues passed their
    gate.
    """

    lam: np.ndarray
    residues: np.ndarray | None
    pairs: int = 0


def _roots(models) -> list:
    """Each model's :class:`_Spectrum`: roots and their gated residues.

    The first iterations run batched (:func:`_solve`), then, for each
    mirrored line whose iteration failed, one with the other layout of
    its collective pair: a real seed stays real on a mirrored line, so no
    iteration can repair a wrong layout.  A model that fails both raises the
    :class:`NumericalError` of its last iteration.  The residues ``r_k =
    1 / F'(lambda_k)`` come from the secular solve.  They are ``None``
    when a pole was deflated, or unless ``sum_k |r_k| <= _RESIDUE_BOUND``
    and ``|sum_k r_k - 1| <= 1e-10`` (see :func:`field_kick_response`).
    """
    first = _solve(models)
    again = iter(_solve([model for model, (_, mirrored, _, found) in zip(models, first)
                         if mirrored and isinstance(found, NumericalError)], layout=1))
    spectra = []
    for deflated, mirrored, pairs, result in first:
        if mirrored and isinstance(result, NumericalError):
            _, _, pairs, result = next(again)
        if isinstance(result, NumericalError):
            raise result
        roots, residues = result
        lam = np.concatenate([roots, -deflated]) if deflated.size else roots
        with np.errstate(invalid="ignore", over="ignore"):
            gated = (
                deflated.size == 0
                and np.abs(residues).sum() <= _RESIDUE_BOUND
                and abs(residues.sum() - 1.0) <= 1e-10
            )
        spectra.append(_Spectrum(lam, residues, pairs) if gated
                       else _Spectrum(lam, None))
    return spectra


def _spectra(models) -> list:
    """Each model's spectrum; those with no record under the current gate
    constants are found in one batched secular solve.

    A record is kept while its model lives and the gate constants stay
    as they were, so every path on one model shares one.
    """
    key = (_RESIDUE_BOUND, _ABERTH_MAX_ITER)
    missing = list(dict.fromkeys(
        model for model in models if _MEMO.get(model, (None,))[0] != key
    ))
    for model, spectrum in zip(missing, _roots(missing) if missing else ()):
        for array in (spectrum.lam, spectrum.residues):
            if array is not None:
                array.flags.writeable = False
        _MEMO[model] = (key, spectrum)
    return [_MEMO[model][1] for model in models]


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
    (:func:`_roots`: ``sum_k |r_k| <= 100``, and ``sum_k r_k = 1`` to
    1e-10) and no pole was deflated; otherwise the field is propagated
    with :func:`evolve_mean`.  Returns ``(response, fallback)``,
    ``fallback`` telling whether it was; a NaN on either path, or an
    ``e^{lambda t}`` past the float range, raises
    :class:`NumericalError`.
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
    y0 = np.zeros(model.dim)
    y0[0] = 1.0
    means = evolve_mean(model, y0, times).means
    return means[:, 0] + 1j * means[:, 1], True


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
    floor = np.abs(scale**2 * noise).max()
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
        balance = np.multiply.outer(scale[at], scale)
        return (np.abs(balance * residual).max(), np.abs(balance * amp).max(),
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
    bound = _LYAPUNOV_RTOL * (norm * peak + np.abs(scale**2 * noise).max())
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
            product = back @ np.concatenate([part, part * rho.conj()]).T
            x = growth[:, rows]
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
    _check_dense(model)
    # solved with the spin amplitudes scaled by 1 / sqrt(N_m): unscaled,
    # the couplings span sqrt(N) to 1 / sqrt(N), and at N = 1e11 the
    # solver returns a negative field variance that passes the residual
    scale = _balance(model)
    scales = np.outer(scale, scale)
    balanced = scale[:, None] * model.arrowhead / scale

    def solve(source):
        """``C`` with ``H C + C H^H + source = 0``."""
        from scipy.linalg import solve_continuous_lyapunov

        # scipy warns of an eigenvalue pair that nearly cancels, as at a
        # marginal mode; _lyapunov_check judges the result instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            amp = solve_continuous_lyapunov(balanced, -scales * source)
        return (amp + amp.conj().T) / (2.0 * scales)

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
