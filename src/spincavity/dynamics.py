"""Propagation of means and covariances, steady states, stability.

Every path works in the amplitudes ``z = (a, s_1, ..., s_M)``,
``a = X_c + i P_c`` and ``s_m = S_x - i S_y``: the means obey
``dz/dt = H z`` with the complex (M+1) x (M+1) arrowhead ``H`` of
:attr:`DriftModel.arrowhead`, and the Hermitian covariance
``C = T gamma T^H`` obeys ``dC/dt = H C + C H^H + D``.  The real drift
(:attr:`DriftModel.drift`) is never built here, and the real covariance
``gamma`` is formed only where a function returns it.

The spectrum of ``H`` is the set of roots ``lambda_k`` of a secular
function ``F``, found in O(M^2) without building ``H``, together with
the residues ``1 / F'(lambda_k)`` (:func:`arrowhead_eigenvalues`).
:func:`_spectrum` keeps both for the last model, with the closed-form
eigenvectors formed on first use; the residues are gated once (:func:`_roots`).
The residues alone give the field after a cavity kick
(:func:`field_kick_response`).  In the eigenbasis every moment is
propagated exactly on any time grid, from one helper for
``e^{lambda_k t}`` (:func:`_growth_blocks`): the means as
``z(t) = V e^{Lambda t} V^{-1} z(0)``, the covariance as the
multivariate Ornstein-Uhlenbeck solution (Gardiner, *Handbook of
Stochastic Methods*), and the steady state from the same eigen-system.
Each run returns its collective reductions with it
(:attr:`MomentSeries.reductions`): the mean field and spin, or the
variance track, its steady values and the relaxation ratio ``R(t)``.

Dense paths on ``H`` remain as gated fallbacks (near an exceptional
point, with deflated poles, for a steady state that fails its residual
check or sits too close to threshold for the track, or for a
quadrature-anisotropic initial covariance): exact steps
``z <- e^{H h} z``, Van Loan's block exponential (IEEE Trans. Autom.
Control 23, 395 (1978)) for ``C <- Phi C Phi^H + Q``, and
Bartels-Stewart for the steady state, which passes the same O(M^2)
residual check (:func:`_lyapunov_check`).  They import scipy inside the
functions that run them, so the package imports with numpy alone.  The
only dense arrays are complex (M+1) x (M+1), and a model is checked
against ``_DENSE_BYTE_BUDGET`` before the first is built
(:func:`_check_dense`); the kicked field and the abscissa take any M.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    "arrowhead_eigenvalues",
    "spectral_abscissa",
    "field_kick_response",
    "check_revival_window",
]

# largest sum_k |r_k| = sum_k 1 / |F'(lambda_k)| accepted from the
# secular solver and by the residue gate of a spectrum (_roots)
_RESIDUE_BOUND = 100.0

# Aberth iterations before arrowhead_eigenvalues falls back to dense eig
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

# the last model's spectrum: [weak reference to the model, the gate
# constants it was found under, its _Spectrum], or empty
_MEMO: list = []

# order of the per-time variance track of evolve_covariance:
# (Var Xc, Var Pc, Var Sx, Var Sy, <dSx dPc>, <dSy dXc>)
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
    """Time series of the first or the second moments of one model.

    ``reductions`` holds the collective values: the means ``X_c``,
    ``P_c``, ``S_x`` and ``S_y`` per output time (:func:`evolve_mean`),
    or the variances of :func:`evolve_covariance`.  ``means`` has shape
    (T, dim); ``covariances`` (T, dim, dim) is only stored for small
    systems or on request.  ``fallbacks`` counts the computations behind
    the series that took a dense path instead of the arrowhead
    eigen-system: the mean, or the covariance and the steady state.
    """

    times: np.ndarray
    model: DriftModel
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

    A uniform grid of undamped spins rephases at ``t = 2 pi / spacing``.
    With ``gamma_perp == 0`` the revival is undamped, so the window must
    end at or below a quarter of the revival time; refine the grid
    (larger M) to extend the window.  Returns the margin
    ``t_revival / (4 t_max)``, at least 1, or ``None`` where no revival
    is guarded (a damped line, or a grid that is not uniform Gaussian).
    """
    if not (
        grid.spacing is not None
        and gamma_perp == 0.0
        and grid.family is BroadeningFamily.GAUSSIAN
    ):
        return None
    t_revival = 2.0 * math.pi / grid.spacing
    if t_revival < 4.0 * t_max:
        need = 1 + math.ceil((grid.size - 1) * 4.0 * t_max / t_revival)
        raise RevivalGuardError(
            f"window t_max={t_max:g} exceeds a quarter of the grid "
            f"revival time {t_revival:g}; use M >= {need | 1} sub-ensembles"
        )
    return t_revival / (4.0 * t_max)


def evolve_mean(model: DriftModel, y0: np.ndarray, times) -> MomentSeries:
    """Propagate the mean vector through the output times.

    In the amplitudes ``z = (a, s_1, ..., s_M)`` the means obey
    ``dz/dt = H z`` with the arrowhead ``H``, so
    ``z(t) = right e^{Lambda t} left z(0)`` with the closed-form
    eigenvectors of :func:`_eigensystem`: O(M^2) to set up and O(M^2)
    per output time, on any grid, with no dense ``eig`` and no stepping.
    The real means are the real parts and the signed imaginary parts of
    ``z``; the first row is ``y0`` itself.  ``reductions`` holds the
    field quadratures ``X_c`` and ``P_c`` and the collective spin
    ``S_x`` and ``S_y``, summed over the sub-ensembles.

    Fallback: when the eigenvectors fail their gates (dense roots, a
    deflated pole or the residue gate of :func:`_roots`), each output
    interval ``h`` is one exact step ``z <- Phi z`` with
    ``Phi = e^{H h}`` (:func:`scipy.linalg.expm`), one ``Phi`` for a
    uniform grid, and ``fallbacks`` is 1.
    """
    times = _validate_times(times)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (model.dim,):
        raise PreconditionError(
            f"state length {y0.shape} does not match model dim {model.dim}"
        )
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    lam, vectors = _eigensystem(model)
    signs = _signs(lam.size)
    z = y0[0::2] + 1j * signs * y0[1::2]
    ys = np.empty((times.size, y0.size))
    if vectors is None:
        from scipy.linalg import expm

        arrowhead = model.arrowhead
        phis = _interval_maps(times, lambda h: expm(h * arrowhead))
        for k, phi in enumerate(phis, start=1):
            z = phi @ z
            ys[k, 0::2], ys[k, 1::2] = z.real, signs * z.imag
    else:
        right, left = vectors
        weights = left @ z
        for block, growth in _growth_blocks(times, lam):
            amps = np.multiply(growth, weights, out=growth) @ right.T
            ys[block, 0::2] = amps.real
            ys[block, 1::2] = signs * amps.imag
    ys[0] = y0
    reductions = {
        "X_c": ys[:, 0].copy(), "P_c": ys[:, 1].copy(),
        "S_x": ys[:, 2::2].sum(axis=1), "S_y": ys[:, 3::2].sum(axis=1),
    }
    return MomentSeries(times=times, model=model, reductions=reductions,
                        means=ys, fallbacks=int(vectors is None))


def _sums(amp: np.ndarray) -> np.ndarray:
    """``Re X_00``, ``Re 1^T X_ss 1`` and ``Im X_0s 1`` of an amplitude matrix."""
    block = np.ascontiguousarray(amp[1:, 1:].real)
    return np.array([amp[0, 0].real, block.sum(), amp[0, 1:].imag.sum()])


def _track(sums: np.ndarray, anomalous=0.0) -> np.ndarray:
    """The six ``_TRACK_KEYS`` from :func:`_sums` of ``C`` and of ``A`` (or 0).

    ``gamma`` holds ``Re(C + A) / 2`` on the ``x`` quadratures,
    ``Re(C - A) / 2`` on the ``y`` ones (up to the signs of ``T``) and
    ``Im(C -+ A) / 2`` across them, so ``Var X_c = Re(C + A)_00 / 4``
    and the rest follows alike.  The sums run along the last axis.
    """
    pairs = np.stack([sums + anomalous, sums - anomalous], axis=-1)
    return pairs.reshape(sums.shape[:-1] + (6,)) / 4.0


def _van_loan_pair(arrowhead: np.ndarray, noise: np.ndarray, h: float):
    """Exact amplitude covariance step pair over one step ``h``.

    Returns ``Phi = e^{H h}`` and ``Q = int_0^h e^{H s} D e^{H^H s} ds``.
    With ``B = [[-H, D], [0, H^H]]``, ``expm(B s)`` holds ``e^{H s}`` as
    the conjugate transpose of its lower-right block and
    ``Q(s) = e^{H s} F12`` (Van Loan 1978).  The ``e^{-H s}`` block grows
    like ``e^{|H| s}`` and swamps ``F12`` when ``|H| h`` is large, so the
    exponential is taken over the sub-step ``s = h / 2^k`` with
    ``||H||_1 s <= 1`` and the pair is then doubled ``k`` times:
    ``Q(2s) = Phi(s) Q(s) Phi(s)^H + Q(s)``, ``Phi(2s) = Phi(s)^2``.
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
    store_full: bool | None = None,
) -> MomentSeries:
    """Propagate the covariance matrix through the output times.

    In the amplitudes (see the module docstring) ``C = T gamma T^H``
    obeys ``dC/dt = H C + C H^H + D`` with diagonal ``D = T N T^H``, and
    the anomalous part ``A = T gamma T^T`` obeys ``dA/dt = H A + A H^T``:
    the noise is equal on both quadratures, so ``A`` stays zero from a
    quadrature-isotropic ``gamma0``.  In the eigenbasis of ``H``
    ``C~(t) = C~_inf + e^{Lambda t} (C~_0 - C~_inf) e^{Lambda^H t}``
    with ``C~_inf,kl = -D~_kl / (lambda_k + conj(lambda_l))``, and the
    six-entry variance track (:func:`_track`) takes one (T x K)(K x K)
    product per form over all output times (:func:`_spectral_covariance`).

    Fallback, counted in ``fallbacks``: when the eigenvectors fail their
    gates (see :func:`_eigensystem`), when the steady state fails its
    residual check or is too large for the track to subtract it
    accurately (see :func:`_spectral_steady`), or when ``|A_0|`` exceeds
    1e-12 of ``|C_0|``, each output interval ``h`` is one exact step
    ``C <- Phi C Phi^H + Q`` of the Van Loan pair (:func:`_van_loan_pair`,
    one pair for a uniform grid) and, for an anisotropic start,
    ``A <- Phi A Phi^T``, each re-symmetrized after every step.

    ``reductions`` holds the track under the ``_TRACK_KEYS``, its first
    row that of ``gamma0`` itself; the steady ``var_S_x_inf`` and
    ``var_P_c_inf`` of :func:`steady_state_covariance` (Bartels-Stewart
    adds a count to ``fallbacks``), NaN for an unstable model; and the
    relaxation ratio ``R(t) = (Var_inf - Var(t)) / (Var_inf - Var(0))``
    of the collective ``S_x`` variance.  ``R`` is NaN when the model is
    unstable and when ``Var(0)`` equals ``Var_inf`` to ``_R_RTOL``
    relative: a start at the steady variance leaves only rounding in
    both the numerator and the denominator.  A stable model whose
    steady state meets no residual bound raises :class:`NumericalError`,
    as :func:`steady_state_covariance` does.  The real (T, dim, dim)
    covariances are stored when ``store_full`` is true, by default for
    dimension <= 64.
    """
    times = _validate_times(times)
    dim = model.dim
    gamma0 = np.asarray(gamma0, dtype=float)
    if gamma0.shape != (dim, dim):
        raise PreconditionError(
            f"covariance shape {gamma0.shape} does not match model dim {dim}"
        )
    # row blocks of gamma0 and of its transpose, never a dim^2 temporary
    blocks = list(_row_blocks(dim, dim))
    scale = np.max([np.abs(gamma0[block]).max() for block in blocks])
    skew = np.max(
        [np.abs(gamma0[block] - gamma0[:, block].T).max() for block in blocks]
    )
    if scale > 0 and skew > 1e-12 * scale:
        raise PreconditionError("initial covariance must be symmetric")
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    if store_full is None:
        store_full = dim <= 64

    lam, vectors = _eigensystem(model)
    steady = None if vectors is None else _spectral_steady(model, lam, *vectors)
    try:
        amp_inf, dense = _steady_state(model, lam, steady)
    except UnstableModelError:
        var_inf, dense = dict.fromkeys(_TRACK_KEYS, np.nan), False
    else:
        var_inf = dict(zip(_TRACK_KEYS, _track(_sums(amp_inf))))
    amp0, anomalous = _to_amplitudes(gamma0)
    isotropic = np.abs(anomalous).max() <= 1e-12 * np.abs(amp0).max()
    spectral = (
        steady is not None and isotropic
        and steady.residual <= _LYAPUNOV_RTOL * model.noise_diag.max()
    )
    if spectral:
        track, covs = _spectral_covariance(
            times, lam, *vectors, steady, amp0, store_full
        )
    else:
        track, covs = _van_loan_covariance(
            model, amp0, None if isotropic else anomalous, times, store_full
        )
    track[0] = _track(_sums(amp0), _sums(anomalous))
    if store_full:
        covs[0] = gamma0
    reductions = dict(zip(_TRACK_KEYS, track.T))
    var_sx, var_sx_inf = reductions["var_S_x"], var_inf["var_S_x"]
    denom = var_sx_inf - var_sx[0]
    if abs(denom) > _R_RTOL * abs(var_sx_inf):
        ratio = (var_sx_inf - var_sx) / denom
    else:
        ratio = np.full(times.size, np.nan)
    reductions.update(
        var_S_x_inf=var_sx_inf, var_P_c_inf=var_inf["var_P_c"], R=ratio
    )
    return MomentSeries(
        times=times, model=model, reductions=reductions, covariances=covs,
        fallbacks=int(not spectral) + dense,
    )


def _van_loan_covariance(model, amp, anomalous, times, store_full) -> tuple:
    """Track and optional matrices by Van Loan steps from ``C_0`` and ``A_0``."""
    arrowhead, noise = model.arrowhead, _noise(model)
    pairs = _interval_maps(times, lambda h: _van_loan_pair(arrowhead, noise, h))
    sums = np.zeros((2, times.size, 3))
    covs = np.empty((times.size, model.dim, model.dim)) if store_full else None
    for k in range(times.size):
        if k > 0:
            phi, q = pairs[k - 1]
            amp = phi @ amp @ phi.conj().T + q
            amp = (amp + amp.conj().T) / 2.0
            if anomalous is not None:
                anomalous = phi @ anomalous @ phi.T
                anomalous = (anomalous + anomalous.T) / 2.0
        sums[0, k] = _sums(amp)
        if anomalous is not None:
            sums[1, k] = _sums(anomalous)
        if store_full:
            covs[k] = _from_amplitudes(amp, anomalous)
    return _track(*sums), covs


def _row_blocks(rows: int, cols: int):
    """Row slices of a complex (rows x cols) array, each <= _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // (16 * max(cols, 1)))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _growth_blocks(times: np.ndarray, lam: np.ndarray):
    """Row blocks of the (T x K) ``e^{lambda_k t_j}`` in one reused :func:`_view`.

    On a uniform grid (:func:`_uniform`) row ``j = a B + b`` is
    ``e^{lambda t_aB} e^{lambda t_b}``, with ``B = ceil(sqrt(T))`` capped
    at the rows of one block: about ``2 sqrt(T) K`` exponentials and one
    product per entry, where ``np.exp`` takes ``T K`` exponentials.  The
    arguments ``t_aB + t_b`` and ``t_j`` differ by rounding, so an entry
    moves by a few ulps times ``1 + |lambda t_j|``.  Other grids take
    ``np.exp`` of every entry.
    """
    uniform = _uniform(times)
    if uniform:
        size = min(math.isqrt(times.size - 1) + 1, _CHUNK_BYTES // (16 * lam.size))
        size = max(size, 1)
        fine = np.exp(np.multiply.outer(times[:size], lam))
        last = -1
    work = _work_arrays(lam.size)
    for block in _row_blocks(times.size, lam.size):
        growth = _view(work, 0, block.stop - block.start, lam.size)
        if uniform:
            for a in range(block.start // size, (block.stop - 1) // size + 1):
                if a != last:  # a coarse row can span two blocks
                    last, coarse = a, np.exp(times[a * size] * lam)
                lo, hi = max(block.start, a * size), min(block.stop, (a + 1) * size)
                np.multiply(
                    fine[lo - a * size: hi - a * size], coarse,
                    out=growth[lo - block.start: hi - block.start],
                )
        else:
            np.exp(np.multiply(times[block, None], lam, out=growth), out=growth)
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


def _secular_terms(model: DriftModel):
    """Poles ``d_m = gamma_perp + i Delta_m`` and weights ``w_m = p g_m^2 N_m``."""
    grid = model.grid
    poles = model.params.gamma_perp + 1j * grid.deltas
    return poles, model.p * grid.couplings**2 * grid.spins


def _seeds(shift: complex, poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The decoupled cavity root ``-shift``, then one seed per pole.

    The weak-coupling seed of pole m is ``-d_m + w_m / (shift - d_m)``;
    a pole at ``-shift`` has none and takes the root of its 2 x 2 block
    ``(z + shift)(z + d_m) = w_m`` nearest ``-d_m`` instead.
    """
    seeds = np.empty(poles.size + 1, dtype=complex)
    seeds[0] = -shift
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        seeds[1:] = -poles + weights / (shift - poles)
        bad = ~np.isfinite(seeds[1:])
        gap, w = shift - poles[bad], weights[bad]
        root = np.sqrt(gap * gap + 4.0 * w)
        root = np.where((gap.conjugate() * root).real < 0.0, -root, root)
        seeds[1:][bad] = -poles[bad] + 2.0 * w / (gap + root)
    return seeds


def _collective_seeds(shift: float, poles, weights, centre_seed) -> np.ndarray:
    """Seeds of the two roots of a mirrored problem not seeded at pole pairs.

    ``poles`` holds the real centre pole ``d_0`` and then one member of
    each mirrored pair; ``centre_seed`` is the weak-coupling seed of
    ``d_0``.  They come from the 2 x 2 problem of the cavity and the
    whole line on ``d_0``, ``(z + shift)(z + d_0) = W = sum_m w_m``.
    When the full secular function has no real roots off the pole pairs
    (:func:`_real_pair` decides for negative weights; positive ones
    always leave some), this returns one seed: the 2 x 2 root with
    positive imaginary part, which is then complex and stands for a
    conjugate pair.  Otherwise it returns two real seeds: the 2 x 2 root
    nearest ``-shift`` (the midpoint of the two if they are complex)
    and, for the root next to ``d_0``, the other 2 x 2 root when the
    line is strongly coupled, else ``centre_seed``.  On the real axis
    ``F`` keeps the sign it has next to the pole from ``d_0`` out to
    that root, so ``F`` at the geometric mean of the two candidates'
    distances from ``d_0`` tells which one lies nearer.
    """
    centre, w0 = poles[0].real, weights[0]
    mid, half = -(shift + centre) / 2.0, (shift - centre) / 2.0
    total = w0 + 2.0 * weights[1:].sum()
    halves = poles[1:].imag
    if w0 < 0.0 and not _real_pair(2.0 * abs(half), halves, weights):
        return np.array([complex(mid, math.sqrt(max(-total - half * half, 0.0)))])
    root = math.copysign(math.sqrt(max(half * half + total, 0.0)), half)
    near, far = centre_seed.real + centre, mid + root + centre  # t = z + d_0
    if root != 0.0 and near * far > 0.0:
        t = math.copysign(math.sqrt(near * far), far)
        if (2.0 * half + _odd_part(np.array([t]), halves, weights)[0]) * w0 * t < 0.0:
            return np.array([mid - root, far - centre], dtype=complex)
    return np.array([mid - root, centre_seed])


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

    On the real axis the secular function is ``phi(t) + shift - d_0``
    with ``phi`` of :func:`_odd_part`, odd in ``t = z + d_0`` and
    positive for ``t > 0``, so it has real roots if and only if ``phi``
    falls to ``level = |shift - d_0|`` somewhere on ``t > 0``, which needs
    ``t <= level`` and ``-w_0 / t <= level``.  No term of ``phi``
    changes by more than a factor ``r`` over a factor ``r`` in ``t``, so
    on ``[a, r a]`` ``phi`` stays above ``sqrt(phi(a) phi(r a) / r)``.
    A geometric ladder is refined where that bound still reaches
    ``level`` until a sample does (real roots), none can (none), or
    after 12 halvings or beyond 256 open intervals, where ``min phi``
    lies within ~1e-4 of ``level`` or ``phi`` is very flat: the roots
    are then nearly double, and taken as real.
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
    """Two complex work arrays of ``_CHUNK_BYTES`` for :func:`_view`.

    Every block array of the secular kernel and :func:`_growth_blocks`
    lives in them: fresh arrays that large cost more to allocate than to fill.
    """
    return np.empty((2, max(_CHUNK_BYTES // 16, width)), dtype=complex)


def _view(work, index, count, columns, dtype=complex) -> np.ndarray:
    """A (count x columns) view of work array ``index``."""
    return work[index].view(dtype)[: count * columns].reshape(count, columns)


def _split_sums(z, shift, poles, weights, pairs, work) -> tuple:
    """Secular sums at ``z`` with the nearest pole, or pole pair, split off.

    With ``F_k`` and ``S_k`` the sums over the other poles,
    ``F = F_k - v / q``: ``q = e = z + d_k`` and ``v = w_k`` for an
    unpaired pole, ``q = (y + iD)(y - iD)``, ``y = z + g`` and
    ``v = 2 w_k y`` for the pair ``g +- iD``.  Returns
    ``(F_k, F_k', S_k, q, v, q', v')``; the split-off factor stays finite
    and uncancelled at the pole.  The poles are laid out as in
    :func:`_aberth_roots`, and every (rows x poles) array lives in
    ``work`` (:func:`_work_arrays`).
    """
    single = poles.size - pairs
    lone_poles, lone_weights = poles[:single], weights[:single]
    count = z.size
    at = np.arange(count)
    gap = np.add(z[:, None], lone_poles, out=_view(work, 0, count, single))
    dist = np.abs(gap, out=_view(work, 1, count, single, float))
    near = dist.argmin(axis=1)
    q = gap[at, near]
    v = lone_weights[near].astype(complex)
    dq = np.ones(count, dtype=complex)
    dv = np.zeros(count)
    if pairs:
        halves, pair_weights = poles[single:].imag, weights[single:]
        y = z + lone_poles[-1].real
        k = _nearest(halves, np.abs(y.imag))
        pair_dist = np.hypot(y.real, np.abs(y.imag) - halves[k])
        split = pair_dist < dist[at, near]
        ys, ws, hs = y[split], pair_weights[k[split]], 1j * halves[k[split]]
        q[split], v[split] = (ys + hs) * (ys - hs), 2.0 * ws * ys
        dq[split], dv[split] = 2.0 * ys, 2.0 * ws
        gap[at[~split], near[~split]] = np.inf
    else:
        gap[at, near] = np.inf
    inv = np.divide(1.0, gap, out=gap)
    terms = np.multiply(lone_weights, inv, out=_view(work, 1, count, single))
    f = z + shift - terms.sum(axis=1)
    df = 1.0 + np.multiply(terms, inv, out=terms).sum(axis=1)
    rest = inv.sum(axis=1)
    if pairs:
        # 1/(z + d) + 1/(z + conj d) = 2y / (y^2 + D^2), and the squares
        # add up to 4y^2 / (y^2 + D^2)^2 - 2 / (y^2 + D^2); y^2 + D^2
        # cancels only next to a pole, and the nearest pair was split off
        # above in the product form
        inv = np.add((y * y)[:, None], halves**2, out=_view(work, 0, count, pairs))
        inv[at[split], k[split]] = np.inf
        inv = np.divide(1.0, inv, out=inv)
        terms = np.multiply(pair_weights, inv, out=_view(work, 1, count, pairs))
        pole_sum = terms.sum(axis=1)
        f -= 2.0 * y * pole_sum
        df += 4.0 * y * y * np.multiply(terms, inv, out=terms).sum(axis=1)
        df -= 2.0 * pole_sum
        rest += 2.0 * y * inv.sum(axis=1)
    return f, df, rest, q, v, dq, dv


def _residue_pass(roots, poles, weights, pairs, work) -> np.ndarray:
    """Residues ``1 / F'`` at ``roots``, in the split-off form of :func:`_split_sums`.

    ``F' = F_k' + (v q' - v' q) / q^2``, so ``1 / F' = q^2 / (F_k' q^2 -
    (v' q - v q'))``: O(M) per root, zero on a pole, and with no
    cancellation next to one.
    """
    residues = np.empty(roots.size, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for block in _row_blocks(roots.size, poles.size):
            _, df, _, q, v, dq, dv = _split_sums(
                roots[block], 0.0, poles, weights, pairs, work
            )
            residues[block] = q * q / (df * q * q - (dv * q - v * dq))
    return residues


def _aberth_roots(shift, poles, weights, seeds, pairs=0, root_pairs=0):
    """Roots of ``z + shift - sum_m weights_m / (z + poles_m)`` from ``seeds``.

    The poles must be distinct and the weights nonzero; n poles give
    n + 1 roots.  The last ``pairs`` poles each stand for themselves and
    their conjugates, of equal weight; they must share the real part of
    the last unpaired pole and have increasing, positive imaginary
    parts.  The last ``root_pairs`` seeds likewise stand for conjugate
    pairs, and with any pair the other seeds must be real.  Returns
    ``(roots, residues)``: the unpaired roots, the paired ones and their
    conjugates, and the residue ``1 / F'`` of each from one more pass
    at the settled roots (:func:`_residue_pass`).  Returns ``None`` when
    the iteration does not settle every root (see
    :func:`arrowhead_eigenvalues`).
    """
    if poles.size == 0:
        return seeds.copy(), np.ones(seeds.size, dtype=complex)
    roots = seeds.copy()
    lone = roots.size - root_pairs
    mirrored = pairs + root_pairs > 0
    floor = max(abs(shift), float(np.abs(poles).max()))
    tol = 4.0 * np.finfo(float).eps
    width = max(poles.size, roots.size)
    work = _work_arrays(width)

    active = np.arange(roots.size)
    for _ in range(_ABERTH_MAX_ITER):
        steps = np.empty(active.size, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for block in _row_blocks(active.size, width):
                rows = active[block]
                z = roots[rows]
                # P'/P = G'/G + S_k for P = F prod_m (z + d_m), G = F_k q - v
                f, df, rest, q, v, dq, dv = _split_sums(
                    z, shift, poles, weights, pairs, work
                )
                count = rows.size
                at = np.arange(count)
                own = rows < lone
                diff = np.subtract(
                    z[:, None], roots[:lone], out=_view(work, 0, count, lone)
                )
                diff[at[own], rows[own]] = np.inf
                rest -= np.divide(1.0, diff, out=diff).sum(axis=1)
                if root_pairs:
                    # 1/(z - a) + 1/(z - conj a) = 2x / (x^2 + Im(a)^2)
                    # with x = z - Re(a); a paired root keeps its own conjugate
                    partner = roots[lone:]
                    x = np.subtract(
                        z[:, None], partner.real, out=_view(work, 0, count, root_pairs)
                    )
                    quad = np.multiply(x, x, out=_view(work, 1, count, root_pairs))
                    quad += partner.imag**2
                    quad[at[~own], rows[~own] - lone] = np.inf
                    x += x
                    rest -= np.divide(x, quad, out=x).sum(axis=1)
                    rest[~own] -= 0.5 / (1j * z[~own].imag)
                # 1 / (P'/P - sum_j 1/(z_i - z_j)), zero at an exact root
                num, den = df * q + f * dq - dv, f * q - v
                steps[block] = den / (num + den * rest)
        if not np.all(np.isfinite(steps)):
            return None
        if mirrored:
            # the unpaired roots of a mirrored problem are real, and so are
            # their steps but for rounding, which would pull them off
            steps[active < lone] = steps[active < lone].real
        roots[active] -= steps
        settled = np.abs(steps) <= tol * np.maximum(np.abs(roots[active]), floor)
        active = active[~settled]
        if active.size == 0:
            break
    else:
        return None
    residues = _residue_pass(roots, poles, weights, pairs, work)
    # sum_k 1 / |F'(lambda_k)| bounds the roots' condition
    size = np.abs(residues[:lone]).sum() + 2.0 * np.abs(residues[lone:]).sum()
    if not size <= _RESIDUE_BOUND:
        return None
    pair = slice(lone, None)
    return (np.concatenate([roots, roots[pair].conjugate()]),
            np.concatenate([residues, residues[pair].conjugate()]))


def _nearest(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of the entry of the increasing ``values`` nearest each target."""
    upper = np.minimum(np.searchsorted(values, targets), values.size - 1)
    lower = np.maximum(upper - 1, 0)
    return np.where(targets - values[lower] <= values[upper] - targets, lower, upper)


def arrowhead_eigenvalues(model: DriftModel) -> tuple:
    """Eigenvalues of the arrowhead matrix and the path that found them.

    The M+1 eigenvalues are the roots of the secular function
    ``F(lambda) = lambda + c - sum_m w_m / (lambda + d_m)`` with
    ``c = kappa + i delta_cs``, ``w_m = p g_m^2 N_m`` and
    ``d_m = gamma_perp + i Delta_m``; the matrix itself is never built
    unless the dense fallback runs.

    Deflation (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172
    (1995)): a decoupled sub-ensemble (``w_m = 0``) keeps the eigenvalue
    ``-d_m`` exactly, and k sub-ensembles sharing one pole keep k - 1
    eigenvalues ``-d_m`` and enter ``F`` as one pole of summed weight.

    The remaining roots come from the Aberth-Ehrlich iteration (Aberth,
    Math. Comp. 27, 339 (1973); for secular equations Bini & Robol,
    J. Comput. Appl. Math. 272, 276 (2014)) on the numerator
    ``P(lambda) = F(lambda) prod_m (lambda + d_m)``, all roots updated at
    once from the previous iterate:
    ``lambda_i <- lambda_i - 1 / (F'/F + sum_m 1/(lambda_i + d_m)
    - sum_{j != i} 1/(lambda_i - lambda_j))``.  The pole nearest each
    iterate is split off: with ``e = lambda_i + d_k`` and ``F_k``,
    ``S_k`` the sums over the other poles,
    ``P'/P = (F_k' e + F_k) / (F_k e - w_k) + S_k``, which has no
    cancellation near the pole and stays finite on it (the seed of a
    far-tail sub-ensemble can round onto its pole).  The seeds are
    the decoupled cavity root ``-c`` and the weak-coupling roots
    ``-d_m + w_m / (c - d_m)``; a pole with ``d_m = c``, where that seed
    is infinite, is seeded with the root of its 2 x 2 block
    ``(lambda + c)(lambda + d_m) = w_m`` nearest ``-d_m``.  A root is
    frozen once its step is at most
    ``4 eps max(|lambda_i|, |c|, max_m |d_m|)``: the absolute floor stops
    roots near the band centre, which jitter at the rounding level of
    ``F`` and never meet a purely relative test.  Each iteration costs
    O(M) per unfrozen root, with its (roots x M) work arrays cut into
    row blocks of at most ``_CHUNK_BYTES`` (256 KiB) each.  Once every
    root is frozen, one more pass at the final roots forms the residues
    ``1 / F'(lambda_k)`` in the same split-off form, with no root sums
    (:func:`_residue_pass`): the residues the kicked field and the
    eigenvectors need, and the gate below.  The ``1 / F'`` of the last
    step is taken before the step, which moves the kicked field by up to
    2e-12 of the kick near threshold, so it is not reused.

    Mirrored lines: when ``delta_cs = 0`` and the coupled poles and
    their weights are mirror-symmetric about ``Delta = 0`` to the bit,
    with an odd count (every grid of :func:`~spincavity.broadening.discretize`),
    ``F`` is real on the real axis and the roots are real or come in
    conjugate pairs.  The same iteration then runs on the real roots and
    one member of each pair, with each mirrored pole pair and each
    conjugate root pair summed in closed form
    (``1/(y + iD) + 1/(y - iD) = 2y / (y^2 + D^2)``): half the rows and
    half the columns, and a pole pair nearest an iterate is split off as
    a whole.  The two roots not seeded at pole pairs come from the 2 x 2
    problem of the cavity and the whole line on the centre pole
    (:func:`_collective_seeds`).

    Fallbacks, in order: a mirrored line whose folded iteration does not
    settle takes the general iteration from the same seeds, and the
    dense ``numpy.linalg.eigvals`` of :attr:`DriftModel.arrowhead`, within
    the dense budget (:func:`_check_dense`), runs when that does not
    settle either.  An iteration does not settle when
    a step is not finite, when a root is still moving after
    ``_ABERTH_MAX_ITER`` iterations, or when
    ``sum_k 1 / |F'(lambda_k)|`` exceeds ``_RESIDUE_BOUND``: that sum
    grows without bound as roots merge at an exceptional point, where
    the roots are known only to about the square root of the rounding
    error.  A dense ``LinAlgError`` raises :class:`NumericalError`.

    Dense roots take the same residue pass.  Returns
    ``(eigenvalues, fallback)``, ``fallback`` telling whether the
    dense path ran.  The eigenvalues and their conjugates are the
    spectrum of the real drift.  They are read-only: a model is solved
    once, and every function of this module reads the same roots
    (:func:`_spectrum`).
    """
    spectrum = _spectrum(model)
    return spectrum.lam, spectrum.dense


def _roots(model: DriftModel) -> tuple:
    """Roots, their gated residues and whether dense ``eigvals`` found the roots.

    The residues ``r_k = 1 / F'(lambda_k)`` come from the secular solve,
    or from :func:`_residue_pass` at the dense roots.  They are ``None``
    when a pole was deflated (no closed-form eigenvector) or unless
    ``sum_k |r_k| <= _RESIDUE_BOUND`` and ``|sum_k r_k - 1| <= 1e-10``
    (see :func:`field_kick_response`), a gate that a NaN fails.
    """
    poles, weights = _secular_terms(model)
    coupled = weights != 0.0
    merged, first, index = np.unique(
        poles[coupled], return_index=True, return_inverse=True
    )
    merged_weights = np.zeros(merged.size)
    np.add.at(merged_weights, index, weights[coupled])
    deflated = np.concatenate([poles[~coupled], np.delete(poles[coupled], first)])
    shift = complex(model.params.kappa, model.params.delta_cs)
    seeds = _seeds(shift, merged, merged_weights)
    found = None
    # np.unique sorts the poles, which share one real part, by Delta
    half = merged.size // 2
    if (
        shift.imag == 0.0 and merged.size % 2 == 1
        and np.array_equal(merged, merged[::-1].conjugate())
        and np.array_equal(merged_weights, merged_weights[::-1])
    ):
        upper, upper_weights = merged[half:], merged_weights[half:]
        collective = _collective_seeds(
            shift.real, upper, upper_weights, seeds[half + 1]
        )
        if collective.size == 2:
            lone, paired = collective, seeds[half + 2:]
        else:
            lone, paired = seeds[:0], np.concatenate([collective, seeds[half + 2:]])
        found = _aberth_roots(
            shift, upper, upper_weights, np.concatenate([lone, paired]),
            pairs=half, root_pairs=paired.size,
        )
        # the general iteration starts from the same seeds
        seeds = np.concatenate([lone, paired, paired.conjugate()])
    if found is None:
        found = _aberth_roots(shift, merged, merged_weights, seeds)
    if found is not None:
        roots, residues = found
        lam, dense = np.concatenate([roots, -deflated]), False
    else:
        _check_dense(model)
        try:
            lam, dense = np.linalg.eigvals(model.arrowhead), True
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
        residues = _residue_pass(
            lam, merged, merged_weights, 0, _work_arrays(merged.size)
        )
    with np.errstate(invalid="ignore", over="ignore"):
        gated = (
            deflated.size == 0
            and np.abs(residues).sum() <= _RESIDUE_BOUND
            and abs(residues.sum() - 1.0) <= 1e-10
        )
    return lam, residues if gated else None, dense


@dataclass
class _Spectrum:
    """The arrowhead spectrum of one model, and what is built from it.

    ``lam``, ``residues`` and ``dense`` are :func:`_roots` of the model;
    the eigenvectors (:func:`_eigensystem`) are filled in on first use.
    Every array is read-only.
    """

    lam: np.ndarray
    residues: np.ndarray | None
    dense: bool
    vectors: tuple | None = None  # (right, left)


def _spectrum(model: DriftModel) -> _Spectrum:
    """The model's spectrum, from one secular solve.

    The last model's record is kept for as long as that model lives and
    the gate constants stay as they were, so the abscissa, the kicked
    field, the means, the covariance and the steady state of one model
    share one solve.
    """
    key = (_RESIDUE_BOUND, _ABERTH_MAX_ITER)
    if _MEMO and _MEMO[0]() is model and _MEMO[1] == key:
        return _MEMO[2]
    _MEMO.clear()
    spectrum = _Spectrum(*_roots(model))
    for array in (spectrum.lam, spectrum.residues):
        if array is not None:
            array.flags.writeable = False
    _MEMO.extend([weakref.ref(model, _forget), key, spectrum])
    return spectrum


def _forget(ref):
    if _MEMO and _MEMO[0] is ref:
        _MEMO.clear()


def _eigensystem(model: DriftModel) -> tuple:
    """Arrowhead eigenvalues and, where they pass the gates, eigenvectors.

    With ``b_m = H_0m``, ``c_m = H_m0`` and ``d_m = -H_mm`` the right
    and left eigenvectors of the root ``lambda_k`` have the closed form
    ``v_k = (1, c_m / (lambda_k + d_m))`` and
    ``u_k = (1, b_m / (lambda_k + d_m)) r_k`` with the residue
    ``r_k = 1 / F'(lambda_k)``, normalized to ``u_k v_k = 1`` because
    ``b_m c_m = p g_m^2 N_m`` (Gu & Eisenstat 1995); building them costs
    O(M^2) and no dense ``eig``.  Returns ``(lam, vectors)`` with
    ``vectors = (right, left)``, the ``v_k`` as the columns of ``right``
    and the ``u_k`` as the rows of ``left = right^{-1}``.  ``vectors`` is
    ``None`` when the roots came from dense ``eigvals``, or when a pole
    was deflated (its eigenvector is not of this form) or the residues
    fail their gate (:func:`_roots`), whose ``sum_k r_k = 1`` is
    ``(right left)_00 = 1``.  The model is first checked against the
    dense budget (:func:`_check_dense`).
    """
    _check_dense(model)
    spectrum = _spectrum(model)
    residues = spectrum.residues
    if spectrum.vectors is None and not spectrum.dense and residues is not None:
        lam, poles = spectrum.lam, _secular_terms(model)[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cauchy = 1.0 / (lam + poles[:, None])  # 1 / (lambda_k + d_m)
        if np.all(np.isfinite(cauchy)):
            _, row, col = model._arrowhead_border()
            right = np.vstack([np.ones(lam.size), col[:, None] * cauchy])
            left = np.hstack([np.ones((lam.size, 1)), cauchy.T * row])
            spectrum.vectors = (right, left * residues[:, None])
            for array in spectrum.vectors:
                array.flags.writeable = False
    return spectrum.lam, spectrum.vectors


def spectral_abscissa(model: DriftModel) -> float:
    """Largest real part over the drift-matrix spectrum."""
    return float(arrowhead_eigenvalues(model)[0].real.max())


def field_kick_response(model: DriftModel, times) -> tuple:
    """Kicked cavity field ``a(t) / a(0)`` from the arrowhead spectrum.

    After a field kick (``a(0) != 0``, every ``s_m(0) = 0``) the field
    is ``a(t) / a(0) = [e^{H t}]_00 = sum_k r_k e^{lambda_k t}``, the
    partial-fraction expansion of ``1 / F``, with the roots ``lambda_k``
    of :func:`arrowhead_eigenvalues` and the residues
    ``r_k = 1 / F'(lambda_k)`` that the secular solve leaves with them
    (gated in :func:`_roots`).  The cost is the O(M^2) solve, then about
    ``2 sqrt(T) K`` exponentials and ``T K`` products for ``e^{lambda_k
    t_j}`` on a uniform grid (:func:`_growth_blocks`; ``T K``
    exponentials on any other) and one (T x K) product with the
    residues, with no eigenvectors and no time stepping.  The
    exponentials fill row blocks of one reused work array of
    ``_CHUNK_BYTES`` (:func:`_work_arrays`).

    The residues add up to 1, the response at ``t = 0``, from terms as
    large as ``|r_k|``.  Near an exceptional point two roots merge, their
    residues blow up with opposite signs, and a backward-stable solver
    leaves an error in the field that grows like
    ``eps * (sum_k |r_k|)^2`` (1e-13, 1e-12 and 2e-10 of the kick at
    ``sum_k |r_k|`` = 22, 70 and 700 next to the homogeneous double
    root).  So the expansion is used only while ``sum_k |r_k| <= 100``
    (an error near 2e-12) and ``sum_k r_k = 1`` holds to 1e-10.
    Otherwise, or with a non-finite residue or a deflated pole (a
    sub-ensemble decoupled at ``g_m = 0``, or two sharing one detuning),
    the field is propagated with :func:`evolve_mean` from the kicked
    state.

    Returns ``(response, fallback)``: the complex response on
    ``times`` and whether the :func:`evolve_mean` path was taken.
    """
    times = _validate_times(times)
    check_revival_window(model.grid, model.params.gamma_perp, times[-1])
    spectrum = _spectrum(model)
    if spectrum.residues is not None:
        response = np.empty(times.size, dtype=complex)
        for block, growth in _growth_blocks(times, spectrum.lam):
            response[block] = growth @ spectrum.residues
        return response, False
    y0 = np.zeros(model.dim)
    y0[0] = 1.0
    means = evolve_mean(model, y0, times).means
    return means[:, 0] + 1j * means[:, 1], True


def _signs(size: int) -> np.ndarray:
    """Sign of the second quadrature in each amplitude: ``s_m = S_x - i S_y``."""
    signs = -np.ones(size)
    signs[0] = 1.0
    return signs


def _to_amplitudes(gamma: np.ndarray) -> tuple:
    """``C = T gamma T^H`` and the anomalous ``T gamma T^T``.

    ``T`` maps the state to the amplitudes ``a = X_c + i P_c`` and
    ``s_m = S_x - i S_y``.
    """
    signs = _signs(gamma.shape[0] // 2)
    xx, xy = gamma[0::2, 0::2], gamma[0::2, 1::2] * signs
    yx = signs[:, None] * gamma[1::2, 0::2]
    yy = signs[:, None] * gamma[1::2, 1::2] * signs
    return xx + yy + 1j * (yx - xy), xx - yy + 1j * (yx + xy)


def _from_amplitudes(amp: np.ndarray, anomalous=None) -> np.ndarray:
    """Real ``gamma`` of a Hermitian ``C`` and an anomalous ``A`` (``None``: 0)."""
    signs = _signs(amp.shape[0])
    plus = minus = amp / 2.0
    if anomalous is not None:
        plus, minus = (amp + anomalous) / 2.0, (amp - anomalous) / 2.0
    gamma = np.empty((2 * amp.shape[0],) * 2)
    gamma[0::2, 0::2] = plus.real
    gamma[1::2, 1::2] = signs[:, None] * minus.real * signs
    gamma[1::2, 0::2] = signs[:, None] * plus.imag
    gamma[0::2, 1::2] = -minus.imag * signs
    return (gamma + gamma.T) / 2.0


def _noise(model: DriftModel) -> np.ndarray:
    """Diagonal of the amplitude noise ``D = T N T^H``."""
    return model.noise_diag[0::2] + model.noise_diag[1::2]


class _Steady(NamedTuple):
    """Steady covariance from the eigen-system (:func:`_spectral_steady`)."""

    tilde: np.ndarray  # in the eigenbasis
    amp: np.ndarray  # in the amplitudes
    residual: float  # largest Lyapunov residual entry or its rounding, unscaled


def _spectral_steady(model: DriftModel, lam, right, left) -> _Steady | None:
    """Steady covariance in the eigenbasis and in amplitudes, or ``None``.

    ``C~_kl = -D~_kl / (lambda_k + conj(lambda_l))`` with
    ``D~ = left D left^H`` and ``C = right C~ right^H``; ``None`` when
    ``C`` fails :func:`_lyapunov_check`.

    :func:`evolve_covariance` also needs ``residual`` within
    ``_LYAPUNOV_RTOL`` of the largest noise entry.  Rounding leaves a
    residual near ``eps ||H|| ||C_inf||``, so this holds while ``C_inf``
    is at most ~10^5 times ``||D|| / ||H||``; beyond, near threshold,
    ``C(t) = C_inf + (C(t) - C_inf)`` cancels too many digits and it
    takes Van Loan steps instead.  Along the slow mode the measured
    residual can fall far below that rounding level (1e-13 of the noise
    at N = 1e5 and C = 1 - 1e-9, where the track still loses 7e-8), so
    ``residual`` is the larger of the two, in balanced units
    (:func:`_balance`) scaled to the largest noise entry.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tilde = -((left * _noise(model)) @ left.conj().T) / (lam[:, None] + lam.conj())
        amp = right @ tilde @ right.conj().T
        amp = (amp + amp.conj().T) / 2.0
        residual, worst, bound = _lyapunov_check(model, amp)
        # the real residual holds the halved real and imaginary parts
        unscaled = max(np.abs(residual.real).max(), np.abs(residual.imag).max()) / 2.0
    if not worst <= bound:
        return None
    # bound / _LYAPUNOV_RTOL is ||H|| ||C|| + ||D||, balanced
    floor = np.abs(_balance(model) ** 2 * _noise(model)).max()
    rounding = np.finfo(float).eps * (bound / _LYAPUNOV_RTOL - floor) / floor
    return _Steady(tilde, amp, max(float(unscaled), rounding * model.noise_diag.max()))


def _balance(model: DriftModel) -> np.ndarray:
    """Amplitude scales: 1 for the field, ``1 / sqrt(N_m)`` for the spins.

    Unscaled, the couplings span ``sqrt(N)`` to ``1 / sqrt(N)`` and the
    variances ``1`` to ``N``; scaled, both are of order one.
    """
    spins = model.grid.spins
    return np.concatenate(([1.0], 1.0 / np.sqrt(np.where(spins > 0.0, spins, 1.0))))


def _lyapunov_check(model: DriftModel, amp: np.ndarray) -> tuple:
    """Residual ``R = H C + C H^H + D`` of a steady ``C``, in O(M^2).

    Returns ``(R, worst, bound)``: the largest entry of ``R`` and the
    backward-stable bound ``_LYAPUNOV_RTOL (||H|| ||C|| + ||D||)`` (the
    infinity norm of ``H``, the largest entries of ``C`` and ``D``), all
    in the balanced coordinates of :func:`_balance`.  ``C`` passes when
    ``worst <= bound``.  Near threshold ``C`` grows as ``1 / (1 - C)``
    and the rounding of ``H C`` with it: a bound on ``D`` alone fails
    every solver there.
    """
    noise = _noise(model)
    diag, row, col = model._arrowhead_border()
    scale = _balance(model)
    scales = np.outer(scale, scale)
    # infinity norm of the balanced arrowhead, scale H / scale
    norm = max(
        abs(diag[0]) + np.abs(row / scale[1:]).sum(),
        (np.abs(diag[1:]) + np.abs(col * scale[1:])).max(),
    )
    product = diag[:, None] * amp  # H C
    product[0] += row @ amp[1:]
    product[1:] += col[:, None] * amp[0]
    residual = product + product.conj().T + np.diag(noise)
    worst = np.abs(scales * residual).max()
    bound = _LYAPUNOV_RTOL * (
        norm * np.abs(scales * amp).max() + np.abs(scale**2 * noise).max()
    )
    return residual, worst, bound


def _spectral_covariance(times, lam, right, left, steady, amp0, store_full):
    """Variance track, and optionally the matrices, from the eigen-system.

    ``C(t) = C_inf + right e^{Lambda t} (C~_0 - C~_inf) e^{Lambda^H t}
    right^H`` with ``C~_0 = left C_0 left^H``.  The track needs only
    ``C_00``, ``1^T C_ss 1`` and ``C_0s 1``, the forms ``x C~ y^H`` of
    the field row ``x`` of ``right`` and the sum ``y`` of its spin rows;
    on a block of output times each is one (times x K)(K x K) product
    with ``e^{lambda_k t}`` (:func:`_growth_blocks`) folded into the
    rows, so any grid costs about the same.  ``C_inf`` enters through
    :func:`_sums`, as in the steady values of :func:`evolve_covariance`,
    so ``R(t)`` subtracts one rounding of it.
    """
    tilde_inf, amp_inf = steady.tilde, steady.amp
    diff = left @ amp0 @ left.conj().T - tilde_inf
    field, spins = right[0], right[1:].sum(axis=0)
    forms = np.empty((times.size, 3), dtype=complex)
    for block, growth in _growth_blocks(times, lam):
        x, y = growth * field, growth * spins
        xd = x @ diff
        forms[block, 0] = (xd * x.conj()).sum(axis=1)
        forms[block, 1] = ((y @ diff) * y.conj()).sum(axis=1)
        forms[block, 2] = (xd * y.conj()).sum(axis=1)
    covs = None
    if store_full:
        covs = np.empty((times.size, 2 * lam.size, 2 * lam.size))
        for k, t in enumerate(times):
            grown = right * np.exp(lam * t)
            covs[k] = _from_amplitudes(amp_inf + grown @ diff @ grown.conj().T)
    sums = np.column_stack([forms.real[:, :2], forms.imag[:, 2]]) + _sums(amp_inf)
    return _track(sums), covs


def steady_state_covariance(model: DriftModel) -> np.ndarray:
    """Solve the algebraic Lyapunov equation of the model.

    Requires a strictly stable drift (spectral abscissa < 0).  The steady
    ``C_inf = right C~_inf right^H`` comes from the eigen-system (see
    :func:`evolve_covariance`) and must pass :func:`_lyapunov_check`.
    When the eigenvectors fail their gates or the check fails,
    ``H C + C H^H + D = 0`` is solved by Bartels-Stewart
    (:func:`scipy.linalg.solve_continuous_lyapunov`) on the balanced
    ``H``, made Hermitian and checked the same way, with one refinement
    pass before giving up.  Returns the real ``gamma``.
    """
    return _from_amplitudes(_steady_state(model)[0])


def _steady_state(model: DriftModel, lam=None, steady=None) -> tuple:
    """Steady ``C`` and whether Bartels-Stewart produced it.

    ``lam`` and ``steady`` (:func:`_spectral_steady`) are found when not given.
    """
    if lam is None:
        lam, vectors = _eigensystem(model)
        if vectors is not None and lam.real.max() < 0.0:
            steady = _spectral_steady(model, lam, *vectors)
    abscissa = float(lam.real.max())
    if abscissa >= 0.0:
        raise UnstableModelError(
            "no steady state: spectral abscissa "
            f"{abscissa:.3e} >= 0 (second moments diverge)"
        )
    if steady is not None:
        return steady.amp, False
    # solved with the spin amplitudes scaled by 1 / sqrt(N_m): unscaled,
    # the couplings span sqrt(N) to 1 / sqrt(N), and at N = 1e11 the
    # solver returns a negative field variance that passes the residual
    scale = _balance(model)
    scales = np.outer(scale, scale)
    balanced = scale[:, None] * model.arrowhead / scale

    def solve(source):
        """``C`` with ``H C + C H^H + source = 0``."""
        from scipy.linalg import solve_continuous_lyapunov

        amp = solve_continuous_lyapunov(balanced, -scales * source)
        return (amp + amp.conj().T) / (2.0 * scales)

    amp = solve(np.diag(_noise(model)))
    for refine in (True, False):
        residual, worst, bound = _lyapunov_check(model, amp)
        if worst <= bound:
            return amp, True
        if refine:
            amp = amp + solve(residual)
    raise NumericalError(
        f"Lyapunov residual {worst:.3e} exceeds {bound:.3e} "
        "(spin amplitudes scaled by 1 / sqrt(N_m))"
    )
