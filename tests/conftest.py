"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the code paths under test: direct
quadrature for the Faddeeva function, dense scipy matrix exponentials
for mean propagation, an adaptive embedded Dormand-Prince 5(4)
integrator for covariance propagation and the driven cavity, and
Bartels-Stewart for steady states.  The package takes means,
covariances and steady states from the secular roots and residues of the
arrowhead matrix, with exact ``e^{A h}`` steps, sub-stepped Van Loan
pairs and Bartels-Stewart only as gated fallbacks.  The mean oracle
``scipy.linalg.expm`` (scaling and squaring with Pade approximants) is
separate code from the roots and residues.  The mean fallback calls the same
routine, but the oracle exponentiates ``A t`` afresh at every output
time, where the fallback repeats one step ``e^{A h}`` across a uniform
grid.  The Dormand-Prince integrator time-steps the
Lyapunov differential equation itself, and the single-exponential
:func:`vanloan_covariance` is kept as a second, small-system check; the
steady-state oracle :func:`lyapunov_oracle` runs scipy's Bartels-Stewart
solver on a balanced model with one refinement pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from spincavity.errors import NumericalError

RNG_SEED = 20260819


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)


def simpson_faddeeva(z: complex, half_range: float = 20.0, n: int = 200_001) -> complex:
    """Faddeeva function via its defining principal-value-free integral.

    w(z) = (i/pi) * int_-inf^inf exp(-t^2) / (z - t) dt  for Im z > 0.
    The integrand decays like exp(-400) at |t|=20, far below any
    tolerance used in the tests.
    """
    if z.imag <= 0:
        raise ValueError("quadrature oracle needs Im z > 0")
    t = np.linspace(-half_range, half_range, n)
    integrand = np.exp(-t * t) / (z - t)
    h = t[1] - t[0]
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return complex(1j / np.pi * (h / 3.0) * np.sum(weights * integrand))


def expm_mean(drift: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """First-moment propagation by dense matrix exponentials."""
    out = np.empty((times.size, y0.size))
    for k, t in enumerate(times):
        out[k] = expm(drift * t) @ y0
    return out


def vanloan_covariance(
    drift: np.ndarray, noise: np.ndarray, gamma0: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Exact propagation of d(gamma)/dt = A gamma + gamma A^T + N.

    Uses the Van Loan block identity: with B = [[-A, N], [0, A^T]],
    expm(B t) = [[F11, F12], [0, F22]] gives e^{A t} = F22^T and
    int_0^t e^{A s} N e^{A^T s} ds = F22^T F12.
    """
    n = drift.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -drift
    block[:n, n:] = noise
    block[n:, n:] = drift.T
    out = np.empty((times.size, n, n))
    for k, t in enumerate(times):
        full = expm(block * t)
        prop = full[n:, n:].T
        accumulated = prop @ full[:n, n:]
        out[k] = prop @ gamma0 @ prop.T + accumulated
    return out


def lyapunov_oracle(model) -> np.ndarray:
    """Bartels-Stewart steady covariance, balanced and refined once.

    The spin quadratures are scaled by ``1 / sqrt(N_m)`` first: unscaled,
    ``solve_continuous_lyapunov`` returns a negative field variance for
    a homogeneous model with N = 1e11 (drift entries 4e3 against 2e-8)
    whose residual still passes 1e-10 of the noise.  One pass on the
    residual then removes the errors near 1e-8 of the peak that its
    conditioning leaves at N = 1e9.
    """
    scale = np.ones(model.dim)
    scale[2:] = np.repeat(1.0 / np.sqrt(model.grid.spins), 2)
    drift = scale[:, None] * model.drift / scale
    noise = np.diag(scale**2 * model.noise_diag)
    gamma = solve_continuous_lyapunov(drift, -noise)
    residual = drift @ gamma + gamma @ drift.T + noise
    gamma = gamma + solve_continuous_lyapunov(drift, -residual)
    return gamma / np.outer(scale, scale)


def fit_exponential_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log|values| against time."""
    mask = np.abs(values) > 0
    coeffs = np.polyfit(times[mask], np.log(np.abs(values[mask])), 1)
    return coeffs[0]


# Embedded Dormand-Prince 5(4) propagator: the covariance and
# driven-cavity oracle.  The adaptive step controller handles widely
# separated decay rates (cavity much faster than the inhomogeneous width).

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.zeros((7, 7))
_A[1, :1] = [1 / 5]
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_B5 = _A[6].copy()  # fifth-order weights; FSAL pair
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = _B5 - _B4

_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9


def integrate(
    rhs,
    y0: np.ndarray,
    t_out,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    postprocess=None,
    max_steps: int = 2_000_000,
):
    """Propagate ``dy/dt = rhs(t, y)`` through the output times.

    Parameters
    ----------
    rhs : callable(t, y) -> dy/dt
    y0 : state at ``t_out[0]``
    t_out : increasing array of output times
    rtol, atol : adaptive error control (rms-weighted norm)
    postprocess : optional callable(y) -> y applied after every
        accepted step (used to re-symmetrize covariance matrices)
    max_steps : hard cap on accepted + rejected steps

    Returns
    -------
    ys : array of states, shape ``(len(t_out), len(y0))``
    stats : dict with ``n_accepted`` and ``n_rejected``
    """
    t_out = np.asarray(t_out, dtype=float)
    y = np.array(y0, dtype=float)
    n = y.size
    out = np.empty((t_out.size, n))
    out[0] = y
    stats = {"n_accepted": 0, "n_rejected": 0}

    t = t_out[0]
    t_end = t_out[-1]
    if t_end == t:
        return out, stats
    K = np.empty((7, n))
    K[0] = rhs(t, y)
    h = (t_end - t) * 1e-6
    io = 1
    while io < t_out.size:
        if stats["n_accepted"] + stats["n_rejected"] >= max_steps:
            raise NumericalError(
                f"propagation exceeded {max_steps} steps at t={t:.6g}"
            )
        if h < 16 * np.finfo(float).eps * max(abs(t), 1.0):
            raise NumericalError(
                f"step size underflow at t={t:.6g}; local error target "
                "cannot be met"
            )
        # never step past the next requested output time
        clipped = t + h >= t_out[io]
        h_try = t_out[io] - t if clipped else h
        for s in range(1, 7):
            K[s] = rhs(t + _C[s] * h_try, y + h_try * (_A[s, :s] @ K[:s]))
        y_new = y + h_try * (_B5 @ K)
        err = h_try * (_E @ K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        enorm = np.sqrt(np.mean((err / scale) ** 2))
        if enorm <= 1.0:
            stats["n_accepted"] += 1
            # land exactly on the output node when the step was clipped
            t = t_out[io] if clipped else t + h_try
            y = y_new
            if postprocess is not None:
                y = postprocess(y)
                K[6] = rhs(t, y)
            K[0] = K[6]  # first-same-as-last
            if clipped:
                out[io] = y
                io += 1
            factor = _MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm**-0.2)
            )
            h = h_try * factor
        else:
            stats["n_rejected"] += 1
            h = h_try * min(1.0, max(_MIN_FACTOR, _SAFETY * enorm**-0.2))
            # K[0] still holds rhs(t, y); nothing to restore
    return out, stats


def dp45_covariance(
    drift: np.ndarray,
    noise_diag: np.ndarray,
    gamma0: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Time-step d(gamma)/dt = A gamma + gamma A^T + N with DP45.

    The propagated matrix is re-symmetrized after every accepted step;
    rtol 1e-11 keeps the oracle's own error well below the 1e-8 bounds
    it is used with.
    """
    dim = drift.shape[0]
    idx_diag = np.arange(dim)

    def rhs(t, flat):
        half = drift @ flat.reshape(dim, dim)
        out = half + half.T
        out[idx_diag, idx_diag] += noise_diag
        return out.ravel()

    def resym(flat):
        gamma = flat.reshape(dim, dim)
        return ((gamma + gamma.T) / 2.0).ravel()

    flats, _ = integrate(
        rhs, gamma0.ravel(), times, rtol=1e-11, atol=1e-12,
        postprocess=resym,
    )
    return flats.reshape(times.size, dim, dim)
