"""Cost of the model and dynamics calls against the sub-ensemble count M.

Each call is timed on a ladder of M for a Gaussian line at C = 0.5 and
Gamma = 1, with gamma_perp = 0.25 so that even the coarsest grid is
stable, and a power law ``t ~ M^k`` is fitted by least squares in
log-log. The dense eigen, Lyapunov and covariance rungs stop at smaller
M because they grow 4-8x per doubling; windows are short for the same
reason. Runs only in the traced run and is not gated.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from spincavity.broadening import BroadeningSpec, discretize, solve_width_for_gamma
from spincavity.dynamics import (
    evolve_covariance,
    evolve_mean,
    spectral_abscissa,
    steady_state_covariance,
)
from spincavity.model import SystemParams, build_drift_matrix, initial_state

SMALL = (51, 101, 201)
MEDIUM = (51, 101, 201, 401)
LARGE = (51, 101, 201, 401, 801)


def _timed(fn, min_seconds: float = 0.05, max_repeats: int = 20) -> float:
    """Median seconds per call, repeating short calls."""
    samples = []
    while len(samples) < max_repeats and sum(samples) < min_seconds:
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def ladder() -> tuple[list, dict]:
    """Timing table rows and the fitted exponent of each call."""
    gamma_perp, g_ens, n_spins = 0.25, 2.0, 1e6
    spec = BroadeningSpec("gaussian", solve_width_for_gamma("gaussian", 1.0, gamma_perp))
    params = SystemParams(kappa=8.0, gamma_perp=gamma_perp, g_ens=g_ens)
    grids = {m: discretize(spec, m, g_ens, n_spins) for m in LARGE}
    models = {m: build_drift_matrix(params, grids[m], 1) for m in LARGE}
    states = {m: initial_state("tilted-spin", grids[m], theta=1e-3) for m in LARGE}
    mean_times = np.linspace(0.0, 1.0, 11)
    cov_times = np.linspace(0.0, 0.1, 3)
    calls = {
        "broadening.discretize": (LARGE, lambda m: discretize(spec, m, g_ens, n_spins)),
        "model.build_drift_matrix": (LARGE, lambda m: build_drift_matrix(params, grids[m], 1)),
        "dynamics.spectral_abscissa": (MEDIUM, lambda m: spectral_abscissa(models[m])),
        "dynamics.evolve_mean": (
            LARGE, lambda m: evolve_mean(models[m], states[m][0], mean_times)
        ),
        "dynamics.steady_state_covariance": (SMALL, lambda m: steady_state_covariance(models[m])),
        "dynamics.evolve_covariance": (
            SMALL,
            lambda m: evolve_covariance(models[m], states[m][1], cov_times, store_full=False),
        ),
    }
    table, exponents = [], {}
    for name, (ms, call) in calls.items():
        seconds = [_timed(lambda: call(m)) for m in ms]
        table.extend({"call": name, "M": m, "seconds": s} for m, s in zip(ms, seconds))
        slope = np.polyfit(np.log(ms), np.log(seconds), 1)[0]
        exponents[f"{name}.m_exponent"] = float(slope)
    return table, exponents
