"""Linearized dynamics of an inverted spin ensemble in a lossy cavity.

The package models a large collection of two-level emitters, with a
static spread of transition frequencies, coupled to a single damped
cavity mode.  It provides:

* broadening families and their discretization into sub-ensembles
  (:mod:`spincavity.broadening`),
* the drift and diffusion matrices of the linearized equations of
  motion (:mod:`spincavity.model`),
* time propagation of first and second moments plus Lyapunov steady
  states (:mod:`spincavity.dynamics`),
* closed-form stability criteria, decay laws, and pole conditions
  (:mod:`spincavity.analytics`),
* weak coherent-drive response, spectra, and inversion-loss estimates
  (:mod:`spincavity.probing`),
* a deterministic CSV-producing command line (:mod:`spincavity.cli`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .broadening import (
    BroadeningFamily,
    BroadeningSpec,
    SubEnsembleGrid,
    characteristic_width,
    density,
    discretize,
    faddeeva,
    solve_width_for_gamma,
)
from .model import (
    DriftModel,
    InitialStateKind,
    SystemParams,
    build_drift_matrix,
    build_homogeneous_Q,
    initial_state,
)
from .dynamics import (
    MomentSeries,
    arrowhead_eigenvalues,
    check_revival_window,
    evolve_covariance,
    evolve_mean,
    field_kick_response,
    spectral_abscissa,
    steady_state_covariance,
)
from .analytics import (
    StabilityReport,
    PoleRoot,
    SteadyMomentsHom,
    eigenvalue_pair,
    gaussian_pole,
    lorentzian_kick_response,
    pole_seeds,
    stability_report,
    steady_state_moments_hom,
    threshold_rate_approx,
    weak_coupling_response,
)
from .probing import (
    ProbeConfig,
    SpectrumTable,
    driven_field,
    estimate_pC,
    photon_budget,
    reflection_transmission,
    spectrum_scan,
    sz_depletion_rate,
    sz_drain_from_covariance,
    sz_drain_subensemble_sum,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NumericalError,
    PreconditionError,
    RevivalGuardError,
    SpinCavityError,
    UnstableModelError,
)

__all__ = [
    "__version__",
    "BroadeningFamily",
    "BroadeningSpec",
    "SubEnsembleGrid",
    "characteristic_width",
    "density",
    "discretize",
    "faddeeva",
    "solve_width_for_gamma",
    "DriftModel",
    "InitialStateKind",
    "SystemParams",
    "build_drift_matrix",
    "build_homogeneous_Q",
    "initial_state",
    "MomentSeries",
    "arrowhead_eigenvalues",
    "check_revival_window",
    "evolve_covariance",
    "evolve_mean",
    "field_kick_response",
    "spectral_abscissa",
    "steady_state_covariance",
    "StabilityReport",
    "PoleRoot",
    "SteadyMomentsHom",
    "eigenvalue_pair",
    "gaussian_pole",
    "lorentzian_kick_response",
    "pole_seeds",
    "stability_report",
    "steady_state_moments_hom",
    "threshold_rate_approx",
    "weak_coupling_response",
    "ProbeConfig",
    "SpectrumTable",
    "driven_field",
    "estimate_pC",
    "photon_budget",
    "reflection_transmission",
    "spectrum_scan",
    "sz_depletion_rate",
    "sz_drain_from_covariance",
    "sz_drain_subensemble_sum",
    "ConvergenceError",
    "DomainError",
    "NumericalError",
    "PreconditionError",
    "RevivalGuardError",
    "SpinCavityError",
    "UnstableModelError",
]
