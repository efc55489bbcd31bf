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

from .broadening import *
from .model import *
from .dynamics import *
from .analytics import *
from .probing import *
from .errors import *

__all__ = [
    "__version__", *broadening.__all__, *model.__all__, *dynamics.__all__,
    *analytics.__all__, *probing.__all__, *errors.__all__,
]
