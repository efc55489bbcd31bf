"""Exception hierarchy shared by all spincavity modules.

Two branches matter to callers and to the CLI exit-code mapping:

* ``PreconditionError`` (exit code 2): the request itself is invalid,
  e.g. parameters out of range, a steady-state query on an unstable
  model, or a simulation window the discretization cannot support.
* ``NumericalError`` (exit code 3): the request was valid but a
  numerical procedure failed to meet its tolerance, e.g. a root search
  that does not converge or a propagation that leaves the float range.
"""

from __future__ import annotations

__all__ = [
    "SpinCavityError",
    "PreconditionError",
    "DomainError",
    "UnstableModelError",
    "RevivalGuardError",
    "NumericalError",
    "ConvergenceError",
]


class SpinCavityError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(SpinCavityError, ValueError):
    """A documented precondition of an operation was violated."""


class DomainError(PreconditionError):
    """An argument lies outside the mathematical domain of a function."""


class UnstableModelError(PreconditionError):
    """A steady-state quantity was requested for a model whose drift
    matrix has spectral abscissa >= 0 (no steady state exists)."""


class RevivalGuardError(PreconditionError):
    """The requested time window exceeds the safe fraction of the
    discretization revival time of a uniform undamped grid."""


class NumericalError(SpinCavityError, RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget.

    Carries the iterate trace in ``trace`` for diagnostics.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
