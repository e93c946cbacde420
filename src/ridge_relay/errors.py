"""Exception types shared across the package.

Every error raised on a user-facing path derives from ``RidgeRelayError``
and carries as ``exit_code`` the status the ``ridge-relay`` command exits
with for it: 2 for invalid input, 3 for a numerical failure of a fit, 4
for a failed penalty selection, baseline estimate or lock.
"""

from __future__ import annotations

__all__ = [
    "RidgeRelayError",
    "ValidationError",
    "RegistryError",
    "SingularMatrixError",
    "ConvergenceError",
    "SelectionError",
    "EstimationError",
    "StateFileError",
    "LockError",
]


class RidgeRelayError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ValidationError(RidgeRelayError):
    """An input violates a documented precondition (shape, finiteness, range)."""


class RegistryError(ValidationError):
    """A covariate name is unknown, duplicated, or inconsistent with the registry."""


class SingularMatrixError(RidgeRelayError):
    """A linear system that must be positive definite is numerically singular."""

    exit_code = 3


class ConvergenceError(RidgeRelayError):
    """An iterative fit stopped without meeting its convergence criterion.

    The message says which limit was hit; the fit's state is not kept.
    """

    exit_code = 3


class SelectionError(RidgeRelayError):
    """Penalty selection could not produce a usable choice (e.g. all scores infinite)."""

    exit_code = 4


class EstimationError(RidgeRelayError):
    """A baseline estimator failed at every configuration it was allowed to try."""

    exit_code = 4


class StateFileError(RidgeRelayError):
    """A state file is missing, unreadable, or has an unsupported schema."""


class LockError(RidgeRelayError):
    """Another process holds the advisory lock for a state file."""

    exit_code = 4
