"""NumPy versions of the few SciPy routines the package uses.

Importing SciPy's ``linalg`` and ``special`` modules costs several
hundred milliseconds, which every ``ridge-relay`` process would pay for
one Cholesky factorization, one positive definite solve and the logistic
function. These stand-ins keep the package's runtime on NumPy alone.

``numpy.linalg.LinAlgError`` is the class SciPy re-exports, so code that
catches it is unaffected.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularMatrixError

__all__ = ["SpdFactor", "all_finite", "cho_factor", "cho_solve", "expit"]


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, in one pass that warns of nothing.

    Counting the finite entries costs less per call than ``.all()`` of
    the mask, whose method wrapper dominates on small arrays.
    """
    return np.count_nonzero(np.isfinite(a)) == a.size


class SpdFactor(NamedTuple):
    """A positive definite matrix with its lower Cholesky factor."""

    matrix: np.ndarray
    lower: np.ndarray


def cho_factor(a: np.ndarray, what: str = "the matrix") -> SpdFactor:
    """Cholesky factor of ``a``, reading its lower triangle.

    Raises ``SingularMatrixError`` (naming ``what``) when ``a`` is not
    numerically positive definite or holds a non-finite entry. The
    finiteness check is explicit because ``numpy.linalg.cholesky``
    returns NaNs for a NaN matrix instead of raising.
    """
    a = np.asarray(a, dtype=float)
    if not all_finite(a):
        raise SingularMatrixError(f"{what} has a non-finite entry")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{what} is not positive definite") from exc
    return SpdFactor(a, lower)


def cho_solve(factor: SpdFactor, b) -> np.ndarray:
    """Solve ``factor.matrix @ x = b`` for a vector or the columns of a matrix.

    NumPy has no triangular solve, so this runs LAPACK's LU solve on the
    matrix the factor proved positive definite. Partial pivoting keeps
    that backward stable, and one LU solve costs less per call than two
    solves with the triangular factors would.
    """
    try:
        return np.linalg.solve(factor.matrix, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("a positive definite solve met a zero pivot") from exc


def expit(x) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), without overflow.

    Both branches exponentiate ``-|x|``, so no intermediate exceeds 1:
    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` for ``x < 0``.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x < 0, e, 1.0) / (1.0 + e)
