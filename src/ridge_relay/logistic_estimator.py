"""Targeted ridge estimation for the logistic family.

The estimate maximizes the penalized log-likelihood

    loglik(b) - (lam / 2) * ||b - b0||^2

for binary responses, equivalently solves the estimating equation

    X'(y - mu(Xb)) - lam (b - b0) = 0.

There is no closed form, so the fit runs iteratively reweighted least
squares: each iteration solves a targeted ridge problem in the working
response, which makes the sequential update literally a reweighted
version of the linear one. Step-halving guards every iteration so the
penalized log-likelihood never decreases along accepted iterates.

Penalty selection needs a fit for every grid penalty in every fold.
``irls_fit_grid`` runs them as one batched IRLS: the candidates share
the design, so each Newton step stacks their weighted normal matrices
and solves them together, while convergence, step-halving and failure
stay per candidate. ``irls_fit`` is the one-candidate call of the same
solver.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ._numerics import cho_factor, cho_solve, expit
from .errors import ConvergenceError, RidgeRelayError, SingularMatrixError, ValidationError
from .model_core import (
    Batch,
    EstimatorState,
    _Record,
    _fold_stacked,
    _check_binary,
    _check_real,
    _real_array,
)
from .linear_estimator import _check_xy_target, _sequential_update

__all__ = [
    "LogisticFit",
    "irls_fit",
    "irls_fit_grid",
    "update_logistic",
]

WEIGHT_FLOOR = 1e-10
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
IRLS_STEP_HALVING = 20
_EPS = float(np.finfo(float).eps)
# Largest (candidates x p x n) block of X'W one Newton step forms at once.
_BLOCK_ELEMENTS = 1 << 20


class LogisticFit(_Record):
    """Converged IRLS solution: the coefficients, the accepted Newton steps
    taken, and the estimating equation's largest entry at the solution."""

    _fields = ("coef", "iterations", "final_gradient_norm")

    def __init__(self, coef: np.ndarray, iterations: int, final_gradient_norm: float) -> None:
        self.__dict__.update(coef=coef, iterations=iterations,
                             final_gradient_norm=final_gradient_norm)


class _IrlsRun(NamedTuple):
    """One batched IRLS run over C candidates sharing a design.

    Row ``c`` of ``coef`` and ``gradient_norm`` belongs to candidate ``c``;
    ``iterations[c]`` counts its accepted steps. ``failures`` maps each
    candidate that did not converge to the error that stopped it.
    """

    coef: np.ndarray
    iterations: np.ndarray
    gradient_norm: np.ndarray
    failures: dict[int, RidgeRelayError]


def _penalized_rows(X, y, coefs, lams, target) -> tuple[np.ndarray, np.ndarray]:
    """Penalized log-likelihood of each row of ``coefs``, and its linear predictors.

    The products are matmuls, not ``einsum``: for one row they then round
    exactly as the scalar objective beside the tests' reference IRLS
    (``tests/irls_reference.py``) does.
    """
    eta = coefs @ X.T
    diff = (coefs - target)[:, None, :]
    ll = eta @ y - np.logaddexp(0.0, eta).sum(axis=1)
    return ll - 0.5 * lams * (diff @ diff.transpose(0, 2, 1))[:, 0, 0], eta


def _gradient_norms(X, y, eta, coefs, lams, target) -> np.ndarray:
    """Largest absolute entry of each row's estimating equation."""
    grad = (y - expit(eta)) @ X - lams[:, None] * (coefs - target)
    return np.abs(grad).max(axis=1, initial=0.0)


def _tolerances(coefs, lams, target) -> np.ndarray:
    """Each row's stopping tolerance (see ``irls_fit``)."""
    scale = np.maximum(1.0, np.maximum(np.abs(coefs).max(axis=1, initial=0.0),
                                       np.abs(target).max(initial=0.0)))
    return IRLS_TOL + 8.0 * _EPS * lams * scale


def _weighted_normal(X, w, z) -> tuple[np.ndarray, np.ndarray]:
    """``X'WX`` and ``X'Wz`` for each row of the weights ``w`` and working
    responses ``z``.

    The ``(rows, p, n)`` product ``X'W`` is formed a block of rows at a
    time, so it holds about ``_BLOCK_ELEMENTS`` floats whatever the number
    of candidates and the batch size.
    """
    n, p = X.shape
    normal = np.empty((w.shape[0], p, p))
    xwz = np.empty((w.shape[0], p))
    size = max(1, _BLOCK_ELEMENTS // max(1, n * p))
    for lo in range(0, w.shape[0], size):
        xw = X.T * w[lo:lo + size, None, :]
        normal[lo:lo + size] = xw @ X
        xwz[lo:lo + size] = (xw @ z[lo:lo + size, :, None])[:, :, 0]
    return normal, xwz


def _newton_proposals(normal, rhs, rows, failures) -> tuple[np.ndarray, np.ndarray]:
    """Solve each weighted normal system ``normal[k] x = rhs[k]``.

    Returns the solutions and a mask of the systems that are usable. One
    non-finite or indefinite matrix makes the stacked calls raise for the
    whole stack, so then each system is factored alone and only its own
    candidate (``rows[k]``) fails, with the error ``cho_factor`` gives it.
    """
    ok = np.ones(len(rows), dtype=bool)
    if np.isfinite(normal).all():
        try:
            np.linalg.cholesky(normal)
            return np.linalg.solve(normal, rhs[..., None])[..., 0], ok
        except np.linalg.LinAlgError:
            pass
    proposal = np.zeros_like(rhs)
    for k, row in enumerate(rows):
        try:
            proposal[k] = cho_solve(cho_factor(normal[k], "the weighted normal matrix"), rhs[k])
        except SingularMatrixError as exc:
            failures[int(row)] = exc
            ok[k] = False
    return proposal, ok


def _irls_stack(X, y, lams, target) -> _IrlsRun:
    """IRLS with step-halving toward ``target`` for every candidate penalty
    ``lams[c]`` at once.

    Inputs are checked by the caller. Each Newton step builds one
    ``(A, p, p)`` stack of weighted normal matrices for the A candidates
    still running and solves it at once. Convergence, step-halving and
    failure are tracked per candidate, with the rules ``irls_fit``
    documents, so a candidate's iterates do not depend on its neighbours.
    """
    n_cand, p = lams.shape[0], target.shape[0]
    eye = np.eye(p)
    coef = np.tile(target, (n_cand, 1))
    loglik, eta = _penalized_rows(X, y, coef, lams, target)
    gnorm = _gradient_norms(X, y, eta, coef, lams, target)
    iterations = np.zeros(n_cand, dtype=int)
    running = np.ones(n_cand, dtype=bool)
    failures: dict[int, RidgeRelayError] = {}
    for iteration in range(1, IRLS_MAX_ITER + 2):
        running &= ~(gnorm <= _tolerances(coef, lams, target))
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        if iteration > IRLS_MAX_ITER:
            for row in rows:
                failures[int(row)] = ConvergenceError(
                    f"IRLS did not converge in {IRLS_MAX_ITER} iterations "
                    f"(gradient norm {gnorm[row]:.3e} > tol {IRLS_TOL:.3e})")
            break
        lam, start, start_eta = lams[rows], coef[rows], eta[rows]
        mu = expit(start_eta)
        w = np.maximum(mu * (1.0 - mu), WEIGHT_FLOOR)
        z = start_eta + (y - mu) / w
        normal, rhs = _weighted_normal(X, w, z)
        normal += lam[:, None, None] * eye
        rhs += lam[:, None] * target
        proposal, solved = _newton_proposals(normal, rhs, rows, failures)
        direction = proposal - start
        pending = solved.copy()
        step = np.ones(rows.size)
        for _ in range(IRLS_STEP_HALVING + 1):
            k = np.flatnonzero(pending)
            if not k.size:
                break
            cand = start[k] + step[k, None] * direction[k]
            cand_ll, cand_eta = _penalized_rows(X, y, cand, lam[k], target)
            cur = loglik[rows[k]]
            take = cand_ll >= cur - 1e-12 * (1.0 + np.abs(cur))
            moved = rows[k[take]]
            coef[moved], loglik[moved], eta[moved] = cand[take], cand_ll[take], cand_eta[take]
            iterations[moved] = iteration
            pending[k[take]] = False
            step[k[~take]] *= 0.5
        for row in rows[pending]:
            failures[int(row)] = ConvergenceError(
                "step-halving could not improve the penalized log-likelihood")
        running[rows[~solved | pending]] = False
        moved = rows[iterations[rows] == iteration]
        gnorm[moved] = _gradient_norms(X, y, eta[moved], coef[moved], lams[moved], target)
    return _IrlsRun(coef=coef, iterations=iterations, gradient_norm=gnorm, failures=failures)


def irls_fit(X, y, lam: float, target) -> LogisticFit:
    """Maximize the penalized log-likelihood by IRLS with step-halving.

    The penalty must be strictly positive: it is what keeps the weighted
    normal equations well posed under separation, where the unpenalized
    likelihood has no maximizer. Iteration starts at the target, declares
    convergence when the estimating equation's largest entry is at most
    ``IRLS_TOL`` in absolute value, and raises ``ConvergenceError`` if
    ``IRLS_MAX_ITER`` iterations pass first, or if ``IRLS_STEP_HALVING``
    halvings of one step cannot keep the penalized log-likelihood from
    falling. A weighted normal matrix that is not numerically positive
    definite raises ``SingularMatrixError``.

    For extreme penalties the residual term lam * (coef - target) is
    quantized in steps of lam * ulp(target), so an absolute tolerance is
    unattainable in float64; the stopping rule therefore adds a floor of
    a few ulps at that scale. The floor is below 1e-9 for lam up to 1e6
    and only matters for the deliberately absurd probe penalties.

    This is the one-candidate call of ``irls_fit_grid``'s solver.
    """
    X, y, target = _check_xy_target(X, y, target)
    _check_binary(y)
    lam = _check_real(lam, "penalty", ">= 0")
    if lam == 0:
        raise ValidationError("irls_fit requires a strictly positive penalty")
    run = _irls_stack(X, y, np.array([lam]), target)
    if run.failures:
        raise run.failures[0]
    return LogisticFit(coef=run.coef[0], iterations=int(run.iterations[0]),
                       final_gradient_norm=float(run.gradient_norm[0]))


def irls_fit_grid(X, y, lams: Sequence[float],
                  target) -> tuple[np.ndarray, np.ndarray]:
    """Penalized logistic fits toward ``target`` for every penalty in one batched IRLS.

    The inputs are checked once; every penalty then runs the IRLS of
    ``irls_fit`` as one stack, so the L fits share each Newton step's
    products and factorizations.

    Returns the coefficients, shape ``(p, L)``, and a boolean mask of
    length L that is False where a fit failed: a weighted normal
    matrix that is not positive definite, a step that halving could not
    rescue, or an exhausted iteration budget. A failed fit is left at its
    target and must not be used; it never affects the other fits.
    """
    X, y, t = _check_xy_target(X, y, target)
    _check_binary(y)
    lams = _real_array(lams, "penalties", 1, bound="> 0")
    run = _irls_stack(X, y, lams, t)
    failed = np.fromiter(run.failures, dtype=int, count=len(run.failures))
    coef = run.coef
    coef[failed] = t
    ok = np.ones(lams.shape[0], dtype=bool)
    ok[failed] = False
    return coef.T, ok


def update_logistic(state: EstimatorState, batch: Batch, lam: float, *,
                    diagnostics: dict | None = None) -> EstimatorState:
    """Sequential logistic step: IRLS shrinking toward the latest estimates.

    Target assembly follows the linear update's element-wise rule: each
    covariate shrinks toward its most recent estimate, and a covariate no
    estimate covers yet toward the initial target, else 0. The IRLS fit
    runs with the module's fixed limits (see ``irls_fit``). The batch's
    rows join the state's stacked history (``fold_stacked``).
    """
    def fit(X, y, lam, target):
        res = irls_fit(X, y, lam, target)
        return res.coef, {"irls_iterations": res.iterations,
                          "irls_gradient_norm": res.final_gradient_norm}

    return _sequential_update("logistic", fit, _fold_stacked, state, batch, lam,
                              diagnostics)
