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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numerics import cho_factor, cho_solve, expit
from .errors import ConvergenceError, ValidationError
from .model_core import Batch, EstimatorState, TargetSpec
from .linear_estimator import _check_penalty, _check_xy_target, _sequential_update

__all__ = [
    "LogisticFit",
    "logistic_loglik",
    "penalized_loglik",
    "estimating_equation",
    "irls_fit",
    "update_logistic",
]

WEIGHT_FLOOR = 1e-10
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
IRLS_STEP_HALVING = 20


@dataclass(frozen=True)
class LogisticFit:
    """Converged IRLS solution.

    ``loglik`` is the penalized log-likelihood at the solution and
    ``loglik_path`` records it at every accepted iterate, starting from
    the initial point, so callers can verify monotone ascent.
    """

    coef: np.ndarray
    lam: float
    target: np.ndarray
    iterations: int
    final_gradient_norm: float
    loglik: float
    loglik_path: tuple[float, ...]


def _check_binary(y: np.ndarray) -> None:
    if y.size and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValidationError("logistic responses must be coded 0/1")


def logistic_loglik(X, y, coef) -> float:
    """Bernoulli log-likelihood sum_i [y_i eta_i - log(1 + exp(eta_i))].

    Uses log1p-style accumulation so large |eta| saturates instead of
    overflowing.
    """
    X, y, coef = _check_xy_target(X, y, coef)
    _check_binary(y)
    eta = X @ coef
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def penalized_loglik(X, y, coef, lam: float, target) -> float:
    """Log-likelihood minus the targeted ridge penalty (lam/2)||coef - target||^2."""
    coef = np.asarray(coef, dtype=float)
    target = np.asarray(target, dtype=float)
    diff = coef - target
    return logistic_loglik(X, y, coef) - 0.5 * float(lam) * float(diff @ diff)


def estimating_equation(X, y, coef, lam: float, target) -> np.ndarray:
    """Gradient of the penalized log-likelihood: X'(y - mu) - lam (coef - target)."""
    X, y, coef = _check_xy_target(X, y, coef)
    _check_binary(y)
    lam = _check_penalty(lam)
    target = np.asarray(target, dtype=float)
    if target.shape != coef.shape:
        raise ValidationError("target and coef must have the same length")
    mu = expit(X @ coef)
    return X.T @ (y - mu) - lam * (coef - target)


def irls_fit(X, y, lam: float, target) -> LogisticFit:
    """Maximize the penalized log-likelihood by IRLS with step-halving.

    The penalty must be strictly positive: it is what keeps the weighted
    normal equations well posed under separation, where the unpenalized
    likelihood has no maximizer. Iteration starts at the target, declares
    convergence when the estimating equation's largest entry is at most
    ``IRLS_TOL`` in absolute value, and raises ``ConvergenceError`` if
    ``IRLS_MAX_ITER`` iterations pass first, or if ``IRLS_STEP_HALVING``
    halvings of one step cannot keep the penalized log-likelihood from
    falling.

    For extreme penalties the residual term lam * (coef - target) is
    quantized in steps of lam * ulp(target), so an absolute tolerance is
    unattainable in float64; the stopping rule therefore adds a floor of
    a few ulps at that scale. The floor is below 1e-9 for lam up to 1e6
    and only matters for the deliberately absurd probe penalties.
    """
    X, y, target = _check_xy_target(X, y, target)
    _check_binary(y)
    lam = _check_penalty(lam)
    if lam == 0:
        raise ValidationError("irls_fit requires a strictly positive penalty")
    p = X.shape[1]
    eye = np.eye(p)

    coef = target.copy()
    cur_ll = penalized_loglik(X, y, coef, lam, target)
    path = [cur_ll]
    grad = estimating_equation(X, y, coef, lam, target)
    gnorm = float(np.max(np.abs(grad))) if p else 0.0
    eps = float(np.finfo(float).eps)

    def tol_now() -> float:
        scale = max(1.0, float(np.max(np.abs(coef), initial=0.0)),
                    float(np.max(np.abs(target), initial=0.0)))
        return IRLS_TOL + 8.0 * eps * lam * scale

    for iteration in range(1, IRLS_MAX_ITER + 1):
        if gnorm <= tol_now():
            return LogisticFit(coef=coef, lam=lam, target=target,
                               iterations=iteration - 1, final_gradient_norm=gnorm,
                               loglik=cur_ll, loglik_path=tuple(path))
        eta = X @ coef
        mu = expit(eta)
        w = np.maximum(mu * (1.0 - mu), WEIGHT_FLOOR)
        z = eta + (y - mu) / w
        xw = X.T * w
        factor = cho_factor(xw @ X + lam * eye, "the weighted normal matrix")
        proposal = cho_solve(factor, xw @ z + lam * target)
        direction = proposal - coef

        step = 1.0
        accepted = False
        for _ in range(IRLS_STEP_HALVING + 1):
            cand = coef + step * direction
            cand_ll = penalized_loglik(X, y, cand, lam, target)
            if cand_ll >= cur_ll - 1e-12 * (1.0 + abs(cur_ll)):
                coef, cur_ll, accepted = cand, cand_ll, True
                break
            step *= 0.5
        if not accepted:
            raise ConvergenceError(
                "step-halving could not improve the penalized log-likelihood")
        path.append(cur_ll)
        grad = estimating_equation(X, y, coef, lam, target)
        gnorm = float(np.max(np.abs(grad))) if p else 0.0

    if gnorm <= tol_now():
        return LogisticFit(coef=coef, lam=lam, target=target,
                           iterations=IRLS_MAX_ITER, final_gradient_norm=gnorm,
                           loglik=cur_ll, loglik_path=tuple(path))
    raise ConvergenceError(
        f"IRLS did not converge in {IRLS_MAX_ITER} iterations "
        f"(gradient norm {gnorm:.3e} > tol {IRLS_TOL:.3e})")


def update_logistic(state: EstimatorState, batch: Batch, lam: float, *,
                    target_spec: TargetSpec | None = None,
                    weights: Sequence[float] | None = None,
                    diagnostics: dict | None = None) -> EstimatorState:
    """Sequential logistic step: IRLS shrinking toward the latest estimates.

    Target assembly follows the linear update's element-wise rule: each
    covariate shrinks toward its most recent estimate, and a covariate no
    estimate covers yet toward the initial target, else 0. The IRLS fit
    runs with the module's fixed limits (see ``irls_fit``).
    """
    def fit(X, y, lam, target):
        res = irls_fit(X, y, lam, target)
        return res.coef, {"irls_iterations": res.iterations,
                          "irls_gradient_norm": res.final_gradient_norm}

    return _sequential_update("logistic", fit, state, batch, lam, target_spec, weights,
                              diagnostics)
