"""Reference solver for the penalized logistic fit: one candidate at a time.

This is the scalar IRLS loop the package ran before its solver was
batched over candidates, kept as written so the batched solver can be
checked against code it shares nothing with but the public objective
(``penalized_loglik``) and gradient (``estimating_equation``). It reads
the module limits of ``ridge_relay.logistic_estimator`` when it runs, so
a test that changes them changes them for both solvers.
"""

import numpy as np

from ridge_relay import logistic_estimator
from ridge_relay._numerics import cho_factor, cho_solve, expit
from ridge_relay.errors import ConvergenceError, ValidationError
from ridge_relay.linear_estimator import _check_xy_target
from ridge_relay.logistic_estimator import (
    LogisticFit,
    WEIGHT_FLOOR,
    estimating_equation,
    penalized_loglik,
)
from ridge_relay.model_core import _check_binary, _check_real


def reference_irls_fit(X, y, lam: float, target) -> LogisticFit:
    """Maximize the penalized log-likelihood by IRLS with step-halving,
    with the stopping rule, acceptance test and limits of ``irls_fit``."""
    IRLS_TOL = logistic_estimator.IRLS_TOL
    IRLS_MAX_ITER = logistic_estimator.IRLS_MAX_ITER
    IRLS_STEP_HALVING = logistic_estimator.IRLS_STEP_HALVING

    X, y, target = _check_xy_target(X, y, target, 1)
    _check_binary(y)
    lam = _check_real(lam, "penalty", ">= 0")
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
