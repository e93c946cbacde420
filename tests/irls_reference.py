"""Reference solver for the penalized logistic fit: one candidate at a time.

This is the scalar IRLS loop the package ran before its solver was
batched over candidates, kept as written so the batched solver can be
checked against code that shares none of its steps: only the input
checks (``_check_xy_target`` and the scalar rules), the Cholesky helpers
and the module limits. The objective (``penalized_loglik``) and its
gradient (``estimating_equation``) it climbs live here too; the package
computes them only row-batched inside its solver, so these scalar copies
are the oracles the tests hold it to. The limits of
``ridge_relay.logistic_estimator`` are read when the solver runs, so a
test that changes them changes them for both solvers.
"""

import numpy as np

from ridge_relay import logistic_estimator
from ridge_relay._numerics import cho_factor, cho_solve, expit
from ridge_relay.errors import ConvergenceError, ValidationError
from ridge_relay.linear_estimator import _check_xy_target
from ridge_relay.logistic_estimator import LogisticFit, WEIGHT_FLOOR
from ridge_relay.model_core import _check_binary, _check_real, _real_array


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
    lam = _check_real(lam, "penalty", ">= 0")
    coef = _real_array(coef, "coef", 1)
    target = _real_array(target, "target", 1)
    if target.shape != coef.shape:
        raise ValidationError("target and coef must have the same length")
    diff = coef - target
    return logistic_loglik(X, y, coef) - 0.5 * lam * float(diff @ diff)


def estimating_equation(X, y, coef, lam: float, target) -> np.ndarray:
    """Gradient of the penalized log-likelihood: X'(y - mu) - lam (coef - target)."""
    X, y, coef = _check_xy_target(X, y, coef)
    _check_binary(y)
    lam = _check_real(lam, "penalty", ">= 0")
    target = _real_array(target, "target", 1)
    if target.shape != coef.shape:
        raise ValidationError("target and coef must have the same length")
    mu = expit(X @ coef)
    return X.T @ (y - mu) - lam * (coef - target)


def reference_irls_fit(X, y, lam: float, target) -> LogisticFit:
    """Maximize the penalized log-likelihood by IRLS with step-halving,
    with the stopping rule, acceptance test and limits of ``irls_fit``."""
    IRLS_TOL = logistic_estimator.IRLS_TOL
    IRLS_MAX_ITER = logistic_estimator.IRLS_MAX_ITER
    IRLS_STEP_HALVING = logistic_estimator.IRLS_STEP_HALVING

    X, y, target = _check_xy_target(X, y, target)
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
