"""Targeted ridge estimation for the linear family.

The basic operation minimizes

    ||y - X b||^2 + lam * ||b - b0||^2

whose unique minimizer for lam > 0 (or lam = 0 with full-rank design) is

    b_hat = (X'X + lam I)^{-1} (X'y + lam b0).

Sequential updating feeds each batch's estimate forward as the next
batch's shrinkage target ``b0``, so the estimate history forms a chain in
which each link only needs the new batch and the previous estimate. The
moment helpers give the exact sampling mean and covariance of that chain
under a fixed generating coefficient vector, either for general designs
(by running the first and second moment recursions) or in closed form for
orthonormal designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numerics import cho_factor, cho_solve
from .errors import EstimationError, SingularMatrixError, ValidationError
from .model_core import (
    Batch,
    CoefficientVector,
    EstimatorState,
    TargetSpec,
    UpdateRecord,
    align_batch,
    assemble_target,
    fold_triangular,
    mixture_target,
    _as_float_matrix,
    _as_float_vector,
    _check_nonnegative,
    _check_xy,
)

__all__ = [
    "LinearFit",
    "MomentReport",
    "fit_targeted_ridge",
    "fit_targeted_ridge_grid",
    "update",
    "exact_moments_orthonormal",
    "exact_moments_general",
    "estimate_noise_variance",
]


@dataclass(frozen=True)
class LinearFit:
    """Solution of one targeted ridge problem."""

    coef: np.ndarray
    lam: float
    target: np.ndarray
    residual_sse: float


@dataclass(frozen=True)
class MomentReport:
    """Exact sampling moments of a sequential estimate."""

    mean: np.ndarray
    covariance: np.ndarray
    noise_var: float


def _check_xy_target(X, y, target, ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fit's design, response and target: one vector (``ndim`` 1), or one
    target per column (``ndim`` 2) for a grid solve."""
    X, y = _check_xy(X, y, "", nonempty=False)
    as_array = _as_float_vector if ndim == 1 else _as_float_matrix
    t = as_array(target, "target")
    if t.shape[0] != X.shape[1]:
        raise ValidationError(
            f"target covers {t.shape[0]} covariates for {X.shape[1]} design columns")
    return X, y, t


def _penalized_normal_factor(gram: np.ndarray, lam: float):
    """Cholesky factor of X'X + lam I, or a singularity error."""
    p = gram.shape[0]
    try:
        return cho_factor(gram + lam * np.eye(p))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"X'X + lam I is numerically singular at lam={lam!r}; "
            "a positive penalty or full-rank design is required") from exc


def fit_targeted_ridge(X, y, lam: float, target) -> LinearFit:
    """Minimize ||y - Xb||^2 + lam ||b - target||^2 in closed form.

    ``lam = 0`` is permitted and reduces to least squares, but then the
    design must have full column rank.
    """
    X, y, target = _check_xy_target(X, y, target, 1)
    lam = _check_nonnegative(lam, "penalty")
    gram = X.T @ X
    factor = _penalized_normal_factor(gram, lam)
    coef = cho_solve(factor, X.T @ y + lam * target)
    resid = y - X @ coef
    return LinearFit(coef=coef, lam=lam, target=target, residual_sse=float(resid @ resid))


def fit_targeted_ridge_grid(X, y, lams: Sequence[float],
                            targets) -> tuple[np.ndarray, np.ndarray]:
    """Targeted ridge fits for every penalty and target from one decomposition.

    ``targets`` holds one target per column (shape ``(p, W)``). With
    ``X'X = V diag(d) V'`` each fit is, in offset form,

        b(lam, t) = t + V diag(1 / (d + lam)) V' X'(y - X t),

    so the whole ``p x L x W`` array of coefficients costs one
    eigendecomposition and one batched product (Golub, Heath & Wahba
    1979). The eigenpairs come from the thin SVD ``X = U diag(s) V'``
    (``d = s^2``) rather than from forming ``X'X``, which keeps the error
    of the near-null directions at the level of a Cholesky solve when
    the penalty is small and the design is rank deficient.

    Returns the coefficients, shape ``(p, L, W)``, and a boolean mask of
    length L that is False where ``d_min + lam`` is not positive beyond
    rounding (``p * eps * d_max``); with more columns than rows
    ``d_min = 0``. There ``X'X + lam I`` is numerically singular: the
    coefficients are left at the target and must not be used.
    """
    X, y, T = _check_xy_target(X, y, targets, 2)
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or not np.all(np.isfinite(lams)) or np.any(lams < 0):
        raise ValidationError("penalties must be a sequence of finite values >= 0")
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    d = sv * sv
    p, n_sv = X.shape[1], d.shape[0]
    d_min = d.min(initial=np.inf) if n_sv == p else 0.0
    solvable = d_min + lams > p * np.finfo(float).eps * d.max(initial=0.0)
    z = sv[:, None] * (U.T @ (y[:, None] - X @ T))
    shrink = np.zeros((n_sv, lams.shape[0]))
    shrink[:, solvable] = 1.0 / (d[:, None] + lams[solvable])
    steps = Vt.T @ (shrink[:, :, None] * z[:, None, :]).reshape(n_sv, -1)
    coefs = T[:, None, :] + steps.reshape(p, lams.shape[0], T.shape[1])
    return coefs, solvable


def _sequential_update(family: str, fit, fold, state: EstimatorState, batch: Batch,
                       lam: float, target_spec: TargetSpec | None,
                       weights: Sequence[float] | None,
                       diagnostics: dict | None) -> EstimatorState:
    """The update step of both families.

    ``fit(X, y, lam, target)`` returns the coefficients and the
    diagnostics the fit adds to the record (given ``diagnostics`` win);
    ``fold(past, X, y)`` folds the batch into the state's past data.
    """
    if state.family != family or batch.family != family:
        raise ValidationError(f"this update handles the {family} family only")
    lam = _check_nonnegative(lam, "penalty")
    if lam == 0:
        raise ValidationError("sequential updates require a strictly positive penalty")
    registry = state.registry.extended(batch.covariates)
    names = registry.names
    if target_spec is None:
        if weights is not None:
            raise ValidationError("weights were given without a target spec")
        target, used_weights = assemble_target(state, names), None
    else:
        expanded = target_spec.over(names)
        target = mixture_target(expanded, weights)
        used_weights = tuple(weights) if weights is not None else expanded.weights
    X = align_batch(batch, registry)
    coef, fit_diagnostics = fit(X, batch.y, lam, target.as_array(names))
    record = UpdateRecord(
        t=state.t + 1,
        lam=lam,
        estimate=CoefficientVector.from_array(names, coef),
        weights=used_weights,
        diagnostics={**fit_diagnostics, **(diagnostics or {})},
    )
    return state.with_update(registry, record, fold(state.past, X, batch.y))


def update(state: EstimatorState, batch: Batch, lam: float, *,
           target_spec: TargetSpec | None = None,
           weights: Sequence[float] | None = None,
           diagnostics: dict | None = None) -> EstimatorState:
    """One sequential step: shrink the new batch's fit toward the latest estimates.

    The target is assembled element-wise: each covariate shrinks toward
    its most recent estimate, and a covariate no estimate covers yet
    (such as one new to this batch, appended to the registry here) toward
    the state's initial target, else 0. With a ``target_spec`` the target
    is a weighted mixture of the spec's candidates instead, each candidate
    taking 0 for a covariate it lacks. The batch is folded into the
    state's triangular history factor (``fold_triangular``).
    """
    def fit(X, y, lam, target):
        return fit_targeted_ridge(X, y, lam, target).coef, {}

    return _sequential_update("linear", fit, fold_triangular, state, batch, lam,
                              target_spec, weights, diagnostics)


def exact_moments_orthonormal(coef, target, lam: float, steps: int,
                              noise_var: float) -> MomentReport:
    """Exact moments after ``steps`` updates with orthonormal designs.

    Assumes every batch satisfies X'X = I and uses the same penalty. With
    r = lam / (1 + lam) the mean contracts geometrically toward the
    generating coefficients,

        mean_t = coef + r^t (target - coef),

    and each coordinate's variance follows the geometric sum

        var_t = noise_var * (1 - r^(2t)) / (1 + 2 lam),

    which increases in t toward noise_var / (1 + 2 lam). Both are what the
    first and second moment recursions give for identity gram matrices.
    """
    coef = _as_float_vector(coef, "coef")
    target = _as_float_vector(target, "target")
    if coef.shape != target.shape:
        raise ValidationError("coef and target must have the same length")
    lam = _check_nonnegative(lam, "penalty")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    noise_var = _check_nonnegative(noise_var, "noise variance")
    r = lam / (1.0 + lam)
    mean = coef + r ** steps * (target - coef)
    var = noise_var * (1.0 - r ** (2 * steps)) / (1.0 + 2.0 * lam)
    return MomentReport(mean=mean, covariance=var * np.eye(coef.shape[0]),
                        noise_var=noise_var)


def exact_moments_general(designs: Sequence[np.ndarray], lams: Sequence[float],
                          coef, target, noise_var: float) -> MomentReport:
    """Exact moments after a sequence of updates with arbitrary designs.

    Runs the defining recursions with A_t = (X_t'X_t + lam_t I)^{-1}:

        mean_t = A_t (X_t'X_t coef + lam_t mean_{t-1}),    mean_0 = target
        cov_t  = noise_var A_t X_t'X_t A_t + lam_t^2 A_t cov_{t-1} A_t,
        cov_0 = 0.
    """
    coef = _as_float_vector(coef, "coef")
    target = _as_float_vector(target, "target")
    if coef.shape != target.shape:
        raise ValidationError("coef and target must have the same length")
    if len(designs) == 0:
        raise ValidationError("at least one design is required")
    if len(lams) != len(designs):
        raise ValidationError(f"{len(lams)} penalties for {len(designs)} designs")
    noise_var = _check_nonnegative(noise_var, "noise variance")
    p = coef.shape[0]
    mean = target.copy()
    cov = np.zeros((p, p))
    eye = np.eye(p)
    for X_t, lam_t in zip(designs, lams):
        X_t = _as_float_matrix(X_t, "design")
        if X_t.shape[1] != p:
            raise ValidationError(
                f"design has {X_t.shape[1]} columns, expected {p}")
        lam_t = _check_nonnegative(lam_t, "penalty")
        gram = X_t.T @ X_t
        A = cho_solve(_penalized_normal_factor(gram, lam_t), eye)
        mean = A @ (gram @ coef + lam_t * mean)
        cov = noise_var * A @ gram @ A + lam_t ** 2 * A @ cov @ A
        cov = 0.5 * (cov + cov.T)
    return MomentReport(mean=mean, covariance=cov, noise_var=noise_var)


def estimate_noise_variance(X, y, fit: LinearFit) -> float:
    """Residual variance estimate for a targeted ridge fit.

    Divides the residual sum of squares by n minus the effective degrees
    of freedom trace((X'X + lam I)^{-1} X'X) of the smoother. With the
    singular values s of X that trace is sum s^2 / (s^2 + lam), whose
    terms are exactly 1 at lam = 0: a design with as many independent
    columns as rows leaves exactly zero degrees of freedom, which is an
    error, not a rounding residue divided into the fit's residual.
    """
    X, y, _ = _check_xy_target(X, y, fit.target, 1)
    d = np.linalg.svd(X, compute_uv=False) ** 2
    d = d[d > 0]
    edf = float(np.sum(d / (d + fit.lam)))
    dof = X.shape[0] - edf
    if dof <= 0:
        raise EstimationError(
            f"no residual degrees of freedom: n={X.shape[0]}, effective df={edf:.3f}")
    return fit.residual_sse / dof
