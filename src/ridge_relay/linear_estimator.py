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

from typing import Sequence

import numpy as np

from ._numerics import cho_factor, cho_solve
from .errors import SingularMatrixError, ValidationError
from .model_core import (
    Batch,
    CoefficientVector,
    EstimatorState,
    UpdateRecord,
    _Record,
    align_batch,
    assemble_target,
    _fold_triangular,
    _real_array,
    _check_index,
    _check_real,
    _check_xy,
)

__all__ = [
    "MomentReport",
    "fit_targeted_ridge",
    "fit_targeted_ridge_grid",
    "loo_ridge_grid",
    "update",
    "exact_moments_orthonormal",
    "exact_moments_general",
]


class MomentReport(_Record):
    """Exact sampling moments of a sequential estimate."""

    _fields = ("mean", "covariance", "noise_var")

    def __init__(self, mean: np.ndarray, covariance: np.ndarray, noise_var: float) -> None:
        self.__dict__.update(mean=mean, covariance=covariance, noise_var=noise_var)


def _check_xy_target(X, y, target) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A fit's design, response and target vector."""
    X, y = _check_xy(X, y, "", nonempty=False)
    t = _real_array(target, "target", 1)
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


def fit_targeted_ridge(X, y, lam: float, target) -> np.ndarray:
    """Minimize ||y - Xb||^2 + lam ||b - target||^2 in closed form and
    return the minimizing coefficients.

    ``lam = 0`` is permitted and reduces to least squares, but then the
    design must have full column rank.
    """
    X, y, target = _check_xy_target(X, y, target)
    lam = _check_real(lam, "penalty", ">= 0")
    gram = X.T @ X
    factor = _penalized_normal_factor(gram, lam)
    return cho_solve(factor, X.T @ y + lam * target)


def fit_targeted_ridge_grid(X, y, lams: Sequence[float],
                            target) -> tuple[np.ndarray, np.ndarray]:
    """Targeted ridge fits toward ``target`` for every penalty from one decomposition.

    With ``X'X = V diag(d) V'`` each fit is, in offset form,

        b(lam) = t + V diag(1 / (d + lam)) V' X'(y - X t),

    so the whole ``p x L`` array of coefficients costs one
    eigendecomposition and one matrix product (Golub, Heath & Wahba
    1979). The eigenpairs come from the thin SVD ``X = U diag(s) V'``
    (``d = s^2``) rather than from forming ``X'X``, which keeps the error
    of the near-null directions at the level of a Cholesky solve when
    the penalty is small and the design is rank deficient.

    Returns the coefficients, shape ``(p, L)``, and a boolean mask of
    length L that is False where ``d_min + lam`` is not positive beyond
    rounding (``p * eps * d_max``); with more columns than rows
    ``d_min = 0``. There ``X'X + lam I`` is numerically singular: the
    coefficients are left at the target and must not be used.
    """
    X, y, t = _check_xy_target(X, y, target)
    lams = _real_array(lams, "penalties", 1, bound=">= 0")
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    d = sv * sv
    d_min, floor = _singular_rule(d, X.shape[1])
    solvable = d_min + lams > floor
    z = sv * (U.T @ (y - X @ t))
    shrink = np.zeros((d.shape[0], lams.shape[0]))
    shrink[:, solvable] = 1.0 / (d[:, None] + lams[solvable])
    return t[:, None] + Vt.T @ (shrink * z[:, None]), solvable


def _singular_rule(d: np.ndarray, p: int) -> tuple[float, float]:
    """``(d_min, floor)`` for the squared singular values ``d`` of a
    ``p``-column design: ``X'X + lam I`` counts as singular where
    ``d_min + lam <= floor = p * eps * d_max``. ``d_min = 0`` when the
    design has fewer than ``p`` singular values."""
    d_min = d.min(initial=np.inf) if d.shape[0] == p else 0.0
    return d_min, p * np.finfo(float).eps * d.max(initial=0.0)


# The closed-form leave-one-out is trusted only where every fold clears
# the singular rule by this factor, and where 1 - h_ii, when it is found
# by cancellation against |u_i|^2, exceeds this bound (see
# ``loo_ridge_grid``).
_LOO_FLOOR_MARGIN = 4.0
_LOO_MIN_OUTSIDE = 1e-4


def loo_ridge_grid(X, y, lams: Sequence[float], target, history=None):
    """Leave-one-out scores toward ``target`` for every penalty from one decomposition.

    With the thin SVD ``X = U diag(s) V'`` (``d = s^2``, q columns in U),
    ``r = y - X t`` and ``keep = lam / (d + lam)``, the fit on every row
    leaves the residual ``e = (r - UU'r) + U diag(keep) U'r``, and row i
    has ``1 - h_ii = (1 - |u_i|^2) + sum_q u_iq^2 keep_q``. The fit without
    row i misses it by ``e_i / (1 - h_ii)`` (Allen's PRESS identity;
    Golub, Heath & Wahba 1979), and its coefficients are
    ``b - V diag(s / (d + lam)) u_i' e_i / (1 - h_ii)``. With q = n,
    ``r - UU'r`` and ``1 - |u_i|^2`` are exactly 0 and are not formed:
    computing them by subtraction would leave rounding where the other
    terms are small.

    ``history``, if given, is ``(F, f)``: the historic criterion of
    coefficients b is ``|F b[:k] - f|^2`` for the k columns of F. For fold
    i it expands as ``|c|^2 - 2 a_i (D_i . c) + a_i^2 |D_i|^2``, with
    ``c = F b - f``, ``a_i`` the held-out residual and
    ``D = F V diag(s / (d + lam)) U'``, so no fold's coefficients are formed.

    Returns ``(score, hist)``, each of length L: the mean over rows
    of the squared held-out residual and of the fold fit's historic
    criterion (``None`` without ``history``). These are the leave-one-out
    score and constraint sum of one ``fit_targeted_ridge_grid`` per fold.
    Returns ``None`` unless the closed form is certified at every penalty:
    every fold's ``X_{-i}'X_{-i} + lam I``, which is at least ``lam`` and at
    least ``(1 - h_ii)(d_min + lam)``, must clear the singular rule of
    ``fit_targeted_ridge_grid`` by ``_LOO_FLOOR_MARGIN``; and where
    ``1 - h_ii`` comes from cancellation (q < n) it must exceed
    ``_LOO_MIN_OUTSIDE``, so that its rounding stays far below the score's.
    """
    X, y, t = _check_xy_target(X, y, target)
    lams = _real_array(lams, "penalties", 1, bound=">= 0")
    n, p = X.shape
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    d = sv * sv
    q = d.shape[0]
    d_min, floor = _singular_rule(d, p)
    if not np.all(d_min + lams > floor):
        return None
    keep = lams / (d[:, None] + lams)
    U2 = U * U
    outside = U2 @ keep
    if q < n:
        outside += (1.0 - U2.sum(axis=1))[:, None]
        if not np.all(outside > _LOO_MIN_OUTSIDE):
            return None
    if not np.all(np.maximum(outside * (d_min + lams), lams) > _LOO_FLOOR_MARGIN * floor):
        return None

    r = y - X @ t
    z = U.T @ r
    resid = U @ (keep * z[:, None])
    if q < n:
        # Projecting twice keeps the rounding of U'r out of r - UU'r.
        perp = r - U @ z
        resid += (perp - U @ (U.T @ perp))[:, None]
    held = (resid / outside).T
    score = np.einsum("li,li->l", held, held) / n
    if history is None:
        return score, None
    F, f = _check_history(history, p)
    V = Vt.T[:F.shape[1]]
    step = sv[:, None] / (d[:, None] + lams)
    full = F @ (t[:F.shape[1], None] + V @ (step * z[:, None])) - f[:, None]
    # D[:, l, :] = F V diag(step[:, l]) U', one (m, n) block per penalty.
    D = ((F @ V) @ (step[:, :, None] * U.T[:, None, :]).reshape(q, -1)).reshape(
        F.shape[0], lams.shape[0], n)
    # D_i . c for every row and penalty as a batched matmul: an einsum sums
    # over m in another order and moves the last bits of the criterion.
    cross = (D.transpose(1, 2, 0) @ full.T[:, :, None])[:, :, 0]
    sq = np.einsum("mli,mli->li", D, D)
    hist = np.einsum("ml,ml->l", full, full) + (held * (held * sq - 2.0 * cross)).mean(axis=1)
    return score, hist


def _check_history(history, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(F, f)`` of a historic criterion over at most ``p`` covariates."""
    F = _real_array(history[0], "history factor", 2)
    f = _real_array(history[1], "history response", 1)
    if f.shape[0] != F.shape[0] or F.shape[1] > p:
        raise ValidationError(
            f"a history of shape {F.shape} and {f.shape[0]} responses "
            f"does not fit {p} design columns")
    return F, f


def _sequential_update(family: str, fit, fold, state: EstimatorState, batch: Batch,
                       lam: float, diagnostics: dict | None) -> EstimatorState:
    """The update step of both families.

    ``fit(X, y, lam, target)`` returns the coefficients and the
    diagnostics the fit adds to the record (given ``diagnostics`` win);
    ``fold(past, X, y)`` folds the batch into the state's past data
    without checking it again: ``Batch`` has checked its arrays, and the
    aligned design covers the state's registry.
    """
    if state.family != family or batch.family != family:
        raise ValidationError(f"this update handles the {family} family only")
    lam = _check_real(lam, "penalty", ">= 0")
    if lam == 0:
        raise ValidationError("sequential updates require a strictly positive penalty")
    registry = state.registry.extended(batch.covariates)
    names = registry.names
    X = align_batch(batch, registry)
    coef, fit_diagnostics = fit(X, batch.y, lam, assemble_target(state, names).as_array(names))
    record = UpdateRecord(
        t=state.t + 1,
        lam=lam,
        estimate=CoefficientVector.from_array(names, coef),
        diagnostics={**fit_diagnostics, **(diagnostics or {})},
    )
    return state.with_update(registry, record, fold(state.past, X, batch.y))


def update(state: EstimatorState, batch: Batch, lam: float, *,
           diagnostics: dict | None = None) -> EstimatorState:
    """One sequential step: shrink the new batch's fit toward the latest estimates.

    The target is assembled element-wise: each covariate shrinks toward
    its most recent estimate, and a covariate no estimate covers yet
    (such as one new to this batch, appended to the registry here) toward
    the state's initial target, else 0. The batch is folded into the
    state's triangular history factor (``fold_triangular``).
    """
    def fit(X, y, lam, target):
        return fit_targeted_ridge(X, y, lam, target), {}

    return _sequential_update("linear", fit, _fold_triangular, state, batch, lam,
                              diagnostics)


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
    coef = _real_array(coef, "coef", 1)
    target = _real_array(target, "target", 1)
    if coef.shape != target.shape:
        raise ValidationError("coef and target must have the same length")
    lam = _check_real(lam, "penalty", ">= 0")
    _check_index(steps, 1, "steps")
    noise_var = _check_real(noise_var, "noise variance", ">= 0")
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
    coef = _real_array(coef, "coef", 1)
    target = _real_array(target, "target", 1)
    if coef.shape != target.shape:
        raise ValidationError("coef and target must have the same length")
    if len(designs) == 0:
        raise ValidationError("at least one design is required")
    lams = _real_array(lams, "penalties", 1, bound=">= 0").tolist()
    if len(lams) != len(designs):
        raise ValidationError(f"{len(lams)} penalties for {len(designs)} designs")
    noise_var = _check_real(noise_var, "noise variance", ">= 0")
    p = coef.shape[0]
    mean = target.copy()
    cov = np.zeros((p, p))
    eye = np.eye(p)
    for X_t, lam_t in zip(designs, lams):
        X_t = _real_array(X_t, "design", 2)
        if X_t.shape[1] != p:
            raise ValidationError(
                f"design has {X_t.shape[1]} columns, expected {p}")
        gram = X_t.T @ X_t
        A = cho_solve(_penalized_normal_factor(gram, lam_t), eye)
        mean = A @ (gram @ coef + lam_t * mean)
        cov = noise_var * A @ gram @ A + lam_t ** 2 * A @ cov @ A
        cov = 0.5 * (cov + cov.T)
    return MomentReport(mean=mean, covariance=cov, noise_var=noise_var)
