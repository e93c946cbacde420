"""Reference chain step: the update as the package wrote it before its fast paths.

``align_batch``, ``assemble_target``, the targeted ridge solve, the folds
and the record construction are kept here as they were written, one
name and one entry at a time, so that the package's update step, which
skips alignment and target assembly when they would change nothing and
checks each array once, can be held to them bit for bit. The logistic
fit itself is the package's ``irls_fit``: the step only calls it.
"""

import numpy as np

from ridge_relay._numerics import cho_factor, cho_solve
from ridge_relay.errors import RegistryError
from ridge_relay.logistic_estimator import irls_fit
from ridge_relay.model_core import (
    CoefficientVector,
    EstimatorState,
    StackedHistory,
    TriangularHistory,
    UpdateRecord,
)


def reference_align_batch(batch, registry) -> np.ndarray:
    for name in batch.covariates:
        if name not in registry:
            raise RegistryError(
                f"batch covariate {name!r} is not in the registry; extend it first")
    out = np.zeros((batch.n, registry.size))
    for j, name in enumerate(batch.covariates):
        out[:, registry.index_of(name)] = batch.X[:, j]
    return out


def reference_assemble_target(state: EstimatorState, names) -> CoefficientVector:
    names = [str(raw) for raw in names]
    layers = (rec.estimate.values for rec in reversed(state.history))
    backstop = state.init_target.values
    found = {}
    missing = set(names)
    for values in layers:
        if not missing:
            break
        for name in [n for n in missing if n in values]:
            found[name] = values[name]
            missing.discard(name)
    for name in missing:
        found[name] = backstop.get(name, 0.0)
    return CoefficientVector({name: found[name] for name in names})


def reference_as_array(vector: CoefficientVector, names) -> np.ndarray:
    out = np.empty(len(names))
    for i, name in enumerate(names):
        out[i] = vector.values[name]
    return out


def reference_ridge_coef(X, y, lam, target) -> np.ndarray:
    gram = X.T @ X
    factor = cho_factor(gram + lam * np.eye(X.shape[1]))
    return cho_solve(factor, X.T @ y + lam * target)


def reference_fold_triangular(past, X, y) -> TriangularHistory:
    p = X.shape[1]
    grown = np.zeros((p + 1, p + 1))
    rows = X.shape[0]
    if past is not None:
        k, old = past.covariates, past.factor
        grown[:k, :k] = old[:k, :k]
        grown[:k, p] = old[:k, k]
        grown[p, p] = old[k, k]
        rows += past.rows
    factor = np.linalg.qr(np.vstack([grown, np.column_stack([X, y])]), mode="r")
    return TriangularHistory(factor=factor, rows=rows)


def reference_fold_stacked(past, X, y) -> StackedHistory:
    if past is None:
        return StackedHistory(X=X, y=y)
    old = past.X
    if X.shape[1] > old.shape[1]:
        old = np.hstack([old, np.zeros((old.shape[0], X.shape[1] - old.shape[1]))])
    return StackedHistory(X=np.vstack([old, X]), y=np.concatenate([past.y, y]))


def reference_update(state: EstimatorState, batch, lam: float) -> EstimatorState:
    """One step of either family, as ``_sequential_update`` wrote it."""
    registry = state.registry.extended(batch.covariates)
    names = registry.names
    target = reference_assemble_target(state, names)
    X = reference_align_batch(batch, registry)
    t = reference_as_array(target, names)
    if state.family == "linear":
        coef, diagnostics = reference_ridge_coef(X, batch.y, lam, t), {}
        fold = reference_fold_triangular
    else:
        fit = irls_fit(X, batch.y, lam, t)
        coef = fit.coef
        diagnostics = {"irls_iterations": fit.iterations,
                       "irls_gradient_norm": fit.final_gradient_norm}
        fold = reference_fold_stacked
    record = UpdateRecord(
        t=state.t + 1, lam=lam,
        estimate=CoefficientVector(dict(zip(names, coef.tolist()))),
        weights=None, diagnostics=diagnostics)
    return EstimatorState(family=state.family, registry=registry,
                          init_target=state.init_target, init_note=state.init_note,
                          history=state.history + (record,),
                          past=fold(state.past, X, batch.y))
