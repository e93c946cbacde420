"""Test-side checks of the chain against its theory.

``check_consistency_trajectory`` runs one zero-start chain under a
deterministic penalty rule and reports how its estimation error evolves;
``check_moment_formulas`` simulates the linear chain many times and
standardizes the Monte Carlo moments against the exact recursion
(``exact_moments_general``). Both are oracles for the acceptance and
simulation tests, not part of the package.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ridge_relay._numerics import cho_solve
from ridge_relay.linear_estimator import (
    MomentReport,
    _penalized_normal_factor,
    exact_moments_general,
)
from ridge_relay.model_core import Batch
from ridge_relay.penalty_tuning import get_family
from ridge_relay.sim_harness import (
    ScenarioConfig,
    covariate_names,
    generate_batches,
    initial_state,
    resolve_beta,
)


@dataclass
class ConsistencyReport:
    """Single-trajectory behaviour under a deterministic penalty rule."""

    t_values: np.ndarray
    losses: np.ndarray
    lambdas: np.ndarray
    condition_met: bool
    ratio: float
    trend_ok: bool | None


def check_consistency_trajectory(config: ScenarioConfig,
                                 lambda_rule: Callable[[Batch], float] | None = None
                                 ) -> ConsistencyReport:
    """Run replicate 0's chain from zeros and report how the estimation error evolves.

    The default penalty rule is 2.2 times the squared largest singular
    value of the batch design, which keeps each step's shrinkage factor
    bounded away from 1. ``condition_met`` records whether the rule used
    stayed at or above twice the squared largest singular value at every
    step; only then is the error trend asserted-worthy, and ``trend_ok``
    says whether the last error is below 0.2 times the first. It is None
    otherwise (diagnostic mode for deliberately bad rules).
    """
    if lambda_rule is None:
        def lambda_rule(batch: Batch) -> float:
            top = np.linalg.norm(batch.X, 2)
            return 2.2 * top * top
    beta = resolve_beta(config)
    state = initial_state(config, 0, "zero-target")
    T = config.n_batches
    losses = np.empty(T)
    lambdas = np.empty(T)
    condition_met = True
    for i, batch in enumerate(generate_batches(config, 0)):
        lam = float(lambda_rule(batch))
        top = np.linalg.norm(batch.X, 2)
        if lam < 2.0 * top * top:
            condition_met = False
        state = get_family(config.family).update(state, batch, lam)
        coef = state.current.as_array(covariate_names(config.p))
        losses[i] = float(np.linalg.norm(coef - beta))
        lambdas[i] = lam
    ratio = float(losses[-1] / losses[0]) if losses[0] > 0 else 0.0
    trend_ok = (ratio < 0.2) if condition_met else None
    return ConsistencyReport(t_values=np.arange(1, T + 1), losses=losses,
                             lambdas=lambdas, condition_met=condition_met,
                             ratio=ratio, trend_ok=trend_ok)


@dataclass
class MomentCheckReport:
    """Monte Carlo agreement with the exact moment recursions."""

    exact: MomentReport
    mc_mean: np.ndarray
    mc_cov: np.ndarray
    max_mean_z: float
    max_cov_z: float
    n_mc: int


def check_moment_formulas(designs: Sequence[np.ndarray], lams: Sequence[float],
                          coef, target, noise_var: float, n_mc: int = 20000,
                          seed: int = 0) -> MomentCheckReport:
    """Simulate the chain n_mc times and standardize against the exact moments.

    Returns the largest mean and covariance discrepancies in standard
    error units; values of a few are consistent with exact formulas.
    """
    coef = np.asarray(coef, dtype=float)
    target = np.asarray(target, dtype=float)
    exact = exact_moments_general(designs, lams, coef, target, noise_var)
    p = coef.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    sd = np.sqrt(float(noise_var))
    B = np.tile(target, (n_mc, 1))
    for X_t, lam_t in zip(designs, lams):
        X_t = np.asarray(X_t, dtype=float)
        factor = _penalized_normal_factor(X_t.T @ X_t, float(lam_t))
        signal = X_t @ coef
        eps = sd * rng.standard_normal((n_mc, X_t.shape[0]))
        rhs = (signal + eps) @ X_t + lam_t * B
        B = cho_solve(factor, rhs.T).T
    mc_mean = B.mean(axis=0)
    mc_cov = np.atleast_2d(np.cov(B, rowvar=False, ddof=1))
    sd_mean = np.sqrt(np.diag(exact.covariance) / n_mc)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_z = np.abs(mc_mean - exact.mean) / sd_mean
    mean_z[~np.isfinite(mean_z)] = 0.0
    v = exact.covariance
    se_cov = np.sqrt((np.outer(np.diag(v), np.diag(v)) + v ** 2) / max(n_mc - 1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cov_z = np.abs(mc_cov - v) / se_cov
    cov_z[~np.isfinite(cov_z)] = 0.0
    return MomentCheckReport(exact=exact, mc_mean=mc_mean, mc_cov=mc_cov,
                             max_mean_z=float(mean_z.max() if p else 0.0),
                             max_cov_z=float(cov_z.max()), n_mc=n_mc)
