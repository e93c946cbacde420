"""Acceptance suite: ten end-to-end checks covering the closed-form
solver, the moment formulas, the logistic machinery, the simulation
studies, penalty-selection feasibility, consistency, and operations.

Each check prints one verdict line (written straight to the terminal,
bypassing capture) of the form::

    [ n/10] <what is being checked> ............ PASS

A FAIL line carries the measured quantity that broke the bound. The
checks are deliberately independent of the unit suites: oracles are
re-derived here (brute-force minimizers, finite differences, Monte
Carlo) rather than imported, except the Monte Carlo moment check and the
consistency trajectory, which come from ``sim_checks.py``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng
from scipy.optimize import minimize, minimize_scalar
from scipy.special import expit

import ridge_relay.cli_io as cio
from ridge_relay import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    PenaltySearchConfig,
    ScenarioConfig,
    assemble_target,
    constraint_terms,
    estimate_xi,
    exact_moments_general,
    exact_moments_orthonormal,
    fit_targeted_ridge,
    irls_fit,
    make_folds,
    resolve_beta,
    run_study_mixed_vs_updated,
    run_study_regular_vs_updated,
    select_penalty,
    stack_batches,
    tracked_positions,
    update,
    update_logistic,
)
from irls_reference import estimating_equation, logistic_loglik
from sim_checks import check_consistency_trajectory, check_moment_formulas


def verdict(capfd, idx, label, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    with capfd.disabled():
        print(f"[{idx:2d}/10] {label:.<58s} {mark}{suffix}")


class TestAcceptance:
    def test_criterion_01_closed_form_matches_brute_force(self, capfd):
        """The closed-form targeted ridge solution coincides with a
        numerical minimizer of its loss on 100 random small instances."""
        rng = default_rng(1001)
        start = perf_counter()
        lams = (0.1, 1.0, 10.0)
        worst = 0.0
        for i in range(100):
            n = int(rng.integers(3, 11))
            p = int(rng.integers(1, 6))
            X = rng.standard_normal((n, p))
            y = X @ rng.standard_normal(p) + rng.standard_normal(n)
            target = rng.standard_normal(p)
            lam = lams[i % 3]
            coef = fit_targeted_ridge(X, y, lam, target)

            def loss(b):
                r = y - X @ b
                return r @ r + lam * np.sum((b - target) ** 2)

            def grad(b):
                return -2.0 * (X.T @ (y - X @ b)) + 2.0 * lam * (b - target)

            res = minimize(loss, np.zeros(p), jac=grad, method="BFGS",
                           options={"gtol": 1e-12, "maxiter": 500})
            worst = max(worst, float(np.max(np.abs(coef - res.x))))
        elapsed = perf_counter() - start
        ok = worst < 1e-6 and elapsed < 10.0
        verdict(capfd, 1, "closed-form solver vs brute-force minimizer", ok,
                f"max gap {worst:.1e}, {elapsed:.1f}s")
        assert worst < 1e-6
        assert elapsed < 10.0

    def test_criterion_02_orthonormal_chain_moments(self, capfd):
        """10 000 simulated two-covariate chains reproduce the closed-form
        mean beta + r^t (target - beta), r = lam/(1+lam), and the
        per-coordinate variance (1+2 lam)^{-1} (1 - r^{2t}) sigma^2 at
        t = 1, 2, 3.

        The variance needs the leading 1/(1+2 lam) factor: the simulation
        rejects the same expression without it at more than ten standard
        errors, so the factor is load-bearing, not cosmetic.
        """
        R, n, p, lam = 10000, 6, 2, 1.0
        beta = np.array([1.2, -0.7])
        target = np.array([-0.5, 0.3])
        rng = default_rng(2002)
        start = perf_counter()
        b = np.broadcast_to(target, (R, p)).copy()
        r = lam / (1.0 + lam)
        worst_mean_z = worst_var_z = 0.0
        smallest_naive_z = np.inf
        for t in (1, 2, 3):
            Q = np.linalg.qr(rng.standard_normal((R, n, p)))[0]
            y = np.einsum("rnp,p->rn", Q, beta) + rng.standard_normal((R, n))
            b = (np.einsum("rnp,rn->rp", Q, y) + lam * b) / (1.0 + lam)
            want_mean = beta + r ** t * (target - beta)
            want_var = (1.0 - r ** (2 * t)) / (1.0 + 2.0 * lam)
            naive_var = 1.0 - r ** (2 * t)
            exact = exact_moments_orthonormal(beta, target, lam, t, 1.0)
            np.testing.assert_allclose(exact.mean, want_mean, atol=1e-12)
            np.testing.assert_allclose(exact.covariance,
                                       want_var * np.eye(p), atol=1e-12)
            mean_se = b.std(axis=0, ddof=1) / np.sqrt(R)
            worst_mean_z = max(worst_mean_z, float(np.max(
                np.abs(b.mean(axis=0) - want_mean) / mean_se)))
            var = b.var(axis=0, ddof=1)
            var_se = var * np.sqrt(2.0 / (R - 1))
            worst_var_z = max(worst_var_z, float(np.max(
                np.abs(var - want_var) / var_se)))
            smallest_naive_z = min(smallest_naive_z, float(np.min(
                np.abs(var - naive_var) / var_se)))
        elapsed = perf_counter() - start
        ok = worst_mean_z < 3.0 and worst_var_z < 3.0 \
            and smallest_naive_z > 10.0 and elapsed < 30.0
        verdict(capfd, 2, "orthonormal chain moments by Monte Carlo", ok,
                f"mean z {worst_mean_z:.2f}, var z {worst_var_z:.2f}, "
                f"{elapsed:.1f}s")
        assert worst_mean_z < 3.0
        assert worst_var_z < 3.0
        assert smallest_naive_z > 10.0
        assert elapsed < 30.0

    def test_criterion_03_general_moment_recursion(self, capfd):
        """The general-design moment recursion agrees with a 20 000-draw
        Monte Carlo oracle at t = 3 and collapses to the orthonormal
        closed forms when fed an orthonormal design chain."""
        rng = default_rng(3003)
        designs = [rng.standard_normal((12, 3)) for _ in range(3)]
        coef = np.array([0.8, -0.4, 1.1])
        target = np.array([0.0, 0.5, -0.5])
        report = check_moment_formulas(designs, [1.5, 0.8, 0.4], coef, target,
                                       0.7, n_mc=20000, seed=33)
        mc_ok = report.max_mean_z < 4.0 and report.max_cov_z < 4.0

        Q = np.linalg.qr(rng.standard_normal((9, 3)))[0]
        gen = exact_moments_general([Q] * 4, [0.9] * 4, coef, target, 1.3)
        ortho = exact_moments_orthonormal(coef, target, 0.9, 4, 1.3)
        mean_gap = float(np.max(np.abs(gen.mean - ortho.mean)))
        cov_gap = float(np.max(np.abs(gen.covariance - ortho.covariance)))
        reduce_ok = mean_gap < 1e-10 and cov_gap < 1e-10
        ok = mc_ok and reduce_ok
        verdict(capfd, 3, "general moment recursion vs Monte Carlo", ok,
                f"max z {max(report.max_mean_z, report.max_cov_z):.2f}, "
                f"reduction gap {max(mean_gap, cov_gap):.1e}")
        assert report.max_mean_z < 4.0
        assert report.max_cov_z < 4.0
        assert reduce_ok

    def test_criterion_04_logistic_gradient_and_fixed_point(self, capfd):
        """The penalized-likelihood gradient matches central finite
        differences; the converged IRLS iterate solves its own weighted
        least-squares recursion and agrees with independent optimizers."""
        rng = default_rng(4004)
        worst_fd = 0.0
        for _ in range(10):
            n = int(rng.integers(15, 40))
            p = int(rng.integers(1, 5))
            X = rng.standard_normal((n, p))
            y = (rng.random(n) < expit(X @ rng.standard_normal(p))).astype(float)
            coef = rng.standard_normal(p)
            target = rng.standard_normal(p)
            for lam in (0.3, 2.0):
                analytic = estimating_equation(X, y, coef, lam, target)

                def value(b):
                    return logistic_loglik(X, y, b) \
                        - 0.5 * lam * np.sum((b - target) ** 2)

                h = 1e-6
                for j in range(p):
                    e = np.zeros(p)
                    e[j] = h
                    fd = (value(coef + e) - value(coef - e)) / (2 * h)
                    scale = max(1.0, abs(analytic[j]))
                    worst_fd = max(worst_fd,
                                   abs(fd - analytic[j]) / scale)
        fd_ok = worst_fd < 1e-5

        worst_fix = 0.0
        worst_opt = 0.0
        for _ in range(5):
            n, p = 40, 3
            X = rng.standard_normal((n, p))
            y = (rng.random(n) < expit(X @ np.array([1.0, -1.0, 0.5]))).astype(float)
            target = rng.standard_normal(p)
            lam = 1.0
            fit = irls_fit(X, y, lam, target)
            mu = expit(X @ fit.coef)
            W = mu * (1.0 - mu)
            z = X @ fit.coef + (y - mu) / W
            refit = np.linalg.solve(X.T @ (W[:, None] * X) + lam * np.eye(p),
                                    X.T @ (W * z) + lam * target)
            worst_fix = max(worst_fix, float(np.max(np.abs(refit - fit.coef))))

            def neg_value(b):
                return -(logistic_loglik(X, y, b)
                         - 0.5 * lam * np.sum((b - target) ** 2))

            def neg_grad(b):
                return -estimating_equation(X, y, b, lam, target)

            opt = minimize(neg_value, target, jac=neg_grad, method="BFGS",
                           options={"gtol": 1e-12, "maxiter": 1000})
            worst_opt = max(worst_opt, float(np.max(np.abs(opt.x - fit.coef))))

        for _ in range(5):
            n = 30
            X = rng.standard_normal((n, 1))
            y = (rng.random(n) < expit(1.3 * X[:, 0])).astype(float)
            lam, target = 0.7, np.array([0.4])
            fit = irls_fit(X, y, lam, target)
            scan = minimize_scalar(
                lambda b: -(logistic_loglik(X, y, np.array([b]))
                            - 0.5 * lam * (b - target[0]) ** 2),
                bounds=(-20.0, 20.0), method="bounded",
                options={"xatol": 1e-10})
            worst_opt = max(worst_opt, abs(scan.x - fit.coef[0]))
        fix_ok = worst_fix < 1e-6
        opt_ok = worst_opt < 1e-5
        ok = fd_ok and fix_ok and opt_ok
        verdict(capfd, 4, "logistic gradient, recursion, optimizers", ok,
                f"fd {worst_fd:.1e}, fix {worst_fix:.1e}, opt {worst_opt:.1e}")
        assert fd_ok
        assert fix_ok
        assert opt_ok

    def test_criterion_05_sequential_vs_refit_study(self, capfd):
        """A reduced two-arm study: the sequentially updated estimator's
        quantile bands tighten from first to final batch on every tracked
        coordinate and its median bias shrinks on at least four of five,
        while the per-batch refit arm's band width stays put."""
        config = ScenarioConfig(p=11, n=10, n_batches=10, n_replicates=20,
                                seed=6)
        start = perf_counter()
        regular, updated = run_study_regular_vs_updated(config)
        elapsed = perf_counter() - start

        bands_u = updated.quantile_bands()
        widths_u = bands_u[2] - bands_u[0]
        band_ok = bool(np.all(widths_u[-1] < widths_u[0]))
        beta = resolve_beta(config)
        tracked = np.array(tracked_positions(config)) - 1
        med = np.nanmedian(updated.estimates, axis=0)
        bias_first = np.abs(med[0] - beta[tracked])
        bias_last = np.abs(med[-1] - beta[tracked])
        n_shrink = int(np.sum(bias_last < bias_first))
        bands_r = regular.quantile_bands()
        widths_r = bands_r[2] - bands_r[0]
        ratio = widths_r[-1] / widths_r[0]
        plain_ok = bool(np.all((ratio >= 0.5) & (ratio <= 2.0)))
        ok = band_ok and n_shrink >= 4 and plain_ok and elapsed < 300.0
        verdict(capfd, 5, "band shrinkage study, updated vs refit", ok,
                f"bias shrinks {n_shrink}/5, {elapsed:.0f}s")
        assert band_ok
        assert n_shrink >= 4
        assert plain_ok
        assert elapsed < 300.0

    def test_criterion_06_chain_vs_pooled_mixed_study(self, capfd):
        """Against the pooled random-slope baseline, two regimes sized so
        each effect is visible at reduced scale. With every tenth batch
        pure noise, well-determined batches (n > p) let the zero-started
        chain learn quickly while the pooled fit keeps averaging the
        uninformative batch in, so the chain wins at the final batch.
        With clean but strongly underdetermined batches (p about 4n) the
        truth-started chain's constrained cross-validation stays glued to
        its target, so it beats the pooled fit at every time where the
        pooled model is identified."""
        start = perf_counter()
        mixed_a, zero_a, _ = run_study_mixed_vs_updated(ScenarioConfig(
            study="mixed-vs-updated", p=11, n=25, n_batches=10,
            n_replicates=20, noise_var=1.0, empty_every=10, seed=1))
        loss_mixed_a = mixed_a.mean_loss()
        loss_zero_a = zero_a.mean_loss()
        empties_ok = bool(loss_zero_a[-1] < loss_mixed_a[-1])

        mixed_b, _, truth_b = run_study_mixed_vs_updated(ScenarioConfig(
            study="mixed-vs-updated", p=21, n=5, n_batches=10,
            n_replicates=20, noise_var=1.0, seed=1))
        loss_mixed_b = mixed_b.mean_loss()
        loss_truth_b = truth_b.mean_loss()
        common = np.isfinite(loss_mixed_b)
        clean_ok = bool(np.all(loss_truth_b[common] < loss_mixed_b[common]))
        elapsed = perf_counter() - start
        ok = empties_ok and clean_ok and elapsed < 600.0
        verdict(capfd, 6, "chain vs pooled mixed baseline study", ok,
                f"final {loss_zero_a[-1]:.3f} vs {loss_mixed_a[-1]:.3f}, "
                f"{elapsed:.0f}s")
        assert empties_ok
        assert clean_ok
        assert elapsed < 600.0

    def test_criterion_07_scheduled_penalty_vs_pooled_mixed(self, capfd):
        """Orthonormal batches with batch-specific coefficient noise, five
        steps, the prescribed growing penalty schedule: the chain's final
        mean squared error undercuts the pooled baseline's by three
        standard errors.

        The chain starts as every chain of the package does, from a zero
        initial target, and ``update`` applies all five penalties of the
        schedule, the first one included. With X'X = I each step is
        (ols_t + lam_t * previous) / (1 + lam_t), so the final estimate is
        a0 * target + sum_t a_t * ols_t with ols_t ~ N(beta, (s_eps^2 +
        s_gamma^2) I), and its exact mean squared error is

            p (s_eps^2 + s_gamma^2) sum_t a_t^2 + a0^2 |target - beta|^2.

        The pooled fit is the equal-weight mean of the ols_t whatever the
        random-slope variance, with exact error p (s_eps^2 + s_gamma^2) / T.
        Each Monte Carlo mean must agree with its exact value within three
        standard errors, so the comparison rests on these formulas.

        A second arm seeds the recursion at batch 1's least-squares
        estimate instead (the schedule with lam_1 dropped). It is an
        unbiased, unequally weighted combination of the ols_t, so it cannot
        beat the pooled fit, which is their minimum-variance unbiased
        combination; only its agreement with the exact error is checked.
        """
        p, n, T, R = 4, 8, 5, 2000
        sigma_eps = sigma_gamma = 1.0
        beta = np.array([1.0, -0.5, 0.25, -0.125])
        lams = [1.01 * sigma_eps / np.sqrt(sigma_eps ** 2 + sigma_gamma ** 2)
                * 2 ** (t / 2.0) * np.sqrt(T) for t in range(1, T + 1)]
        names = tuple(f"x{j}" for j in range(1, p + 1))
        init = np.zeros(p)
        loss_chain = np.empty(R)
        loss_seeded = np.empty(R)
        loss_mixed = np.empty(R)
        for rep in range(R):
            rng = default_rng(SeedSequence(entropy=(70, rep)))
            state = EstimatorState(family="linear",
                                   registry=CovariateRegistry(names),
                                   init_target=CoefficientVector.from_array(
                                       names, init))
            batches = []
            seeded = None
            for t in range(1, T + 1):
                Q = np.linalg.qr(rng.standard_normal((n, p)))[0]
                gamma = sigma_gamma * rng.standard_normal(p)
                y = Q @ (beta + gamma) + sigma_eps * rng.standard_normal(n)
                batch = Batch(t=t, X=Q, y=y, covariates=names, family="linear")
                batches.append(batch)
                state = update(state, batch, lams[t - 1])
                ols = Q.T @ y
                if t == 1:
                    seeded = ols
                else:
                    seeded = (ols + lams[t - 1] * seeded) / (1.0 + lams[t - 1])
            chain = state.current.as_array(names)
            pooled = estimate_xi(stack_batches(batches)).fixed_effects
            loss_chain[rep] = np.sum((chain - beta) ** 2)
            loss_seeded[rep] = np.sum((seeded - beta) ** 2)
            loss_mixed[rep] = np.sum((pooled - beta) ** 2)

        def exact_mse(schedule, target):
            shrink = [lam / (1.0 + lam) for lam in schedule]
            a = np.array([np.prod(shrink[t + 1:]) / (1.0 + schedule[t])
                          for t in range(T)])
            a0 = np.prod(shrink)
            return (p * (sigma_eps ** 2 + sigma_gamma ** 2) * np.sum(a ** 2)
                    + a0 ** 2 * np.sum((target - beta) ** 2))

        exact = {
            "chain": (loss_chain, exact_mse(lams, init)),
            "pooled": (loss_mixed,
                       p * (sigma_eps ** 2 + sigma_gamma ** 2) / T),
            "batch-1 seeded": (loss_seeded,
                               exact_mse([0.0] + lams[1:], init)),
        }
        agree = {name: abs(loss.mean() - value)
                 < 3.0 * loss.std(ddof=1) / np.sqrt(R)
                 for name, (loss, value) in exact.items()}
        diff = loss_mixed - loss_chain
        se = diff.std(ddof=1) / np.sqrt(R)
        margin = float(diff.mean())
        z = margin / se
        ok = margin > 3.0 * se and all(agree.values())
        verdict(capfd, 7, "scheduled-penalty chain vs pooled baseline", ok,
                f"chain mse {loss_chain.mean():.3f} (exact "
                f"{exact['chain'][1]:.3f}) vs pooled {loss_mixed.mean():.3f} "
                f"({exact['pooled'][1]:.3f}), z {z:+.1f}; "
                f"batch-1 seeded {loss_seeded.mean():.3f} "
                f"({exact['batch-1 seeded'][1]:.3f})")
        for name, (loss, value) in exact.items():
            assert agree[name], (
                f"{name} Monte Carlo mse {loss.mean():.4f} is more than 3 SE "
                f"({loss.std(ddof=1) / np.sqrt(R):.4f}) from its exact value "
                f"{value:.4f}")
        assert margin > 3.0 * se, (
            f"zero-target chain mse {loss_chain.mean():.4f} (exact "
            f"{exact['chain'][1]:.4f}) is not below pooled mse "
            f"{loss_mixed.mean():.4f} (exact {exact['pooled'][1]:.4f}) by "
            f"3 SE (margin {margin:.4f}, se {se:.4f}, z {z:+.1f}) under the "
            f"schedule lam_1..lam_T = {np.round(lams, 3).tolist()}")

    def test_criterion_08_feasibility_and_constrained_choice(self, capfd):
        """An effectively infinite penalty is feasible on every random
        state; the constrained choice always sits in the reported
        feasible set unless the fallback fired; and on aberrant-batch
        sequences the constraint keeps the penalty at least as large as
        unconstrained selection in at least 90 of 100 runs."""
        rng = default_rng(8008)
        all_feasible = True
        choice_ok = True
        grid = tuple(np.geomspace(1e-3, 1e4, 20))
        for i in range(50):
            family = "logistic" if i % 4 == 3 else "linear"
            p = int(rng.integers(2, 5))
            n = int(rng.integers(12, 26))
            names = tuple(f"x{j}" for j in range(1, p + 1))
            coef = rng.standard_normal(p)
            state = EstimatorState(
                family=family,
                registry=CovariateRegistry(names),
                init_target=CoefficientVector(dict(zip(names, np.zeros(p)))),
            )
            for t in range(1, int(rng.integers(2, 4))):
                X = rng.standard_normal((n, p))
                if family == "linear":
                    y = X @ coef + 0.3 * rng.standard_normal(n)
                    state = update(state, Batch(t=t, X=X, y=y, covariates=names,
                                                family=family), 1.0)
                else:
                    y = (rng.random(n) < expit(X @ coef)).astype(float)
                    state = update_logistic(state, Batch(t=t, X=X, y=y,
                                                         covariates=names,
                                                         family=family), 1.0)
            X = rng.standard_normal((n, p))
            if family == "linear":
                y = X @ coef + 0.3 * rng.standard_normal(n)
            else:
                y = (rng.random(n) < expit(X @ coef)).astype(float)
            batch = Batch(t=state.t + 1, X=X, y=y, covariates=names,
                          family=family)
            folds = make_folds(batch.n, 5, seed=i,
                               strata=y if family == "logistic" else None)
            target = assemble_target(state, names)
            terms = constraint_terms(state, batch, 1e12, target, folds)
            if not terms.lhs < terms.rhs:
                all_feasible = False
            report = select_penalty(state, batch, PenaltySearchConfig(
                k_folds=5, constrained=True, grid=grid, seed=i))
            if not report.fallback_used:
                chosen = next(c for c in report.cv_curve
                              if c.lam == report.chosen_lambda)
                if not chosen.feasible:
                    choice_ok = False

        wins = 0
        odd_grid = tuple(np.geomspace(1e-3, 1e4, 16))
        for rep in range(100):
            rep_rng = default_rng(SeedSequence(entropy=(7, rep)))
            names = ("x1", "x2", "x3")
            coef = np.array([1.5, -1.0, 0.5])
            state = EstimatorState(
                family="linear",
                registry=CovariateRegistry(names),
                init_target=CoefficientVector(dict(zip(names, np.zeros(3)))),
            )
            for t in (1, 2, 3):
                X = rep_rng.standard_normal((15, 3))
                y = X @ coef + 0.3 * rep_rng.standard_normal(15)
                state = update(state, Batch(t=t, X=X, y=y, covariates=names,
                                            family="linear"), 1.0)
            X = rep_rng.standard_normal((15, 3))
            y = X @ (-coef) + 0.3 * rep_rng.standard_normal(15)
            odd = Batch(t=4, X=X, y=y, covariates=names, family="linear")
            lam_con = select_penalty(state, odd, PenaltySearchConfig(
                k_folds=4, constrained=True, grid=odd_grid,
                seed=rep)).chosen_lambda
            lam_unc = select_penalty(state, odd, PenaltySearchConfig(
                k_folds=4, constrained=False, grid=odd_grid,
                seed=rep)).chosen_lambda
            if lam_con >= lam_unc:
                wins += 1
        odd_ok = wins >= 90
        ok = all_feasible and choice_ok and odd_ok
        verdict(capfd, 8, "feasibility and constrained selection", ok,
                f"odd-one-out wins {wins}/100")
        assert all_feasible
        assert choice_ok
        assert odd_ok

    def test_criterion_09_consistency_under_growing_penalties(self, capfd):
        """With per-batch penalties above twice the squared top singular
        value, the chain's quadratic loss after 200 batches is under a
        fifth of its starting value, for both families."""
        start = perf_counter()
        linear = check_consistency_trajectory(ScenarioConfig(
            p=5, n=50, n_batches=200, noise_var=1.0, seed=0))
        linear_elapsed = perf_counter() - start
        start = perf_counter()
        logistic = check_consistency_trajectory(ScenarioConfig(
            p=3, n=200, n_batches=200, family="logistic",
            beta_rule=(0.5, -0.5, 0.25), seed=0))
        logistic_elapsed = perf_counter() - start
        lin_ok = linear.condition_met and linear.ratio ** 2 < 0.2
        log_ok = logistic.condition_met and logistic.ratio ** 2 < 0.2
        time_ok = linear_elapsed < 300.0 and logistic_elapsed < 300.0
        ok = lin_ok and log_ok and time_ok
        verdict(capfd, 9, "consistency under growing penalties", ok,
                f"loss ratios {linear.ratio ** 2:.4f} / "
                f"{logistic.ratio ** 2:.4f}")
        assert lin_ok
        assert log_ok
        assert time_ok

    def test_criterion_10_operational_suite(self, capfd, tmp_path):
        """State files survive a write-read round trip unchanged, a
        writer killed mid-write never corrupts the visible file, and
        seeded CLI reruns are byte-identical."""
        rng = default_rng(1010)
        names = ("x1", "x2")
        state = EstimatorState(
            family="linear",
            registry=CovariateRegistry(names),
            init_target=CoefficientVector({"x1": 0.5, "x2": -0.25}),
        )
        X = rng.standard_normal((15, 2))
        y = X @ np.array([1.0, 2.0]) + 0.1 * rng.standard_normal(15)
        state = update(state, Batch(t=1, X=X, y=y, covariates=names,
                                    family="linear"), 0.8)
        path = str(tmp_path / "model.json")
        cio.write_state(state, path)
        loaded = cio.read_state(path)
        round_trip_ok = cio.state_to_doc(loaded) == cio.state_to_doc(state)

        before = Path(path).read_bytes()
        script = textwrap.dedent("""
            import os, sys
            import ridge_relay.cli_io as cio
            os.replace = lambda src, dst: os._exit(9)
            cio._atomic_write_text(sys.argv[1], "GARBAGE")
        """)
        proc = subprocess.run([sys.executable, "-c", script, path],
                              capture_output=True)
        atomic_ok = proc.returncode == 9 \
            and Path(path).read_bytes() == before

        def run_cli(*argv):
            import contextlib
            import io as io_mod
            out = io_mod.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io_mod.StringIO()):
                code = cio.main(list(argv))
            return code, out.getvalue()

        data = str(tmp_path / "batch.csv")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("x1,x2,y\n")
            gen = default_rng(77)
            for _ in range(12):
                a, b = (float(v) for v in gen.standard_normal(2))
                fh.write(f"{a!r},{b!r},{a - b!r}\n")
        twin_a = str(tmp_path / "a.json")
        twin_b = str(tmp_path / "b.json")
        for twin in (twin_a, twin_b):
            assert run_cli("init", "--state", twin,
                           "--covariates", "x1,x2")[0] == 0
            assert run_cli("update", "--state", twin, "--data", data,
                           "--response", "y", "--k-folds", "3")[0] == 0
        update_ok = Path(twin_a).read_bytes() == Path(twin_b).read_bytes()

        scenario = str(tmp_path / "scenario.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump({"study": "regular-vs-updated", "p": 3, "n": 6,
                       "n_batches": 3, "n_replicates": 2, "noise_var": 0.25,
                       "k_folds": 3, "grid_points": 5, "seed": 9}, fh)
        sim_files = []
        for out_dir in ("sim1", "sim2"):
            code, out = run_cli("simulate", "--scenario", scenario,
                                "--out", str(tmp_path / out_dir))
            assert code == 0
            sim_files.append(sorted(json.loads(out)["files"]))
        sim_ok = all(
            Path(f1).read_bytes() == Path(f2).read_bytes()
            for f1, f2 in zip(*sim_files))
        ok = round_trip_ok and atomic_ok and update_ok and sim_ok
        verdict(capfd, 10, "round trip, crash safety, seeded reruns", ok)
        assert round_trip_ok
        assert atomic_ok
        assert update_ok
        assert sim_ok
