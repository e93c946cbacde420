"""Tests for the closed-form shrinkage estimator and its exact moments.

The closed form is checked against a numerical minimizer of the penalized
least-squares objective, and the moment formulas against both a direct
single-step calculation and Monte Carlo simulation of the update chain.
The residual variance over a fit's effective degrees of freedom
(``estimate_noise_variance``) is defined here, beside its checks: no
command or study of the package needs it.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize

from ridge_relay import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    EstimationError,
    EstimatorState,
    SingularMatrixError,
    ValidationError,
    exact_moments_general,
    exact_moments_orthonormal,
    fit_targeted_ridge,
    fit_targeted_ridge_grid,
    loo_ridge_grid,
    update,
)
from ridge_relay.linear_estimator import _check_xy_target


def estimate_noise_variance(X, y, fit):
    """Residual variance estimate for a targeted ridge fit.

    Divides the residual sum of squares by n minus the effective degrees
    of freedom trace((X'X + lam I)^{-1} X'X) of the smoother. With the
    singular values s of X that trace is sum s^2 / (s^2 + lam), whose
    terms are exactly 1 at lam = 0: a design with as many independent
    columns as rows leaves exactly zero degrees of freedom, which is an
    error, not a rounding residue divided into the fit's residual.
    """
    X, y, _ = _check_xy_target(X, y, fit.target)
    d = np.linalg.svd(X, compute_uv=False) ** 2
    d = d[d > 0]
    edf = float(np.sum(d / (d + fit.lam)))
    dof = X.shape[0] - edf
    if dof <= 0:
        raise EstimationError(
            f"no residual degrees of freedom: n={X.shape[0]}, effective df={edf:.3f}")
    return residual_sse(X, y, fit) / dof


def residual_sse(X, y, fit):
    """Residual sum of squares of ``fit`` on (X, y)."""
    resid = y - X @ fit.coef
    return float(resid @ resid)


def brute_force_fit(X, y, lam, target):
    """Minimize ||y - Xb||^2 + lam ||b - target||^2 numerically."""

    def objective(beta):
        resid = y - X @ beta
        delta = beta - target
        return resid @ resid + lam * (delta @ delta)

    result = optimize.minimize(objective, np.zeros(X.shape[1]), method="BFGS",
                               options={"gtol": 1e-12, "maxiter": 500})
    assert result.success or result.fun <= objective(result.x) + 1e-12
    return result.x


def fresh_state(names=("a", "b")):
    registry = CovariateRegistry(tuple(names))
    init = CoefficientVector({n: 0.0 for n in names})
    return EstimatorState(family="linear", registry=registry, init_target=init)


class TestFitTargetedRidge:
    def test_matches_brute_force_minimizer(self):
        """The closed form solves the penalized objective: checked against an
        independent numerical minimizer on random instances."""
        rng = np.random.default_rng(314)
        for _ in range(20):
            n = rng.integers(3, 11)
            p = rng.integers(1, 6)
            X = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            target = rng.standard_normal(p)
            lam = float(rng.choice([0.1, 1.0, 10.0]))
            fit = fit_targeted_ridge(X, y, lam, target)
            expected = brute_force_fit(X, y, lam, target)
            np.testing.assert_allclose(fit.coef, expected, atol=1e-6)

    def test_normal_equations_hold_exactly(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        target = rng.standard_normal(4)
        lam = 2.5
        fit = fit_targeted_ridge(X, y, lam, target)
        lhs = (X.T @ X + lam * np.eye(4)) @ fit.coef
        rhs = X.T @ y + lam * target
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_zero_penalty_recovers_least_squares(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((15, 3))
        y = rng.standard_normal(15)
        fit = fit_targeted_ridge(X, y, 0.0, np.array([5.0, -5.0, 5.0]))
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(fit.coef, ols, atol=1e-10)

    def test_huge_penalty_pins_to_target(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        target = np.array([1.5, -0.5])
        fit = fit_targeted_ridge(X, y, 1e12, target)
        np.testing.assert_allclose(fit.coef, target, atol=1e-9)

    def test_zero_penalty_needs_full_rank(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SingularMatrixError):
            fit_targeted_ridge(X, y, 0.0, np.zeros(2))
        fit = fit_targeted_ridge(X, y, 0.5, np.zeros(2))
        assert np.all(np.isfinite(fit.coef))

    def test_negative_or_nonfinite_penalty_rejected(self):
        X, y = np.ones((2, 1)), np.ones(2)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                fit_targeted_ridge(X, y, bad, np.zeros(1))

    def test_scalar_least_squares_example(self):
        fit = fit_targeted_ridge(np.array([[2.0]]), np.array([4.0]), 0.0,
                                 np.array([123.0]))
        np.testing.assert_allclose(fit.coef, [2.0], atol=1e-12)

    def test_orthonormal_half_shrink_example(self):
        fit = fit_targeted_ridge(np.eye(2), np.array([1.0, 2.0]), 1.0, np.zeros(2))
        np.testing.assert_allclose(fit.coef, [0.5, 1.0], atol=1e-12)

    def test_estimate_is_linear_in_the_target(self):
        """Blending two targets blends the two fits with the same weights."""
        rng = np.random.default_rng(12)
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        t1 = rng.standard_normal(3)
        t2 = rng.standard_normal(3)
        for a in (0.0, 0.3, 0.5, 1.0):
            blended = fit_targeted_ridge(X, y, 1.7, a * t1 + (1 - a) * t2).coef
            separate = (a * fit_targeted_ridge(X, y, 1.7, t1).coef
                        + (1 - a) * fit_targeted_ridge(X, y, 1.7, t2).coef)
            np.testing.assert_allclose(blended, separate, atol=1e-10)

    def test_distance_to_target_shrinks_as_penalty_grows(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        target = rng.standard_normal(3)
        grid = np.geomspace(1e-3, 1e3, 13)
        gaps = [np.linalg.norm(fit_targeted_ridge(X, y, lam, target).coef - target)
                for lam in grid]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_change_of_variable_identity(self):
        """Fitting toward a target equals the target plus a zero-target fit
        on target-adjusted responses."""
        rng = np.random.default_rng(14)
        X = rng.standard_normal((9, 3))
        y = rng.standard_normal(9)
        target = rng.standard_normal(3)
        lam = 0.9
        direct = fit_targeted_ridge(X, y, lam, target).coef
        offset = fit_targeted_ridge(X, y - X @ target, lam, np.zeros(3)).coef
        np.testing.assert_allclose(direct, target + offset, atol=1e-10)


class TestFitTargetedRidgeGrid:
    def test_every_grid_fit_matches_the_single_fit(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((9, 3))
        y = rng.standard_normal(9)
        lams = (1e-4, 0.3, 7.0, 1e6)
        for target in rng.standard_normal((2, 3)):
            coefs, solvable = fit_targeted_ridge_grid(X, y, lams, target)
            assert coefs.shape == (3, 4) and solvable.all()
            for i, lam in enumerate(lams):
                np.testing.assert_allclose(
                    coefs[:, i], fit_targeted_ridge(X, y, lam, target).coef,
                    rtol=1e-10, atol=1e-12)

    def test_zero_penalty_is_least_squares_on_full_rank_designs(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        coefs, solvable = fit_targeted_ridge_grid(X, y, (0.0,), np.ones(2))
        assert solvable.all()
        np.testing.assert_allclose(coefs[:, 0], np.linalg.lstsq(X, y, rcond=None)[0],
                                   rtol=1e-10)

    @pytest.mark.parametrize("rows", [6, 2])
    def test_singular_penalties_are_flagged_not_solved(self, rows):
        """A duplicated column (6 rows) or more columns than rows (2 rows)
        leaves X'X singular: a zero penalty is flagged unsolvable and its
        coefficients stay finite at the target; positive ones solve."""
        rng = np.random.default_rng(18)
        X = rng.standard_normal((rows, 3))
        X[:, 2] = X[:, 0]
        y = rng.standard_normal(rows)
        target = np.array([0.5, -1.0, 2.0])
        coefs, solvable = fit_targeted_ridge_grid(X, y, (0.0, 1e-300, 1.0), target)
        np.testing.assert_array_equal(solvable, [False, False, True])
        assert np.isfinite(coefs).all()
        np.testing.assert_array_equal(coefs[:, 0], target)
        np.testing.assert_allclose(coefs[:, 2], fit_targeted_ridge(X, y, 1.0, target).coef,
                                   rtol=1e-10)

    def test_input_validation(self):
        """A negative penalty, a target of the wrong length, a target of
        one column per candidate (not a vector) and a NaN response."""
        X = np.ones((3, 2))
        with pytest.raises(ValidationError):
            fit_targeted_ridge_grid(X, np.ones(3), (-1.0,), np.zeros(2))
        with pytest.raises(ValidationError):
            fit_targeted_ridge_grid(X, np.ones(3), (1.0,), np.zeros(3))
        with pytest.raises(ValidationError):
            fit_targeted_ridge_grid(X, np.ones(3), (1.0,), np.zeros((2, 1)))
        with pytest.raises(ValidationError):
            fit_targeted_ridge_grid(X, np.array([1.0, np.nan, 0.0]), (1.0,), np.zeros(2))


def per_fold_loo(X, y, lams, target, history=None):
    """Leave-one-out means from one ``fit_targeted_ridge_grid`` per held-out
    row: the route ``loo_ridge_grid`` replaces."""
    n = X.shape[0]
    score = np.zeros(len(lams))
    hist = np.zeros_like(score)
    for i in range(n):
        rest = np.arange(n) != i
        coefs, solvable = fit_targeted_ridge_grid(X[rest], y[rest], lams, target)
        assert solvable.all()
        score += (y[i] - X[i] @ coefs) ** 2
        if history is not None:
            F, f = history
            resid = F @ coefs[:F.shape[1]] - f[:, None]
            hist += np.einsum("ml,ml->l", resid, resid)
    return score / n, hist / n


def exact_solve(A, b):
    """Gaussian elimination on ``Fraction`` entries, no rounding."""
    n = len(A)
    M = [row[:] + [rhs] for row, rhs in zip(A, b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        for r in range(c + 1, n):
            factor = M[r][c] / M[c][c]
            M[r] = [a - factor * b for a, b in zip(M[r], M[c])]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (M[r][n] - sum(M[r][j] * x[j] for j in range(r + 1, n))) / M[r][r]
    return x


def exact_loo_score(X, y, lam):
    """The zero-target leave-one-out score in exact rational arithmetic."""
    n, p = X.shape
    Xq = [[Fraction(v) for v in row] for row in X]
    yq = [Fraction(v) for v in y]
    total = Fraction(0)
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        A = [[sum(Xq[j][a] * Xq[j][c] for j in rest) + (Fraction(lam) if a == c else 0)
              for c in range(p)] for a in range(p)]
        b = [sum(Xq[j][a] * yq[j] for j in rest) for a in range(p)]
        coef = exact_solve(A, b)
        total += (yq[i] - sum(Xq[i][a] * coef[a] for a in range(p))) ** 2
    return float(total / n)


class TestLooRidgeGrid:
    @pytest.mark.parametrize("n, p, k", [(12, 3, 3), (9, 4, 2), (5, 5, 5), (4, 7, 3),
                                         (2, 1, 1)])
    def test_matches_one_grid_solve_per_held_out_row(self, n, p, k):
        """Fewer, as many and more columns than rows, and a history over
        fewer covariates than the design."""
        rng = np.random.default_rng(19 + n + p)
        X = rng.standard_normal((n, p))
        y = X @ rng.standard_normal(p) + 0.5 * rng.standard_normal(n)
        F = np.triu(rng.standard_normal((k + 1, k)))
        f = rng.standard_normal(k + 1)
        lams = (1e-4, 0.3, 7.0, 1e6)
        for target in rng.standard_normal((3, p)):
            score, hist = loo_ridge_grid(X, y, lams, target, (F, f))
            want_score, want_hist = per_fold_loo(X, y, lams, target, (F, f))
            np.testing.assert_allclose(score, want_score, rtol=1e-10)
            np.testing.assert_allclose(hist, want_hist, rtol=1e-10)
            assert loo_ridge_grid(X, y, lams, target)[1] is None

    def test_square_and_wide_designs_form_no_outside_part(self):
        """With as many columns as rows every row lies in the column space:
        a tiny penalty's held-out residuals come only from the shrunk
        directions and stay accurate."""
        rng = np.random.default_rng(20)
        X = rng.standard_normal((6, 6))
        y = rng.standard_normal(6)
        lams = (1e-4,)
        score, _ = loo_ridge_grid(X, y, lams, np.zeros(6))
        want, _ = per_fold_loo(X, y, lams, np.zeros(6))
        np.testing.assert_allclose(score, want, rtol=1e-10)

    def test_nearly_noiseless_fits_keep_their_held_out_residuals(self):
        """With the response almost in the column space, r - UU'r is a small
        difference of large terms. Projected twice it stays within 2e-11 of
        the exact score over these batches; projected once it erred by up
        to 1.2e-10."""
        errors = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((8, 5))
            y = X @ rng.standard_normal(5) + 1e-6 * rng.standard_normal(8)
            score, _ = loo_ridge_grid(X, y, (1e-4,), np.zeros(5))
            exact = exact_loo_score(X, y, 1e-4)
            errors.append(abs(score[0] - exact) / exact)
        assert max(errors) <= 2e-11

    @pytest.mark.parametrize("case", ["high-leverage row", "singular penalty",
                                      "duplicated column"])
    def test_declines_what_it_cannot_certify(self, case):
        """A row of leverage near 1 leaves 1 - h_ii to cancellation at
        every penalty; a penalty that leaves some fold's X'X + lam I
        singular is declined, and the grid without it is not."""
        rng = np.random.default_rng(21)
        X = rng.standard_normal((10, 3))
        if case == "high-leverage row":
            X[0] *= 1e4
        elif case == "singular penalty":
            X = rng.standard_normal((3, 5))
        else:
            X[:, 2] = X[:, 0]
        y = rng.standard_normal(X.shape[0])
        target = np.zeros(X.shape[1])
        assert loo_ridge_grid(X, y, (1e-300, 1.0), target) is None
        rest = loo_ridge_grid(X, y, (1.0,), target)
        assert (rest is None) == (case == "high-leverage row")

    def test_history_must_fit_the_design(self):
        X = np.ones((3, 2)) + np.eye(3, 2)
        with pytest.raises(ValidationError):
            loo_ridge_grid(X, np.ones(3), (1.0,), np.zeros(2), (np.ones((4, 3)), np.ones(4)))
        with pytest.raises(ValidationError):
            loo_ridge_grid(X, np.ones(3), (1.0,), np.zeros(2), (np.ones((4, 2)), np.ones(3)))


class TestSequentialUpdate:
    def test_second_step_shrinks_toward_first_estimate(self):
        """The chain property: step t's target is step t-1's estimate."""
        rng = np.random.default_rng(21)
        state = fresh_state()
        batches = [
            Batch(t=1, X=rng.standard_normal((6, 2)), y=rng.standard_normal(6),
                  covariates=("a", "b")),
            Batch(t=2, X=rng.standard_normal((6, 2)), y=rng.standard_normal(6),
                  covariates=("a", "b")),
        ]
        state = update(state, batches[0], 0.7)
        first = state.current.as_array(("a", "b"))
        state = update(state, batches[1], 1.3)
        expected = fit_targeted_ridge(batches[1].X, batches[1].y, 1.3, first).coef
        np.testing.assert_allclose(state.current.as_array(("a", "b")), expected,
                                   atol=1e-12)

    def test_new_covariate_enters_with_zero_target(self):
        rng = np.random.default_rng(22)
        state = fresh_state(names=("a",))
        b1 = Batch(t=1, X=rng.standard_normal((5, 1)), y=rng.standard_normal(5),
                   covariates=("a",))
        state = update(state, b1, 1.0)
        a_hat = state.current.values["a"]
        X2 = rng.standard_normal((5, 2))
        b2 = Batch(t=2, X=X2, y=rng.standard_normal(5), covariates=("a", "c"))
        state = update(state, b2, 2.0)
        assert state.registry.names == ("a", "c")
        expected = fit_targeted_ridge(X2, b2.y, 2.0, np.array([a_hat, 0.0])).coef
        np.testing.assert_allclose(state.current.as_array(("a", "c")), expected,
                                   atol=1e-12)

    def test_zero_penalty_rejected_for_updates(self):
        state = fresh_state()
        batch = Batch(t=1, X=np.eye(2), y=np.ones(2), covariates=("a", "b"))
        with pytest.raises(ValidationError):
            update(state, batch, 0.0)

    def test_family_mismatch_rejected(self):
        state = fresh_state(names=("a",))
        batch = Batch(t=1, X=np.ones((2, 1)), y=np.array([0.0, 1.0]),
                      covariates=("a",), family="logistic")
        with pytest.raises(ValidationError):
            update(state, batch, 1.0)

    def test_exact_target_with_noiseless_data_is_a_fixed_point(self):
        """When the target already equals the truth and the data agree,
        any penalty leaves the estimate unchanged."""
        rng = np.random.default_rng(25)
        X = rng.standard_normal((6, 1))
        init = CoefficientVector({"a": 1.0})
        state = EstimatorState(family="linear", registry=CovariateRegistry(("a",)),
                               init_target=init)
        batch = Batch(t=1, X=X, y=(X @ np.array([1.0])), covariates=("a",))
        for lam in (0.1, 1.0, 25.0):
            advanced = update(state, batch, lam)
            np.testing.assert_allclose(advanced.current.values["a"], 1.0,
                                       atol=1e-10)

    def test_first_update_from_zero_init_is_plain_ridge(self):
        rng = np.random.default_rng(26)
        state = fresh_state()
        X = rng.standard_normal((8, 2))
        batch = Batch(t=1, X=X, y=rng.standard_normal(8), covariates=("a", "b"))
        advanced = update(state, batch, 1.5)
        gram = X.T @ X
        plain = np.linalg.solve(gram + 1.5 * np.eye(2), X.T @ batch.y)
        np.testing.assert_allclose(advanced.current.as_array(("a", "b")), plain,
                                   atol=1e-12)

    def test_three_step_chain_mean_over_replicates(self):
        """On a unit-norm single covariate with penalty 1 and zero start,
        the mean estimate after t steps is 1 - 2^{-t}."""
        rng = np.random.default_rng(27)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        X = x[:, None]
        reps, steps = 2000, 3
        finals = np.empty(reps)
        template = EstimatorState(family="linear",
                                  registry=CovariateRegistry(("a",)),
                                  init_target=CoefficientVector({"a": 0.0}))
        for r in range(reps):
            state = template
            for t in range(1, steps + 1):
                y = x + rng.standard_normal(4)
                state = update(state, Batch(t=t, X=X, y=y, covariates=("a",)), 1.0)
            finals[r] = state.current.values["a"]
        expected = 1.0 - 0.5 ** steps
        var = (1.0 - 0.5 ** (2 * steps)) / 3.0
        se = np.sqrt(var / reps)
        assert abs(finals.mean() - expected) < 3 * se


def simulate_orthonormal_chain(rng, Q, coef, target, lam, steps, noise_sd):
    est = target.copy()
    for _ in range(steps):
        y = Q @ coef + noise_sd * rng.standard_normal(Q.shape[0])
        est = (Q.T @ y + lam * est) / (1.0 + lam)
    return est


class TestExactMomentsOrthonormal:
    def test_mean_contracts_geometrically(self):
        coef = np.array([2.0, -1.0])
        target = np.array([0.0, 3.0])
        for t in range(1, 5):
            report = exact_moments_orthonormal(coef, target, 1.0, t, 1.0)
            np.testing.assert_allclose(
                report.mean, coef + 0.5 ** t * (target - coef), atol=1e-12)

    def test_variance_increases_toward_its_limit(self):
        coef, target = np.zeros(2), np.zeros(2)
        lam, noise = 0.8, 2.0
        variances = [exact_moments_orthonormal(coef, target, lam, t, noise)
                     .covariance[0, 0] for t in range(1, 13)]
        assert all(b > a for a, b in zip(variances, variances[1:]))
        limit = noise / (1 + 2 * lam)
        assert variances[-1] < limit
        np.testing.assert_allclose(variances[-1], limit, rtol=1e-6)

    def test_long_horizon_limits(self):
        """For large t the mean converges to the generating coefficients and
        the variance to its stationary value."""
        coef = np.array([3.0, -1.0])
        target = np.array([-5.0, 5.0])
        report = exact_moments_orthonormal(coef, target, 1.0, 200, 1.0)
        np.testing.assert_allclose(report.mean, coef, atol=1e-12)
        np.testing.assert_allclose(report.covariance, np.eye(2) / 3.0, atol=1e-12)

    def test_vanishing_penalty_single_step_is_least_squares(self):
        coef = np.array([2.0])
        report = exact_moments_orthonormal(coef, np.array([9.0]), 1e-12, 1, 1.0)
        np.testing.assert_allclose(report.mean, coef, atol=1e-10)
        np.testing.assert_allclose(report.covariance, [[1.0]], atol=1e-10)

    def test_agrees_with_general_recursion_on_orthonormal_designs(self):
        """The closed form is the general recursion specialized to X'X = I."""
        rng = np.random.default_rng(33)
        p, steps, lam = 3, 4, 0.6
        Q, _ = np.linalg.qr(rng.standard_normal((9, p)))
        coef = rng.standard_normal(p)
        target = rng.standard_normal(p)
        closed = exact_moments_orthonormal(coef, target, lam, steps, 1.7)
        general = exact_moments_general([Q] * steps, [lam] * steps, coef, target, 1.7)
        np.testing.assert_allclose(closed.mean, general.mean, atol=1e-10)
        np.testing.assert_allclose(closed.covariance, general.covariance, atol=1e-10)

    def test_monte_carlo_agreement(self):
        """Simulated chains reproduce the predicted mean and variance."""
        rng = np.random.default_rng(34)
        p, lam, steps, noise_sd, reps = 2, 1.0, 2, 1.0, 4000
        Q, _ = np.linalg.qr(rng.standard_normal((6, p)))
        coef = np.array([1.0, -2.0])
        target = np.array([0.5, 0.5])
        report = exact_moments_orthonormal(coef, target, lam, steps, noise_sd ** 2)
        draws = np.array([simulate_orthonormal_chain(rng, Q, coef, target, lam,
                                                     steps, noise_sd)
                          for _ in range(reps)])
        pred_var = report.covariance[0, 0]
        mean_z = (draws.mean(axis=0) - report.mean) / np.sqrt(pred_var / reps)
        var_z = (draws.var(axis=0, ddof=1) - pred_var) / (
            pred_var * np.sqrt(2.0 / (reps - 1)))
        assert np.max(np.abs(mean_z)) < 4.0
        assert np.max(np.abs(var_z)) < 4.0

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            exact_moments_orthonormal(np.zeros(2), np.zeros(3), 1.0, 1, 1.0)
        with pytest.raises(ValidationError):
            exact_moments_orthonormal(np.zeros(2), np.zeros(2), 1.0, 0, 1.0)
        with pytest.raises(ValidationError):
            exact_moments_orthonormal(np.zeros(2), np.zeros(2), 1.0, 1, -1.0)


class TestExactMomentsGeneral:
    def test_single_step_matches_direct_formula(self):
        """One update has textbook moments, computed here with a plain
        dense inverse as an independent code path."""
        rng = np.random.default_rng(41)
        p, lam, noise = 3, 0.9, 1.3
        X = rng.standard_normal((8, p))
        coef = rng.standard_normal(p)
        target = rng.standard_normal(p)
        gram = X.T @ X
        A = np.linalg.inv(gram + lam * np.eye(p))
        mean = A @ (gram @ coef + lam * target)
        cov = noise * A @ gram @ A
        report = exact_moments_general([X], [lam], coef, target, noise)
        np.testing.assert_allclose(report.mean, mean, atol=1e-10)
        np.testing.assert_allclose(report.covariance, cov, atol=1e-10)

    def test_three_step_monte_carlo(self):
        rng = np.random.default_rng(42)
        p, noise_sd, reps = 2, 0.7, 6000
        designs = [rng.standard_normal((7, p)) for _ in range(3)]
        lams = [0.5, 1.5, 0.8]
        coef = np.array([1.0, -0.5])
        target = np.zeros(p)
        report = exact_moments_general(designs, lams, coef, target, noise_sd ** 2)
        draws = np.empty((reps, p))
        for r in range(reps):
            est = target.copy()
            for X, lam in zip(designs, lams):
                y = X @ coef + noise_sd * rng.standard_normal(X.shape[0])
                est = np.linalg.solve(X.T @ X + lam * np.eye(p),
                                      X.T @ y + lam * est)
            draws[r] = est
        diag = np.diag(report.covariance)
        mean_z = (draws.mean(axis=0) - report.mean) / np.sqrt(diag / reps)
        var_z = (draws.var(axis=0, ddof=1) - diag) / (diag * np.sqrt(2.0 / (reps - 1)))
        assert np.max(np.abs(mean_z)) < 4.0
        assert np.max(np.abs(var_z)) < 4.0

    def test_covariance_is_symmetric(self):
        rng = np.random.default_rng(43)
        designs = [rng.standard_normal((5, 3)) for _ in range(4)]
        report = exact_moments_general(designs, [1.0] * 4, np.zeros(3),
                                       np.ones(3), 2.0)
        np.testing.assert_array_equal(report.covariance, report.covariance.T)

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValidationError):
            exact_moments_general([], [], np.zeros(2), np.zeros(2), 1.0)
        with pytest.raises(ValidationError):
            exact_moments_general([np.ones((3, 2))], [1.0, 2.0],
                                  np.zeros(2), np.zeros(2), 1.0)
        with pytest.raises(ValidationError):
            exact_moments_general([np.ones((3, 3))], [1.0],
                                  np.zeros(2), np.zeros(2), 1.0)


class TestEstimateNoiseVariance:
    def test_recovers_classic_estimator_without_penalty(self):
        rng = np.random.default_rng(51)
        n, p = 20, 3
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = fit_targeted_ridge(X, y, 0.0, np.zeros(p))
        classic = residual_sse(X, y, fit) / (n - p)
        np.testing.assert_allclose(estimate_noise_variance(X, y, fit), classic,
                                   rtol=1e-12)

    def test_penalty_shrinks_effective_dof(self):
        rng = np.random.default_rng(52)
        n, p, lam = 15, 4, 3.0
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = fit_targeted_ridge(X, y, lam, np.zeros(p))
        gram = X.T @ X
        edf = np.trace(np.linalg.inv(gram + lam * np.eye(p)) @ gram)
        assert edf < p
        np.testing.assert_allclose(estimate_noise_variance(X, y, fit),
                                   residual_sse(X, y, fit) / (n - edf), rtol=1e-10)

    def test_no_remaining_dof_is_an_error(self):
        # An unpenalized fit of a square design interpolates the data. The
        # guard must not depend on the last bit of a computed trace, so it
        # is checked over many designs and sizes.
        for seed in range(200):
            rng = np.random.default_rng((53, seed))
            for p in range(2, 12):
                X = rng.standard_normal((p, p))
                y = rng.standard_normal(p)
                fit = fit_targeted_ridge(X, y, 0.0, np.zeros(p))
                with pytest.raises(EstimationError):
                    estimate_noise_variance(X, y, fit)
