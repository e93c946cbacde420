"""Tests for penalized logistic regression solved by re-weighted least squares.

The scalar penalized log-likelihood and its analytic gradient live in
``irls_reference.py``. The gradient is checked against central finite
differences, and the solver against independent numerical optimizers
(multivariate quasi-Newton and one-dimensional golden-section search) of
that penalized log-likelihood.
The batched solver behind ``irls_fit_grid`` is checked, as a property over
generated problems, against its one-candidate call and against the scalar
reference IRLS in ``irls_reference.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import optimize
from scipy.special import expit

from ridge_relay import (
    Batch,
    CoefficientVector,
    ConvergenceError,
    CovariateRegistry,
    EstimatorState,
    SingularMatrixError,
    ValidationError,
    default_grid,
    irls_fit,
    irls_fit_grid,
    update_logistic,
)
from ridge_relay import logistic_estimator

from irls_reference import (
    estimating_equation,
    logistic_loglik,
    penalized_loglik,
    reference_irls_fit,
)


def make_data(rng, n, p, coef):
    X = rng.standard_normal((n, p))
    y = (rng.random(n) < expit(X @ coef)).astype(float)
    return X, y


def logistic_state(names=("a", "b", "c")):
    return EstimatorState(family="logistic",
                          registry=CovariateRegistry(tuple(names)),
                          init_target=CoefficientVector({n: 0.0 for n in names}))


class TestLogisticLoglik:
    def test_zero_coefficients_give_coin_flip_likelihood(self):
        rng = np.random.default_rng(61)
        X, y = make_data(rng, 12, 3, np.zeros(3))
        expected = -12.0 * np.log(2.0)
        np.testing.assert_allclose(logistic_loglik(X, y, np.zeros(3)), expected,
                                   rtol=1e-12)

    def test_single_balanced_sample(self):
        value = logistic_loglik(np.array([[1.0]]), np.array([1.0]), np.zeros(1))
        np.testing.assert_allclose(value, -np.log(2.0), rtol=1e-12)

    def test_extreme_scores_do_not_overflow(self):
        X = np.array([[800.0]])
        hit = logistic_loglik(X, np.array([1.0]), np.ones(1))
        miss = logistic_loglik(X, np.array([0.0]), np.ones(1))
        assert np.isfinite(hit) and abs(hit) < 1e-300
        np.testing.assert_allclose(miss, -800.0, rtol=1e-12)

    def test_non_binary_response_rejected(self):
        with pytest.raises(ValidationError):
            logistic_loglik(np.ones((2, 1)), np.array([0.0, 0.4]), np.zeros(1))


class TestCheckBinary:
    @pytest.mark.parametrize("values, accepted", [
        ([0.0, 1.0, 1.0], True),
        ([-0.0, 1.0], True),
        ([], True),
        ([0.0, 0.5], False),
        ([1.0, np.nan], False),
    ])
    def test_accepts_exactly_zero_and_one(self, values, accepted):
        """Equality with 0 and 1 accepts the same responses as ``np.isin``
        against (0, 1): -0.0 passes, 0.5 and NaN do not."""
        y = np.array(values, dtype=float)
        assert bool(np.all(np.isin(y, (0.0, 1.0)))) == accepted
        if accepted:
            logistic_estimator._check_binary(y)
        else:
            with pytest.raises(ValidationError):
                logistic_estimator._check_binary(y)


class TestEstimatingEquation:
    def test_constructed_exact_root_gives_zero(self):
        """With coefficients at the target and responses balanced around
        their fitted probabilities, both terms vanish."""
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        y = np.array([0.0, 1.0])
        beta = np.zeros(2)
        residual = estimating_equation(X, y, beta, 3.0, beta)
        np.testing.assert_allclose(residual, np.zeros(2), atol=1e-14)

    def test_zero_penalty_reduces_to_unpenalized_score(self):
        rng = np.random.default_rng(62)
        X, y = make_data(rng, 15, 3, np.array([0.5, -1.0, 0.0]))
        beta = rng.standard_normal(3)
        score = estimating_equation(X, y, beta, 0.0, np.zeros(3))
        np.testing.assert_allclose(score, X.T @ (y - expit(X @ beta)), atol=1e-12)

    def test_matches_finite_difference_gradient(self):
        """Central differences of the penalized log-likelihood agree with
        the analytic estimating equation on random instances."""
        rng = np.random.default_rng(63)
        h = 1e-6
        for _ in range(10):
            n, p = 12, 3
            X, y = make_data(rng, n, p, rng.standard_normal(p))
            beta = 0.5 * rng.standard_normal(p)
            target = rng.standard_normal(p)
            lam = float(rng.choice([0.2, 1.0, 4.0]))
            analytic = estimating_equation(X, y, beta, lam, target)
            numeric = np.empty(p)
            for j in range(p):
                step = np.zeros(p)
                step[j] = h
                numeric[j] = (penalized_loglik(X, y, beta + step, lam, target)
                              - penalized_loglik(X, y, beta - step, lam, target)) / (2 * h)
            scale = np.maximum(1.0, np.abs(analytic))
            np.testing.assert_allclose(numeric / scale, analytic / scale, atol=1e-5)


class TestIrlsFit:
    def test_infinite_shrinkage_returns_target(self):
        rng = np.random.default_rng(64)
        X, y = make_data(rng, 20, 2, np.array([1.0, -1.0]))
        target = np.array([0.3, -0.7])
        fit = irls_fit(X, y, 1e12, target)
        np.testing.assert_allclose(fit.coef, target, atol=1e-5)

    def test_matches_independent_quasi_newton_optimizer(self):
        """Zero-centered penalized fits agree with a quasi-Newton maximizer
        of the same objective that shares no code with the solver."""
        rng = np.random.default_rng(65)
        for lam in (0.3, 1.0, 5.0):
            X, y = make_data(rng, 25, 3, np.array([1.0, -0.5, 0.0]))
            target = np.zeros(3)

            def negative_objective(beta):
                return -penalized_loglik(X, y, beta, lam, target)

            reference = optimize.minimize(negative_objective, np.zeros(3),
                                          method="BFGS",
                                          options={"gtol": 1e-10, "maxiter": 500})
            fit = irls_fit(X, y, lam, target)
            np.testing.assert_allclose(fit.coef, reference.x, atol=1e-5)

    def test_matches_golden_section_search_on_one_covariate(self):
        """A dense penalty path on a 1-covariate problem agrees with
        1-D golden-section maximization to 1e-7."""
        rng = np.random.default_rng(66)
        X, y = make_data(rng, 40, 1, np.array([0.8]))
        target = np.array([0.25])
        for lam in np.geomspace(0.05, 50.0, 7):

            def negative_objective(b):
                return -penalized_loglik(X, y, np.array([b]), lam, target)

            reference = optimize.minimize_scalar(negative_objective,
                                                 bracket=(-5.0, 0.0, 5.0),
                                                 method="golden",
                                                 options={"xtol": 1e-12})
            fit = irls_fit(X, y, lam, target)
            np.testing.assert_allclose(fit.coef[0], reference.x, atol=1e-7)

    def test_separated_data_stays_finite(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        fit = irls_fit(X, y, 0.5, np.zeros(1))
        assert np.all(np.isfinite(fit.coef))
        assert fit.final_gradient_norm <= 1e-8

    def test_accepted_iterates_never_decrease_the_objective(self):
        rng = np.random.default_rng(67)
        X, y = make_data(rng, 30, 4, rng.standard_normal(4))
        fit = irls_fit(X, y, 0.7, rng.standard_normal(4))
        path = np.asarray(fit.loglik_path)
        assert path.shape[0] == fit.iterations + 1
        assert np.all(np.diff(path) >= -1e-12)

    def test_solution_is_a_fixed_point_of_the_weighted_normal_equations(self):
        """At convergence the estimate reproduces itself through one more
        weighted least-squares step."""
        rng = np.random.default_rng(68)
        X, y = make_data(rng, 25, 3, np.array([0.5, 1.0, -1.5]))
        lam, target = 0.9, rng.standard_normal(3)
        fit = irls_fit(X, y, lam, target)
        eta = X @ fit.coef
        mu = expit(eta)
        w = mu * (1 - mu)
        z = eta + (y - mu) / w
        lhs = X.T @ (w[:, None] * X) + lam * np.eye(3)
        rhs = X.T @ (w * z) + lam * target
        np.testing.assert_allclose(lhs @ fit.coef, rhs, atol=1e-6)

    def test_reports_iterations_and_gradient_norm(self, monkeypatch):
        rng = np.random.default_rng(69)
        X, y = make_data(rng, 20, 2, np.array([1.0, -1.0]))
        monkeypatch.setattr(logistic_estimator, "IRLS_TOL", 1e-10)
        monkeypatch.setattr(logistic_estimator, "IRLS_MAX_ITER", 50)
        fit = irls_fit(X, y, 1.0, np.zeros(2))
        assert 1 <= fit.iterations <= 50
        assert fit.final_gradient_norm <= 1e-10
        residual = estimating_equation(X, y, fit.coef, 1.0, np.zeros(2))
        assert np.max(np.abs(residual)) <= 1e-10

    def test_iteration_budget_exhaustion_raises(self, monkeypatch):
        rng = np.random.default_rng(70)
        X, y = make_data(rng, 30, 3, np.array([2.0, -2.0, 1.0]))
        monkeypatch.setattr(logistic_estimator, "IRLS_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            irls_fit(X, y, 0.1, np.full(3, 10.0))

    def test_irls_fit_keeps_its_errors(self, monkeypatch):
        """The one-candidate call raises what the scalar solver raised, with
        the same messages."""
        rng = np.random.default_rng(70)
        X, y = make_data(rng, 30, 3, np.array([2.0, -2.0, 1.0]))
        monkeypatch.setattr(logistic_estimator, "IRLS_MAX_ITER", 1)
        messages = []
        for solver in (irls_fit, reference_irls_fit):
            with pytest.raises(ConvergenceError) as info:
                solver(X, y, 0.1, np.full(3, 10.0))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("IRLS did not converge in 1 iterations")

    def test_zero_penalty_rejected(self):
        with pytest.raises(ValidationError):
            irls_fit(np.ones((2, 1)), np.array([0.0, 1.0]), 0.0, np.zeros(1))


class TestUpdateLogistic:
    def test_first_update_from_zero_init_is_plain_penalized_fit(self):
        rng = np.random.default_rng(72)
        X, y = make_data(rng, 30, 3, np.array([1.0, 0.0, -1.0]))
        state = logistic_state()
        batch = Batch(t=1, X=X, y=y, covariates=("a", "b", "c"), family="logistic")
        advanced = update_logistic(state, batch, 1.4)
        direct = irls_fit(X, y, 1.4, np.zeros(3))
        np.testing.assert_allclose(advanced.current.as_array(("a", "b", "c")),
                                   direct.coef, atol=1e-12)
        assert advanced.history[-1].diagnostics["irls_iterations"] >= 1

    def test_target_at_unpenalized_mle_is_a_fixed_point(self):
        """When the shrinkage target solves the unpenalized score equation,
        both terms of the estimating equation vanish there for any penalty."""
        rng = np.random.default_rng(73)
        X, y = make_data(rng, 60, 2, np.array([0.6, -0.4]))

        def negative_loglik(beta):
            return -logistic_loglik(X, y, beta)

        mle = optimize.minimize(negative_loglik, np.zeros(2), method="BFGS",
                                options={"gtol": 1e-12, "maxiter": 500}).x
        for lam in (0.5, 5.0):
            fit = irls_fit(X, y, lam, mle)
            np.testing.assert_allclose(fit.coef, mle, atol=1e-6)

    def test_family_mismatch_rejected(self):
        state = logistic_state(("a",))
        linear_batch = Batch(t=1, X=np.ones((2, 1)), y=np.array([0.5, 1.5]),
                             covariates=("a",))
        with pytest.raises(ValidationError):
            update_logistic(state, linear_batch, 1.0)

    def test_long_chain_concentrates_on_the_truth(self):
        """Across replicated 30-batch sequences the final estimate beats the
        first-batch estimate in Euclidean distance nearly always."""
        rng = np.random.default_rng(74)
        coef = np.array([0.8, -0.6, 0.4])
        reps, n_batches, n = 100, 30, 100
        lam = 25.0
        wins = 0
        for _ in range(reps):
            state = logistic_state()
            first_err = None
            for t in range(1, n_batches + 1):
                X, y = make_data(rng, n, 3, coef)
                batch = Batch(t=t, X=X, y=y, covariates=("a", "b", "c"),
                              family="logistic")
                state = update_logistic(state, batch, lam)
                if t == 1:
                    first_err = np.linalg.norm(
                        state.current.as_array(("a", "b", "c")) - coef)
            final_err = np.linalg.norm(
                state.current.as_array(("a", "b", "c")) - coef)
            wins += final_err < first_err
        assert wins >= 95


@st.composite
def irls_problems(draw):
    """A design, 0/1 responses, ascending grid penalties and a target.

    Covers designs from well scaled to badly scaled, separable responses
    (no unpenalized maximizer), penalties across the default grid, and
    targets from zero to far from the data's optimum.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1.0, 0.3, 4.0]))
    separable = draw(st.booleans())
    lams = sorted(set(draw(st.lists(st.sampled_from(default_grid()), min_size=1,
                                    max_size=6))))
    target_scale = draw(st.sampled_from([0.0, 1.0, 5.0]))
    rng = np.random.default_rng(seed)
    X = scale * rng.standard_normal((n, p))
    eta = X @ rng.standard_normal(p)
    y = eta > 0 if separable else rng.random(n) < expit(eta)
    target = target_scale * rng.standard_normal(p)
    return X, y.astype(float), np.array(lams), target


def stopping_distance(p, lam, *vectors):
    """The stopping rule's bound on the distance between two fits of one
    candidate: each lies within ``sqrt(p) g / lam`` of the maximizer (the
    objective is lam-strongly concave), with g the rule's gradient
    tolerance at the larger coefficient or target scale."""
    size = max(1.0, *(np.abs(v).max(initial=0.0) for v in vectors))
    g = logistic_estimator.IRLS_TOL + 8.0 * np.finfo(float).eps * lam * size
    return 2.0 * np.sqrt(p) * g / lam


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None, suppress_health_check=[HealthCheck.too_slow])


class TestBatchedIrlsProperties:
    @PROPERTY_SETTINGS
    @given(irls_problems())
    def test_accepted_iterates_never_decrease_the_objective(self, problem):
        """Along every candidate's accepted iterates the penalized
        log-likelihood passes the acceptance test, and the recorded path
        ends at the reported value."""
        X, y, lams, target = problem
        run = logistic_estimator._irls_stack(X, y, lams, target)
        for c, steps in enumerate(run.iterations):
            path = run.path[:steps + 1, c]
            assert np.all(np.diff(path) >= -1e-12 * (1.0 + np.abs(path[:-1])))
            assert path[-1] == run.loglik[c]

    @PROPERTY_SETTINGS
    @given(irls_problems())
    def test_grid_fits_match_one_candidate_fits(self, problem):
        """Each stacked fit fails exactly when its one-candidate fit and the
        reference fit fail, and otherwise lies within the stopping rule's
        bound of both."""
        X, y, lams, target = problem
        coefs, ok = irls_fit_grid(X, y, lams, target)
        p = X.shape[1]
        for i, lam in enumerate(lams):
            got = coefs[:, i]
            for solver in (irls_fit, reference_irls_fit):
                try:
                    want = solver(X, y, lam, target).coef
                except (ConvergenceError, SingularMatrixError):
                    assert not ok[i]
                    np.testing.assert_array_equal(got, target)
                    continue
                assert ok[i]
                bound = stopping_distance(p, lam, got, want, target)
                assert np.linalg.norm(got - want) <= bound

    @PROPERTY_SETTINGS
    @given(irls_problems(), st.data())
    def test_forced_failure_leaves_other_candidates_alone(self, problem, data):
        """One candidate made to fail, by a step no halving can rescue or by
        a tolerance it can never meet, fails alone with its own error; every
        other candidate keeps its status and its fit."""
        X, y, lams, target = problem
        victim = data.draw(st.integers(0, len(lams) - 1))
        mode = data.draw(st.sampled_from(["step-halving", "budget"]))
        base = logistic_estimator._irls_stack(X, y, lams, target)

        tolerances = logistic_estimator._tolerances
        proposals = logistic_estimator._newton_proposals

        def unreachable_for_victim(coefs, lams, target):
            tol = tolerances(coefs, lams, target)
            tol[victim] = -1.0
            return tol

        def unusable_for_victim(normal, rhs, rows, failures):
            proposal, solved = proposals(normal, rhs, rows, failures)
            if mode == "step-halving":
                proposal[rows == victim] = np.nan
            return proposal, solved

        with mock.patch.object(logistic_estimator, "_tolerances", unreachable_for_victim), \
                mock.patch.object(logistic_estimator, "_newton_proposals",
                                  unusable_for_victim), np.errstate(invalid="ignore"):
            forced = logistic_estimator._irls_stack(X, y, lams, target)
            coefs, ok = irls_fit_grid(X, y, lams, target)

        assert set(forced.failures) == set(base.failures) | {victim}
        error = forced.failures[victim]
        assert isinstance(error, ConvergenceError)
        expected = "step-halving could not" if mode == "step-halving" else "IRLS did not converge"
        assert str(error).startswith(expected)
        assert not ok[victim]
        np.testing.assert_array_equal(coefs[:, victim], target)
        p = X.shape[1]
        for c in set(range(len(lams))) - set(forced.failures):
            bound = stopping_distance(p, lams[c], forced.coef[c], base.coef[c], target)
            assert np.linalg.norm(forced.coef[c] - base.coef[c]) <= bound
            assert ok[c]


class TestIrlsFitGridInputs:
    @pytest.mark.parametrize("change", ["zero penalty", "nan penalty", "half response",
                                        "nan design", "nan target", "short target",
                                        "target matrix"])
    def test_bad_inputs_rejected(self, change):
        """The fold's inputs are checked once, for every candidate."""
        X, y = np.eye(3), np.array([0.0, 1.0, 1.0])
        lams, target = np.array([0.5, 2.0]), np.zeros(3)
        if change == "zero penalty":
            lams[0] = 0.0
        elif change == "nan penalty":
            lams[1] = np.nan
        elif change == "half response":
            y[0] = 0.5
        elif change == "nan design":
            X[1, 1] = np.nan
        elif change == "nan target":
            target[2] = np.nan
        elif change == "short target":
            target = target[:2]
        else:
            target = np.zeros((3, 1))
        with pytest.raises(ValidationError):
            irls_fit_grid(X, y, lams, target)


class TestNewtonStep:
    def test_blocked_normal_build_changes_no_fit(self, monkeypatch):
        """Forming X'W three candidates at a time, as a large grid or batch
        does, gives the same bits as forming it for all at once."""
        rng = np.random.default_rng(75)
        X, y = make_data(rng, 40, 3, np.array([1.0, -1.0, 0.5]))
        lams, target = np.geomspace(0.01, 100.0, 7), rng.standard_normal(3)
        whole = irls_fit_grid(X, y, lams, target)
        monkeypatch.setattr(logistic_estimator, "_BLOCK_ELEMENTS", 3 * X.size)
        blocked = irls_fit_grid(X, y, lams, target)
        for a, b in zip(whole, blocked):
            np.testing.assert_array_equal(a, b)

    def test_an_unusable_matrix_fails_only_its_own_candidate(self):
        """A stacked Cholesky raises for the whole stack; the solver narrows
        the failure to the indefinite and the non-finite matrix and solves
        the others."""
        good = np.array([[2.0, 0.5], [0.5, 1.0]])
        normal = np.stack([good, np.array([[1.0, 2.0], [2.0, 1.0]]),
                           np.array([[np.nan, 0.0], [0.0, 1.0]]), 3.0 * good])
        rhs = np.array([[1.0, 2.0], [1.0, 1.0], [1.0, 1.0], [-1.0, 0.5]])
        failures = {}
        proposal, solved = logistic_estimator._newton_proposals(
            normal, rhs, np.array([7, 8, 9, 10]), failures)
        assert solved.tolist() == [True, False, False, True]
        assert sorted(failures) == [8, 9]
        assert all(isinstance(e, SingularMatrixError) for e in failures.values())
        assert "not positive definite" in str(failures[8])
        assert "non-finite" in str(failures[9])
        for k in (0, 3):
            np.testing.assert_allclose(proposal[k], np.linalg.solve(normal[k], rhs[k]),
                                       rtol=1e-14)
