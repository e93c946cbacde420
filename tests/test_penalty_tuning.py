"""Tests for penalty selection by cross-validation with the historic-fit
feasibility constraint.

Fold construction, the CV score, and both sides of the constraint are
checked against hand-rolled enumerations; the selector's tie-breaking,
fallback, and determinism rules are exercised on constructed instances.
The selection's fold loop is checked, as a property over generated
linear and logistic selections, against a curve scored one candidate at
a time with ``cv_score`` and ``constraint_terms``, whose logistic fits
come from the scalar reference IRLS in ``irls_reference.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ridge_relay import (
    Batch,
    Candidate,
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    FoldPlan,
    PenaltySearchConfig,
    SelectionError,
    ValidationError,
    constraint_terms,
    cv_score,
    default_grid,
    fit_targeted_ridge,
    make_folds,
    select_penalty,
    update,
    update_logistic,
)
from ridge_relay import logistic_estimator, penalty_tuning
from ridge_relay.errors import ConvergenceError

from irls_reference import reference_irls_fit


def linear_state(names=("a", "b"), family="linear", init=None):
    """A state with no history; its initial target is ``init`` (a mapping
    by name), else 0, for each name."""
    init = init or {}
    return EstimatorState(family=family,
                          registry=CovariateRegistry(tuple(names)),
                          init_target=CoefficientVector({n: init.get(n, 0.0) for n in names}))


def binary_response(rng, eta):
    return (rng.random(eta.shape[0]) < 1.0 / (1.0 + np.exp(-eta))).astype(float)


def linear_batches(rng, coef, n_batches=2, n=15, noise_sd=0.1):
    """Informative linear batches over ``x0 .. x{p-1}``."""
    p = coef.shape[0]
    names = tuple(f"x{j}" for j in range(p))
    batches = []
    for t in range(1, n_batches + 1):
        X = rng.standard_normal((n, p))
        y = X @ coef + noise_sd * rng.standard_normal(n)
        batches.append(Batch(t=t, X=X, y=y, covariates=names))
    return batches


def state_with_history(rng, coef, n_batches=2, n=15, noise_sd=0.1, lam=1.0):
    """A chain of informative linear batches ending at a useful estimate."""
    batches = linear_batches(rng, coef, n_batches, n, noise_sd)
    names = batches[0].covariates
    state = linear_state(names)
    for batch in batches:
        state = update(state, batch, lam)
    return state, names


def stacked_constraint_terms(batches, state, batch, lam, target, folds):
    """Both sides of the constraint from the raw batches ``state`` folded in,
    stacked over the registry: the route the triangular history replaced,
    kept as its oracle."""
    registry = state.registry.extended(batch.covariates)
    names = registry.names
    hist_X = np.vstack([penalty_tuning.align_batch(b, registry) for b in batches])
    hist_y = np.concatenate([b.y for b in batches])
    fam = penalty_tuning.get_family(state.family)
    prev = penalty_tuning.assemble_target(state, names).as_array(names)
    rhs = float(fam.loss(hist_X, hist_y, prev[:, None])[0])
    X_new = penalty_tuning.align_batch(batch, registry)
    total = 0.0
    for fold in range(1, folds.k + 1):
        train, _ = folds.split(fold)
        coef = fam.fit(X_new[train], batch.y[train], lam, target.as_array(names))
        total += float(fam.loss(hist_X, hist_y, coef[:, None])[0])
    f_new = batch.n / (batch.n + hist_y.shape[0])
    return (1.0 - f_new) * total / folds.k, rhs, f_new


class TestMakeFolds:
    def test_even_split(self):
        plan = make_folds(6, 3, seed=0)
        sizes = np.bincount(plan.assignments)[1:]
        np.testing.assert_array_equal(sizes, [2, 2, 2])

    def test_remainder_spread_across_folds(self):
        plan = make_folds(7, 3, seed=1)
        sizes = sorted(np.bincount(plan.assignments)[1:], reverse=True)
        assert sizes == [3, 2, 2]

    def test_each_sample_lands_in_exactly_one_test_fold(self):
        plan = make_folds(11, 4, seed=2)
        seen = np.zeros(11, dtype=int)
        for fold in range(1, 5):
            _, test = plan.split(fold)
            seen += test.astype(int)
        np.testing.assert_array_equal(seen, np.ones(11, dtype=int))

    def test_binary_strata_balanced_across_folds(self):
        strata = np.array([0] * 5 + [1] * 5)
        plan = make_folds(10, 5, seed=3, strata=strata)
        for fold in range(1, 6):
            _, test = plan.split(fold)
            assert strata[test].sum() == 1 and test.sum() == 2

    def test_seed_determinism(self):
        a = make_folds(20, 4, seed=9)
        b = make_folds(20, 4, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        c = make_folds(20, 4, seed=10)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_fold_count_bounds(self):
        with pytest.raises(ValidationError):
            make_folds(3, 4, seed=0)
        with pytest.raises(ValidationError):
            make_folds(5, 1, seed=0)

    def test_fold_plan_rejects_missing_labels(self):
        with pytest.raises(ValidationError):
            FoldPlan(assignments=np.array([1, 1, 3, 3]), k=3)

    @pytest.mark.parametrize("n", [3, 9, 40])
    def test_a_nan_stratum_is_refused(self, n):
        """NaN equals no label, so its rows fall in no stratum and would be
        dealt to no fold. A freed array of valid labels, left where the
        plan's assignments are allocated, must not pass for their folds."""
        strata = ([np.nan, 1.0, 1.0] * n)[:n]
        np.full(n, 2)  # freed at once: leftovers that look like fold labels
        with pytest.raises(ValidationError, match="fall in no stratum"):
            make_folds(n, 2, 0, strata=strata)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_deal_matches_the_reference_loop(self, data):
        """Random n, k, seed and strata, among them none, one label, binary
        0/1 floats as a logistic response gives, and several integer
        labels in any order."""
        n = data.draw(st.integers(2, 60))
        k = data.draw(st.integers(2, n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        labels = data.draw(st.sampled_from([None, [0.0], [0.0, 1.0], [3, -1, 7, 2]]))
        strata = None if labels is None else data.draw(
            st.lists(st.sampled_from(labels), min_size=n, max_size=n))
        plan = make_folds(n, k, seed, strata)
        np.testing.assert_array_equal(plan.assignments, reference_folds(n, k, seed, strata))


def reference_folds(n, k, seed, strata=None):
    """The loop ``make_folds`` dealt with before it was vectorized, kept as
    its oracle: each stratum (all rows when ``strata`` is None), in
    ascending label order, is shuffled and dealt round-robin, the count
    running on across strata."""
    rng = np.random.default_rng(seed)
    assignments = np.empty(n, dtype=int)
    counter = 0
    if strata is None:
        order = rng.permutation(n)
        for i, row in enumerate(order):
            assignments[row] = i % k + 1
    else:
        strata = np.asarray(strata)
        for label in sorted(set(strata.tolist())):
            rows = np.flatnonzero(strata == label)
            for row in rows[rng.permutation(rows.size)]:
                assignments[row] = counter % k + 1
                counter += 1
    return assignments


class TestCvScore:
    def test_noiseless_data_with_tiny_penalty_scores_near_zero(self):
        rng = np.random.default_rng(81)
        X = rng.standard_normal((30, 2))
        coef = np.array([1.0, -2.0])
        batch = Batch(t=1, X=X, y=X @ coef, covariates=("a", "b"))
        folds = make_folds(30, 5, seed=0)
        score = cv_score("linear", batch, 1e-8, np.zeros(2), folds)
        assert score < 1e-10

    def test_total_shrinkage_scores_the_zero_predictor(self):
        rng = np.random.default_rng(82)
        X = rng.standard_normal((20, 2))
        y = rng.standard_normal(20) + 3.0
        batch = Batch(t=1, X=X, y=y, covariates=("a", "b"))
        folds = make_folds(20, 4, seed=0)
        score = cv_score("linear", batch, 1e12, np.zeros(2), folds)
        expected = np.mean([y[folds.split(f)[1]] @ y[folds.split(f)[1]]
                            for f in range(1, 5)])
        np.testing.assert_allclose(score, expected, rtol=1e-6)

    def test_matches_hand_rolled_two_fold_computation(self):
        """Four samples, one covariate, two folds: the score is reproduced
        by explicitly fitting each half and averaging held-out errors."""
        x = np.array([1.0, -2.0, 0.5, 3.0])
        y = np.array([2.0, -1.0, 0.5, 4.0])
        batch = Batch(t=1, X=x[:, None], y=y, covariates=("a",))
        folds = make_folds(4, 2, seed=5)
        lam, target = 1.0, np.array([0.25])
        total = 0.0
        for fold in (1, 2):
            train, test = folds.split(fold)
            num = x[train] @ y[train] + lam * target[0]
            den = x[train] @ x[train] + lam
            beta = num / den
            resid = y[test] - x[test] * beta
            total += resid @ resid
        np.testing.assert_allclose(
            cv_score("linear", batch, lam, target, folds), total / 2.0, rtol=1e-12)

    def test_logistic_score_is_mean_heldout_negative_loglik(self):
        rng = np.random.default_rng(83)
        X = rng.standard_normal((16, 2))
        y = (rng.random(16) < 0.5).astype(float)
        batch = Batch(t=1, X=X, y=y, covariates=("a", "b"), family="logistic")
        folds = make_folds(16, 4, seed=0, strata=y)
        score = cv_score("logistic", batch, 2.0, np.zeros(2), folds)
        assert np.isfinite(score) and score > 0

    def test_failed_fold_fit_disqualifies_the_candidate(self, monkeypatch):
        """A fold fit that raises makes ``cv_score`` infinite; in the
        selection's fold loop it makes its own candidate infinite, in the
        score and in the constraint, and leaves the others usable."""
        def explode(X, y, lam, target):
            raise ConvergenceError("forced failure")

        with monkeypatch.context() as patch:
            patch.setattr(penalty_tuning, "fit_targeted_ridge", explode)
            batch = Batch(t=1, X=np.eye(4), y=np.ones(4),
                          covariates=("a", "b", "c", "d"))
            folds = make_folds(4, 2, seed=0)
            score = cv_score("linear", batch, 1.0, np.zeros(4), folds)
        assert score == np.inf

        irls_fit_grid = penalty_tuning._irls_fit_grid
        failed = []

        def fail_once_at_five(X, y, lams, target):
            coefs, ok = irls_fit_grid(X, y, lams, target)
            if not failed:
                at_five = np.asarray(lams) == 5.0
                failed.extend(np.asarray(lams)[at_five].tolist())
                ok[at_five] = False
            return coefs, ok

        monkeypatch.setattr(penalty_tuning, "_irls_fit_grid", fail_once_at_five)
        rng = np.random.default_rng(80)
        names = ("a", "b")
        X = rng.standard_normal((12, 2))
        state = update_logistic(linear_state(names, "logistic"),
                                Batch(t=1, X=X, y=binary_response(rng, X[:, 0]),
                                      covariates=names, family="logistic"), 1.0)
        X = rng.standard_normal((12, 2))
        batch = Batch(t=2, X=X, y=binary_response(rng, X[:, 0]), covariates=names,
                      family="logistic")
        cfg = PenaltySearchConfig(k_folds=3, constrained=True, grid=(0.5, 5.0))
        usable, unusable = select_penalty(state, batch, cfg).cv_curve
        assert failed == [5.0]
        assert unusable.score == np.inf and unusable.lhs == np.inf
        assert not unusable.feasible
        assert np.isfinite(usable.score) and np.isfinite(usable.lhs)


class TestConstraintTerms:
    def test_equal_batch_sizes_give_reciprocal_fraction(self):
        rng = np.random.default_rng(84)
        coef = np.array([1.0, -1.0])
        for t in (2, 3, 4):
            state, names = state_with_history(rng, coef, n_batches=t - 1, n=25)
            X = rng.standard_normal((25, 2))
            batch = Batch(t=t, X=X, y=X @ coef, covariates=names)
            folds = make_folds(25, 5, seed=0)
            terms = constraint_terms(state, batch, 1.0,
                                     CoefficientVector(dict(zip(names, coef))),
                                     folds)
            np.testing.assert_allclose(terms.new_fraction, 1.0 / t, rtol=1e-15)

    def test_huge_penalty_is_always_feasible(self):
        """At extreme shrinkage every fold estimator collapses onto the
        target, so the left side approaches (1 - f) times the right side."""
        rng = np.random.default_rng(85)
        for trial in range(10):
            p = int(rng.integers(1, 4))
            coef = rng.standard_normal(p)
            state, names = state_with_history(rng, coef,
                                              n_batches=int(rng.integers(1, 4)),
                                              n=int(rng.integers(8, 20)))
            n_new = int(rng.integers(6, 15))
            X = rng.standard_normal((n_new, p))
            y = rng.standard_normal(n_new)
            batch = Batch(t=state.t + 1, X=X, y=y, covariates=names)
            folds = make_folds(n_new, 3, seed=trial)
            target = state.current
            terms = constraint_terms(state, batch, 1e12, target, folds)
            assert terms.feasible
            np.testing.assert_allclose(
                terms.lhs, (1.0 - terms.new_fraction) * terms.rhs, rtol=1e-4)

    def test_matches_direct_enumeration(self):
        """Both sides recomputed from scratch: fold-wise fits on the new
        batch, evaluated on the stacked history."""
        rng = np.random.default_rng(86)
        coef = np.array([0.5, 1.5])
        batches = linear_batches(rng, coef, n_batches=2, n=12)
        names = batches[0].covariates
        state = linear_state(names)
        for b in batches:
            state = update(state, b, 1.0)
        X = rng.standard_normal((10, 2))
        y = X @ coef + 0.2 * rng.standard_normal(10)
        batch = Batch(t=3, X=X, y=y, covariates=names)
        folds = make_folds(10, 5, seed=1)
        lam = 0.8
        target = state.current
        terms = constraint_terms(state, batch, lam, target, folds)

        hist_X = np.vstack([b.X for b in batches])
        hist_y = np.concatenate([b.y for b in batches])
        prev = state.current.as_array(names)
        rhs = float((hist_y - hist_X @ prev) @ (hist_y - hist_X @ prev))
        target_arr = target.as_array(names)
        lhs_sum = 0.0
        for fold in range(1, 6):
            train, _ = folds.split(fold)
            beta = fit_targeted_ridge(X[train], y[train], lam, target_arr)
            resid = hist_y - hist_X @ beta
            lhs_sum += resid @ resid
        f = 10.0 / (10.0 + hist_y.shape[0])
        np.testing.assert_allclose(terms.rhs, rhs, rtol=1e-10)
        np.testing.assert_allclose(terms.lhs, (1 - f) * lhs_sum / 5.0, rtol=1e-10)

    def test_empty_history_is_vacuous(self):
        state = linear_state(("a",))
        batch = Batch(t=1, X=np.ones((4, 1)), y=np.ones(4), covariates=("a",))
        with pytest.raises(ValidationError):
            constraint_terms(state, batch, 1.0, CoefficientVector({"a": 0.0}),
                             make_folds(4, 2, seed=0))


class TestSelectPenalty:
    def test_single_candidate_grid_is_chosen_and_reported(self):
        rng = np.random.default_rng(87)
        state, names = state_with_history(rng, np.array([1.0, -1.0]))
        X = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        batch = Batch(t=3, X=X, y=y, covariates=names)
        cfg = PenaltySearchConfig(k_folds=3, constrained=True, grid=(0.5,))
        report = select_penalty(state, batch, cfg)
        assert report.chosen_lambda == 0.5
        assert len(report.cv_curve) == 1
        assert report.cv_curve[0].lhs is not None
        assert report.new_fraction is not None

    def test_exact_target_ties_break_toward_larger_penalty(self):
        """Noiseless data consistent with the target make every penalty
        score identically, so the largest grid value must win."""
        rng = np.random.default_rng(88)
        coef = np.array([2.0, -1.0])
        state, names = state_with_history(rng, coef, noise_sd=0.0, n_batches=1)
        target = state.current.as_array(names)
        X = rng.standard_normal((12, 2))
        batch = Batch(t=2, X=X, y=X @ target, covariates=names)
        grid = tuple(np.geomspace(1e-3, 1e3, 9))
        for constrained in (False, True):
            cfg = PenaltySearchConfig(k_folds=4, constrained=constrained, grid=grid)
            report = select_penalty(state, batch, cfg)
            assert report.chosen_lambda == grid[-1]
            assert not report.fallback_used

    def test_truth_matching_target_prefers_heavy_shrinkage(self):
        """With the target at the generating coefficients, the realized CV
        curve decreases in the penalty and both modes pick the grid top."""
        rng = np.random.default_rng(89)
        coef = np.array([1.0, 0.5])
        state, names = state_with_history(rng, coef, noise_sd=0.0, n_batches=1)
        X = rng.standard_normal((20, 2))
        y = X @ state.current.as_array(names) + 0.05 * rng.standard_normal(20)
        batch = Batch(t=2, X=X, y=y, covariates=names)
        grid = tuple(np.geomspace(1e-2, 1e4, 13))
        scores = {}
        for constrained in (False, True):
            cfg = PenaltySearchConfig(k_folds=5, constrained=constrained, grid=grid)
            report = select_penalty(state, batch, cfg)
            assert report.chosen_lambda == grid[-1]
            scores[constrained] = [c.score for c in report.cv_curve]
        curve = np.array(scores[False])
        assert np.all(np.diff(curve) <= 1e-12)

    def test_leave_one_out_of_one_row_is_rejected(self):
        for family in ("linear", "logistic"):
            batch = Batch(t=1, X=np.ones((1, 2)), y=np.ones(1), covariates=("a", "b"),
                          family=family)
            with pytest.raises(ValidationError, match=r"2 <= k <= n, got k=1, n=1"):
                select_penalty(linear_state(family=family), batch,
                               PenaltySearchConfig(k_folds=None))

    def test_loocv_equals_explicit_leave_one_out(self):
        rng = np.random.default_rng(90)
        n = 9
        x = rng.standard_normal(n)
        y = 1.5 * x + 0.3 * rng.standard_normal(n)
        batch = Batch(t=1, X=x[:, None], y=y, covariates=("a",))
        state = linear_state(("a",))
        grid = (0.1, 1.0, 10.0)
        cfg = PenaltySearchConfig(k_folds=None, constrained=False, grid=grid)
        report = select_penalty(state, batch, cfg)
        for cand in report.cv_curve:
            total = 0.0
            for i in range(n):
                keep = np.arange(n) != i
                num = x[keep] @ y[keep]
                den = x[keep] @ x[keep] + cand.lam
                beta = num / den
                total += (y[i] - x[i] * beta) ** 2
            np.testing.assert_allclose(cand.score, total / n, atol=1e-10)

    def test_identical_inputs_and_seed_reproduce_the_report(self):
        rng = np.random.default_rng(91)
        state, names = state_with_history(rng, np.array([1.0, -1.0]))
        X = rng.standard_normal((14, 2))
        y = rng.standard_normal(14)
        batch = Batch(t=3, X=X, y=y, covariates=names)
        cfg = PenaltySearchConfig(k_folds=4, constrained=True,
                                  grid=tuple(np.geomspace(0.01, 100, 7)), seed=13)
        first = select_penalty(state, batch, cfg)
        second = select_penalty(state, batch, cfg)
        assert first.to_dict() == second.to_dict()

    def test_constrained_choice_is_feasible_unless_fallback(self):
        rng = np.random.default_rng(92)
        for trial in range(15):
            p = int(rng.integers(1, 4))
            coef = rng.standard_normal(p)
            state, names = state_with_history(
                rng, coef, n_batches=int(rng.integers(1, 3)), n=12)
            n_new = int(rng.integers(8, 14))
            X = rng.standard_normal((n_new, p))
            y = rng.standard_normal(n_new)
            batch = Batch(t=state.t + 1, X=X, y=y, covariates=names)
            cfg = PenaltySearchConfig(k_folds=4, constrained=True,
                                      grid=tuple(np.geomspace(1e-4, 1e6, 11)),
                                      seed=trial)
            report = select_penalty(state, batch, cfg)
            chosen = [c for c in report.cv_curve
                      if c.lam == report.chosen_lambda][0]
            assert report.fallback_used or chosen.feasible

    def test_fallback_fires_when_no_grid_point_is_feasible(self):
        """A grid holding only one tiny penalty can be entirely infeasible;
        the selector then returns the largest grid value and says so."""
        rng = np.random.default_rng(93)
        coef = np.array([1.0, -2.0])
        state, names = state_with_history(rng, coef, n_batches=2, n=20,
                                          noise_sd=0.05)
        X = rng.standard_normal((10, 2))
        y = 25.0 * rng.standard_normal(10)
        batch = Batch(t=3, X=X, y=y, covariates=names)
        cfg = PenaltySearchConfig(k_folds=5, constrained=True, grid=(1e-6,))
        report = select_penalty(state, batch, cfg)
        assert report.fallback_used
        assert report.chosen_lambda == 1e-6
        assert not report.cv_curve[0].feasible

    def test_unconstrained_mode_never_reports_fallback(self):
        rng = np.random.default_rng(94)
        state, names = state_with_history(rng, np.array([0.5, 0.5]))
        X = rng.standard_normal((10, 2))
        batch = Batch(t=3, X=X, y=50.0 * rng.standard_normal(10), covariates=names)
        cfg = PenaltySearchConfig(k_folds=5, constrained=False, grid=(1e-6,))
        report = select_penalty(state, batch, cfg)
        assert not report.fallback_used

    def test_noise_only_batch_pushes_constrained_choice_up(self):
        """When the new responses carry no signal but the history does, the
        constrained pick is at least the unconstrained one nearly always."""
        rng = np.random.default_rng(95)
        coef = np.array([1.5, -1.0, 0.5])
        grid = tuple(np.geomspace(1e-4, 1e6, 16))
        wins = 0
        reps = 100
        for _ in range(reps):
            state, names = state_with_history(rng, coef, n_batches=2, n=15,
                                              noise_sd=0.1)
            X = rng.standard_normal((12, 3))
            y = rng.standard_normal(12)
            batch = Batch(t=3, X=X, y=y, covariates=names)
            chosen = {}
            for constrained in (False, True):
                cfg = PenaltySearchConfig(k_folds=4, constrained=constrained,
                                          grid=grid, seed=7)
                chosen[constrained] = select_penalty(state, batch, cfg).chosen_lambda
            wins += chosen[True] >= chosen[False]
        assert wins >= 90

    def test_all_candidates_disqualified_raises(self, monkeypatch):
        """The fold loop solves each linear fold with ``_fit_targeted_ridge_grid``;
        when it marks every candidate unusable, selection must refuse."""
        def all_unusable(X, y, lams, target):
            return np.repeat(target[:, None], len(lams), axis=1), np.zeros(len(lams), bool)

        monkeypatch.setattr(penalty_tuning, "_fit_targeted_ridge_grid", all_unusable)
        rng = np.random.default_rng(98)
        state, names = state_with_history(rng, np.array([1.0, -1.0]))
        X = rng.standard_normal((10, 2))
        batch = Batch(t=3, X=X, y=rng.standard_normal(10), covariates=names)
        for constrained in (False, True):
            cfg = PenaltySearchConfig(k_folds=5, constrained=constrained, grid=(0.5, 5.0))
            with pytest.raises(SelectionError):
                select_penalty(state, batch, cfg)

    @pytest.mark.parametrize("design", ["duplicated-column", "more-columns-than-rows"])
    def test_all_loo_candidates_disqualified_raises(self, design):
        """Under leave-one-out every penalty here leaves some fold's
        X'X + lam I singular: the closed form declines, the fold loop marks
        every candidate unusable, and selection must refuse."""
        rng = np.random.default_rng(98)
        p = 3 if design == "duplicated-column" else 6
        state, names = state_with_history(rng, rng.standard_normal(p), n_batches=1, n=12)
        n = 10 if design == "duplicated-column" else 4
        X = rng.standard_normal((n, p))
        if design == "duplicated-column":
            X[:, 2] = X[:, 0]
        batch = Batch(t=2, X=X, y=rng.standard_normal(n), covariates=names)
        for constrained in (False, True):
            cfg = PenaltySearchConfig(k_folds=None, constrained=constrained,
                                      grid=(1e-300, 2e-300))
            with pytest.raises(SelectionError):
                select_penalty(state, batch, cfg)

    def test_all_logistic_candidates_disqualified_raises(self, monkeypatch):
        """The fold loop fits every logistic candidate of a fold with one
        ``_irls_fit_grid``; when it marks them all unusable, selection must
        refuse."""
        def all_unusable(X, y, lams, target):
            return np.repeat(target[:, None], len(lams), axis=1), np.zeros(len(lams), bool)

        monkeypatch.setattr(penalty_tuning, "_irls_fit_grid", all_unusable)
        rng = np.random.default_rng(98)
        names = ("a", "b")
        state = linear_state(names, "logistic")
        X = rng.standard_normal((10, 2))
        y = np.array([0.0, 1.0] * 5)
        batch = Batch(t=1, X=X, y=y, covariates=names, family="logistic")
        cfg = PenaltySearchConfig(k_folds=5, constrained=False, grid=(0.5, 5.0))
        with pytest.raises(SelectionError):
            select_penalty(state, batch, cfg)

    @pytest.mark.parametrize("design", ["duplicated-column", "more-columns-than-rows"])
    def test_singular_candidates_score_infinite(self, design):
        """A penalty too small to lift X'X + lam I off singularity in some
        fold disqualifies that candidate, in the score and in the
        constraint, with no NaN anywhere in the curve; the usable penalty
        is chosen."""
        rng = np.random.default_rng(99)
        p = 3 if design == "duplicated-column" else 6
        state, names = state_with_history(rng, rng.standard_normal(p), n_batches=1, n=12)
        n = 10 if design == "duplicated-column" else 4
        X = rng.standard_normal((n, p))
        if design == "duplicated-column":
            X[:, 2] = X[:, 0]
        batch = Batch(t=2, X=X, y=rng.standard_normal(n), covariates=names)
        for constrained in (False, True):
            cfg = PenaltySearchConfig(k_folds=2, constrained=constrained, grid=(1e-300, 1.0))
            report = select_penalty(state, batch, cfg)
            tiny, usable = report.cv_curve
            assert tiny.score == np.inf
            assert np.isfinite(usable.score)
            if constrained:
                assert tiny.lhs == np.inf and not tiny.feasible
                assert np.isfinite(usable.lhs)
            assert report.chosen_lambda == 1.0
            values = [v for c in report.cv_curve for v in (c.score, c.lhs, c.rhs)
                      if v is not None]
            assert not np.isnan(values).any()

    def test_fold_count_cannot_exceed_batch_size(self):
        state = linear_state(("a",))
        batch = Batch(t=1, X=np.ones((3, 1)), y=np.ones(3), covariates=("a",))
        cfg = PenaltySearchConfig(k_folds=5, grid=(1.0,))
        with pytest.raises(ValidationError):
            select_penalty(state, batch, cfg)

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 50
        np.testing.assert_allclose(grid[0], 1e-4)
        np.testing.assert_allclose(grid[-1], 1e6)
        assert all(a < b for a, b in zip(grid, grid[1:]))


def candidate_loop_choice(grid, score, feasible, constrain):
    """The choice as the selector made it with one ``Candidate`` per grid
    point and a loop over them: the chosen index and whether it is the
    fallback, or ``None`` where no penalty is usable."""
    curve = [Candidate(lam=lam, score=s, feasible=f)
             for lam, s, f in zip(grid, score, feasible)]

    def pick(cands):
        best = None
        for c in cands:
            if not np.isfinite(c.score):
                continue
            if best is None or c.score < best.score or (c.score == best.score
                                                        and c.lam > best.lam):
                best = c
        return best

    chosen = pick([c for c in curve if c.feasible])
    fallback_used = False
    if chosen is None and constrain:
        chosen = pick(curve[-1:])
        fallback_used = chosen is not None
    if chosen is None:
        return None
    return next(i for i, c in enumerate(curve) if c is chosen), fallback_used


# mostly a few values, so that curves hold exact ties, infinities and NaN
CURVE_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]),
                         st.floats())


@st.composite
def random_curves(draw):
    """Scores and a feasibility mask over a grid of 1 to 8 penalties (the
    mask all False in about half the draws), and a constraint mode."""
    size = draw(st.integers(1, 8))
    score = draw(st.lists(CURVE_SCORES, min_size=size, max_size=size))
    feasible = draw(st.one_of(st.just([False] * size),
                              st.lists(st.booleans(), min_size=size, max_size=size)))
    return score, feasible, draw(st.booleans())


class TestChoiceProperties:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(random_curves())
    def test_masked_argmin_matches_the_candidate_loop(self, curve):
        """``select_penalty`` on a given curve chooses the index, sets the
        fallback flag and refuses exactly as the loop over candidates did."""
        score, feasible, constrained = curve
        state, names = state_with_history(np.random.default_rng(100), np.array([1.0, -1.0]),
                                          n_batches=1, n=4)
        batch = Batch(t=2, X=np.eye(4, 2), y=np.ones(4), covariates=names)
        grid = tuple(float(v) for v in range(1, len(score) + 1))
        want = candidate_loop_choice(grid, score, feasible, constrained)
        cfg = PenaltySearchConfig(k_folds=2, constrained=constrained, grid=grid)
        arrays = (np.array(score), np.array(feasible), None, None)
        with mock.patch.object(penalty_tuning, "_selection_curve", lambda *args: arrays):
            if want is None:
                with pytest.raises(SelectionError, match="every grid candidate scored infinite"):
                    select_penalty(state, batch, cfg)
                return
            report = select_penalty(state, batch, cfg)
        index, fallback_used = want
        assert (report.chosen_lambda, report.fallback_used) == (grid[index], fallback_used)
        assert report.score == score[index]


@st.composite
def selections(draw, family):
    """A state, an arriving batch and a search configuration.

    Covers K-fold and leave-one-out, batches with more covariates than
    rows, batches that add covariates or lack some registry covariates,
    first updates and constrained ones, zero and random initial targets
    (the target of a first update, and of every covariate no update has
    estimated), and grids that always hold both ends of the default grid.
    Logistic responses are 0/1 draws around the same linear predictor,
    and logistic histories are folded in with the same penalties.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    registry_size = draw(st.integers(1, 5))
    n_hist = draw(st.sampled_from([2, 1, 3, 0]))
    n = draw(st.integers(3, 10))
    k_folds = draw(st.one_of(st.none(), st.integers(2, min(5, n))))
    carried = draw(st.lists(st.booleans(), min_size=registry_size, max_size=registry_size))
    n_added = draw(st.integers(0 if any(carried) else 1, 3))
    init_scale = draw(st.sampled_from([0.0, 1.0]))
    constrained = draw(st.sampled_from([True, False]))
    full = default_grid()
    interior = draw(st.lists(st.sampled_from(full[1:-1]), max_size=3, unique=True))
    grid = tuple(sorted({full[0], full[-1], *interior}))

    rng = np.random.default_rng(seed)
    linear = family == "linear"
    step = update if linear else update_logistic

    def response(X, beta):
        eta = X @ beta
        return eta + 0.5 * rng.standard_normal(eta.shape[0]) if linear \
            else binary_response(rng, eta)

    names = tuple(f"x{j}" for j in range(registry_size))
    coef = rng.standard_normal(registry_size + n_added)
    state = linear_state(names, family,
                         dict(zip(names, init_scale * rng.standard_normal(registry_size))))
    for t in range(1, n_hist + 1):
        rows = int(rng.integers(2, 12))
        X = rng.standard_normal((rows, registry_size))
        state = step(state, Batch(t=t, X=X, y=response(X, coef[:registry_size]),
                                  covariates=names, family=family),
                     float(rng.choice([0.1, 1.0, 10.0])))
    batch_names = [name for name, keep in zip(names, carried) if keep]
    batch_names += [f"new{j}" for j in range(n_added)]
    order = rng.permutation(len(batch_names))
    batch_names = tuple(batch_names[i] for i in order)
    all_names = names + tuple(f"new{j}" for j in range(n_added))
    beta = np.array([coef[all_names.index(c)] for c in batch_names])
    X = rng.standard_normal((n, len(batch_names)))
    batch = Batch(t=state.t + 1, X=X, y=response(X, beta), covariates=batch_names,
                  family=family)

    cfg = PenaltySearchConfig(k_folds=k_folds, constrained=constrained, grid=grid,
                              seed=int(rng.integers(1000)))
    return state, batch, cfg


def per_candidate_curve(state, batch, registry, grid, target, k, seed, new_fraction):
    """The selection curve scored one candidate at a time: ``cv_score`` fits
    the batch's own columns, ``constraint_terms`` the registry's, over the
    ``k`` folds dealt with ``seed``; ``target`` is laid out over the
    registry. Logistic fits come from the scalar reference IRLS, not the
    package's batched solver, so the comparison is between two independent
    solvers. Returns the ``(score, feasible, lhs, rhs)`` arrays of
    ``_selection_curve``."""
    folds = make_folds(batch.n, k, seed, batch.y if state.family == "logistic" else None)
    target = CoefficientVector.from_array(registry.names, target)
    scores, terms = [], []
    with mock.patch.object(penalty_tuning, "irls_fit", reference_irls_fit):
        for lam in grid.tolist():
            scores.append(cv_score(state.family, batch, lam,
                                   target.as_array(batch.covariates), folds))
            if new_fraction is not None:
                terms.append(constraint_terms(state, batch, lam, target, folds))
    if new_fraction is None:
        return np.array(scores), np.ones(len(scores), dtype=bool), None, None
    return (np.array(scores), np.array([t.feasible for t in terms]),
            np.array([t.lhs for t in terms]), np.array([t.rhs for t in terms]))


def oracle_report(state, batch, cfg):
    with mock.patch.object(penalty_tuning, "_selection_curve", per_candidate_curve):
        return select_penalty(state, batch, cfg)


def irls_score_tolerance(batch, registry, cand, folds, target):
    """How far two IRLS scores of one candidate may lie apart.

    Both IRLS solvers stop once the largest gradient entry is at most
    ``g = tol + 8 eps lam S``, with S the larger of 1 and the largest
    coefficient or target entry. The penalized log-likelihood is
    lam-strongly concave, so such a fit lies within ``sqrt(p) g / lam`` of
    the maximizer, and two fits of one fold within twice that of each
    other. At the maximizer ``lam (b - t) = X'(y - mu)``, so no entry of b
    exceeds ``|t|_inf + max_j sum_i |X_ij| / lam``. The held-out minus
    log-likelihood has gradient ``X'(mu - y)`` with ``|mu - y| <= 1``, so it
    moves by at most ``||X||_2 sqrt(n)`` per unit of coefficient distance.
    The score averages the folds' held-out criteria, and so its bound.
    """
    eps = np.finfo(float).eps
    X = penalty_tuning.align_batch(batch, registry)
    p, lam = X.shape[1], cand.lam
    total = 0.0
    for fold in range(1, folds.k + 1):
        train, test = folds.split(fold)
        size = np.abs(target).max(initial=0.0) + np.abs(X[train]).sum(axis=0).max() / lam
        g = logistic_estimator.IRLS_TOL + 8.0 * eps * lam * max(1.0, size)
        distance = 2.0 * np.sqrt(p) * g / lam
        total += np.linalg.norm(X[test], 2) * np.sqrt(test.sum()) * distance
    return total / folds.k


def assert_curves_agree(report, oracle, score_tolerance):
    assert len(report.cv_curve) == len(oracle.cv_curve)
    for got, want in zip(report.cv_curve, oracle.cv_curve):
        assert got.lam == want.lam
        assert np.isfinite(got.score) == np.isfinite(want.score)
        if np.isfinite(want.score):
            np.testing.assert_allclose(got.score, want.score, rtol=1e-10,
                                       atol=score_tolerance(got))
        assert got.feasible == want.feasible
        for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs)):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_allclose(a, b, rtol=1e-10)
    assert report.new_fraction == oracle.new_fraction


class TestLinearGridRouteProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(selections("linear"))
    def test_grid_route_matches_per_candidate_route(self, case):
        state, batch, cfg = case
        report = select_penalty(state, batch, cfg)
        oracle = oracle_report(state, batch, cfg)
        assert_curves_agree(report, oracle, lambda cand: 0.0)
        assert report.chosen_lambda == oracle.chosen_lambda
        assert report.fallback_used == oracle.fallback_used


@st.composite
def loo_selections(draw):
    """Leave-one-out linear selections from ``selections``, with the
    arriving batch optionally given a row of leverage near 1 or scaled by
    1e6.

    The high-leverage row is the batch's first, design and response
    multiplied by 1e3. The scaling multiplies design and response alike,
    so the held-out problem is the unscaled one at penalties 1e-12 times
    as large and no route meets a cancellation the other escapes; the grid
    is then either kept, so that its small end is singular, or scaled by
    1e12 with the data.
    """
    state, batch, cfg = draw(selections("linear"))
    X, y = batch.X.copy(), batch.y.copy()
    grid = cfg.grid
    if draw(st.booleans()):
        X[0] *= 1e3
        y[0] *= 1e3
    if draw(st.booleans()):
        X *= 1e6
        y *= 1e6
        if draw(st.booleans()):
            grid = tuple(lam * 1e12 for lam in grid)
    batch = Batch(t=batch.t, X=X, y=y, covariates=batch.covariates)
    loo = PenaltySearchConfig(k_folds=None, constrained=cfg.constrained, grid=grid,
                              seed=cfg.seed)
    return state, batch, loo


def fold_loop_report(state, batch, cfg):
    """The selection with the closed form switched off: one
    ``_fit_targeted_ridge_grid`` per held-out row."""
    with mock.patch.object(penalty_tuning, "_loo_ridge_grid", lambda *args: None):
        return select_penalty(state, batch, cfg)


class TestLooClosedFormProperties:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(loo_selections())
    def test_closed_form_matches_the_fold_loop(self, case):
        """Scores, constraint sides, feasibility, infinite flags and the
        choice agree with the fold loop, whether the closed form certifies
        the grid or the selection falls back to the loop."""
        state, batch, cfg = case
        report = select_penalty(state, batch, cfg)
        oracle = fold_loop_report(state, batch, cfg)
        assert_curves_agree(report, oracle, lambda cand: 0.0)
        assert report.chosen_lambda == oracle.chosen_lambda
        assert report.fallback_used == oracle.fallback_used

    @pytest.mark.parametrize("case", ["ordinary", "high-leverage row", "unscaled design",
                                      "singular penalty"])
    def test_fold_loop_runs_only_where_the_closed_form_declines(self, case, monkeypatch):
        """An ordinary batch takes no fold solve. A row of leverage near 1;
        a square design whose scale leaves the grid's smallest penalty
        singular in every fold, though not on the whole batch; and a penalty
        singular outright each send the selection to one solve per held-out
        row. Only those deal the folds."""
        calls, deals = [], []
        solve = penalty_tuning._fit_targeted_ridge_grid
        deal = penalty_tuning.make_folds

        def counted(*args):
            calls.append(1)
            return solve(*args)

        def counted_deal(*args):
            deals.append(1)
            return deal(*args)

        rng = np.random.default_rng(100)
        state, names = state_with_history(rng, np.array([1.0, -1.0, 0.5]))
        X = rng.standard_normal((12, 3))
        grid = (1e-4, 1.0, 1e4)
        if case == "high-leverage row":
            X[0] *= 1e4
        elif case == "unscaled design":
            X = 1e6 * rng.standard_normal((3, 3))
        elif case == "singular penalty":
            X = rng.standard_normal((2, 3))
            grid = (1e-300, 1.0)
        y = X @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(X.shape[0])
        batch = Batch(t=state.t + 1, X=X, y=y, covariates=names)
        cfg = PenaltySearchConfig(k_folds=None, grid=grid)
        monkeypatch.setattr(penalty_tuning, "_fit_targeted_ridge_grid", counted)
        monkeypatch.setattr(penalty_tuning, "make_folds", counted_deal)
        report = select_penalty(state, batch, cfg)
        assert len(calls) == (0 if case == "ordinary" else batch.n)
        assert len(deals) == (0 if case == "ordinary" else 1)
        if case in ("unscaled design", "singular penalty"):
            assert report.cv_curve[0].score == np.inf and report.cv_curve[0].lhs == np.inf
        monkeypatch.undo()
        oracle = fold_loop_report(state, batch, cfg)
        assert_curves_agree(report, oracle, lambda cand: 0.0)


class TestLogisticFoldLoopProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(selections("logistic"))
    def test_fold_loop_matches_per_candidate_route(self, case):
        """The constraint's fold fits see the registry's columns in both
        routes, and the batched and the reference solver take the same
        Newton steps, so its sides agree to rounding. The score's fits see
        the batch's own columns,
        which differ from the registry's when the batch reorders, lacks or
        adds covariates; the score then agrees within the stopping rule's
        bound, and the choice must match exactly only when the columns are
        the registry's in order."""
        state, batch, cfg = case
        report = select_penalty(state, batch, cfg)
        oracle = oracle_report(state, batch, cfg)
        registry = state.registry.extended(batch.covariates)
        k = batch.n if cfg.k_folds is None else cfg.k_folds
        folds = make_folds(batch.n, k, cfg.seed, strata=batch.y)
        same_columns = batch.covariates == registry.names

        target = penalty_tuning.assemble_target(state, registry.names).as_array(registry.names)

        def tolerance(cand):
            if same_columns:
                return 0.0
            return irls_score_tolerance(batch, registry, cand, folds, target)

        assert_curves_agree(report, oracle, tolerance)
        if same_columns:
            assert report.chosen_lambda == oracle.chosen_lambda
            assert report.fallback_used == oracle.fallback_used


@st.composite
def linear_streams(draw):
    """Raw linear batches, the state ``update`` built from them, and an
    arriving batch.

    Covariates arrive mid-stream, batches lack some registry covariates
    and list theirs in shuffled order, and batches often have at least as
    many covariates as rows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_hist = draw(st.integers(1, 4))
    pool = [f"x{j}" for j in range(7)]
    coef = rng.standard_normal(len(pool))
    known = pool[:int(rng.integers(1, 4))]

    def make_batch(t):
        names = [n for n in known if rng.random() < 0.7] or known[-1:]
        new = pool[len(known):len(known) + int(rng.integers(0, 3))]
        known.extend(new)
        names = names + new
        names = [names[i] for i in rng.permutation(len(names))]
        rows = int(rng.integers(1, 9))
        X = rng.standard_normal((rows, len(names)))
        y = X @ coef[[pool.index(n) for n in names]] + 0.5 * rng.standard_normal(rows)
        return Batch(t=t, X=X, y=y, covariates=tuple(names))

    state = linear_state(tuple(known))
    batches = []
    for t in range(1, n_hist + 1):
        batch = make_batch(t)
        state = update(state, batch, float(rng.choice([0.1, 1.0, 10.0])))
        batches.append(batch)
    arriving = make_batch(n_hist + 1)
    while arriving.n < 2:
        arriving = make_batch(n_hist + 1)
    return batches, state, arriving


class TestTriangularHistoryProperties:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(linear_streams(), st.sampled_from([1e-2, 1.0, 1e2, 1e6]))
    def test_constraint_sides_match_the_stacked_batches(self, stream, lam):
        batches, state, batch = stream
        folds = make_folds(batch.n, 2, seed=0)
        target = penalty_tuning.assemble_target(
            state, state.registry.extended(batch.covariates).names)
        terms = constraint_terms(state, batch, lam, target, folds)
        lhs, rhs, f_new = stacked_constraint_terms(batches, state, batch, lam, target, folds)
        assert terms.new_fraction == f_new
        np.testing.assert_allclose(terms.rhs, rhs, rtol=1e-10)
        np.testing.assert_allclose(terms.lhs, lhs, rtol=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(linear_streams())
    def test_selection_curve_matches_the_stacked_batches(self, stream):
        batches, state, batch = stream
        cfg = PenaltySearchConfig(k_folds=2, grid=(1e-2, 1.0, 1e2, 1e6))
        report = select_penalty(state, batch, cfg)
        folds = make_folds(batch.n, 2, cfg.seed)
        target = penalty_tuning.assemble_target(
            state, state.registry.extended(batch.covariates).names)
        for cand in report.cv_curve:
            lhs, rhs, _ = stacked_constraint_terms(batches, state, batch, cand.lam,
                                                   target, folds)
            np.testing.assert_allclose(cand.rhs, rhs, rtol=1e-10)
            np.testing.assert_allclose(cand.lhs, lhs, rtol=1e-10)


@st.composite
def registry_variants(draw, family):
    """Two states that folded the same batches with the same penalties, an
    arriving batch and a search configuration.

    The first state's registry lists the covariates in their natural
    order. The second lists them, with up to two covariates that no batch
    carries, in a drawn order. Both start from one initial target, zero or
    random by name. Past batches lack some covariates and list
    theirs in shuffled order, and the arriving batch may bring a new one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 4))
    unseen = tuple(f"unseen{j}" for j in range(draw(st.integers(0, 2))))
    n_hist = draw(st.integers(1, 3))
    n = draw(st.integers(4, 10))
    k_folds = draw(st.one_of(st.none(), st.integers(2, min(4, n))))
    constrained = draw(st.booleans())
    init_scale = draw(st.sampled_from([0.0, 1.0]))
    full = default_grid()
    interior = draw(st.lists(st.sampled_from(full[1:-1]), max_size=3, unique=True))
    grid = tuple(sorted({full[0], full[-1], *interior}))

    linear = family == "linear"
    step = update if linear else update_logistic
    names = tuple(f"x{j}" for j in range(size))
    coef = dict(zip(names + ("new",), rng.standard_normal(size + 1)))
    shuffled = names + unseen
    shuffled = tuple(shuffled[i] for i in rng.permutation(len(shuffled)))

    def make_batch(t, rows, extra=()):
        covs = [c for c in names if rng.random() < 0.7] or [names[-1]]
        covs = [covs[i] for i in rng.permutation(len(covs))] + list(extra)
        X = rng.standard_normal((rows, len(covs)))
        eta = X @ np.array([coef[c] for c in covs])
        y = eta + 0.5 * rng.standard_normal(rows) if linear else binary_response(rng, eta)
        return Batch(t=t, X=X, y=y, covariates=tuple(covs), family=family)

    init = dict(zip(names + unseen, init_scale * rng.standard_normal(size + len(unseen))))
    states = [linear_state(names, family, init), linear_state(shuffled, family, init)]
    for t in range(1, n_hist + 1):
        batch = make_batch(t, int(rng.integers(2, 12)))
        lam = float(rng.choice([0.1, 1.0, 10.0]))
        states = [step(state, batch, lam) for state in states]
    arriving = make_batch(n_hist + 1, n, ("new",) if rng.random() < 0.5 else ())

    cfg = PenaltySearchConfig(k_folds=k_folds, constrained=constrained, grid=grid,
                              seed=int(rng.integers(1000)))
    return states, arriving, cfg


def selection_pool(report):
    """The candidates the selector chose among: the feasible ones, else,
    in constrained mode, those at the largest penalty."""
    pool = [c for c in report.cv_curve if c.feasible and np.isfinite(c.score)]
    if not pool and report.constrained:
        top = max(c.lam for c in report.cv_curve)
        pool = [c for c in report.cv_curve if c.lam == top and np.isfinite(c.score)]
    return pool


class TestRegistryInvariance:
    """A whole selection does not depend on the order in which the state's
    registry lists the covariates, nor on covariates it carries that no
    batch has: the curves agree within the rtol of
    ``TestLinearGridRouteProperties``, and so does the choice whenever the
    winner leads the rest of the pool by more than that tolerance."""

    RTOL = 1e-10

    def check(self, case):
        (base, variant), batch, cfg = case
        want = select_penalty(base, batch, cfg)
        got = select_penalty(variant, batch, cfg)
        assert got.new_fraction == want.new_fraction
        assert len(got.cv_curve) == len(want.cv_curve)
        settled = True
        for a, b in zip(got.cv_curve, want.cv_curve):
            assert a.lam == b.lam
            assert np.isfinite(a.score) == np.isfinite(b.score)
            if np.isfinite(b.score):
                np.testing.assert_allclose(a.score, b.score, rtol=self.RTOL)
            for x, y in ((a.lhs, b.lhs), (a.rhs, b.rhs)):
                assert (x is None) == (y is None)
                if x is not None:
                    np.testing.assert_allclose(x, y, rtol=self.RTOL)
            if b.lhs is not None and abs(b.lhs - b.rhs) <= self.RTOL * abs(b.rhs):
                settled = False  # on the constraint's edge: either verdict is rounding
            else:
                assert a.feasible == b.feasible
        pool = sorted(selection_pool(want), key=lambda c: c.score)
        if settled and len(pool) > 1:
            settled = pool[1].score - pool[0].score > self.RTOL * abs(pool[0].score)
        if settled:
            assert got.chosen_lambda == want.chosen_lambda
            assert got.fallback_used == want.fallback_used

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(registry_variants("linear"))
    def test_linear_selection(self, case):
        self.check(case)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(registry_variants("logistic"))
    def test_logistic_selection(self, case):
        self.check(case)


def logistic_past(rng, n_batches, n=200, p=20):
    X = rng.standard_normal((n_batches * n, p))
    y = (rng.random(n_batches * n) < 0.5).astype(float)
    return penalty_tuning.fold_stacked(None, X, y)


class TestLogisticHistoryLoss:
    def test_blocked_loss_matches_the_one_shot_loss(self, monkeypatch):
        """Blocks of 7 columns against the whole array at once; the past
        covers 3 of the coefficients' 5 covariates."""
        rng = np.random.default_rng(12)
        past = logistic_past(rng, 2, n=30, p=3)
        coefs = rng.standard_normal((5, 40))
        fam = penalty_tuning.get_family("logistic")
        whole = fam.loss(past.X, past.y, coefs[:3])
        monkeypatch.setattr(penalty_tuning, "_BLOCK_ELEMENTS", 7 * past.rows)
        np.testing.assert_allclose(fam.history_loss(past, coefs), whole, rtol=1e-12)

    def test_peak_memory_does_not_grow_with_the_past(self):
        """A grid of 3,300 penalties (p = 20) on 3 and on 15 past batches of
        200 rows: the one-shot loss would hold a (rows x candidates)
        predictor, 79 MB at 15 batches."""
        import tracemalloc

        rng = np.random.default_rng(13)
        fam = penalty_tuning.get_family("logistic")
        coefs = rng.standard_normal((20, 3300)) * 0.1
        peaks = []
        for n_batches in (3, 15):
            past = logistic_past(rng, n_batches)
            tracemalloc.start()
            try:
                fam.history_loss(past, coefs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block = 8 * penalty_tuning._BLOCK_ELEMENTS
        assert peaks[1] <= 4 * block
        assert peaks[1] <= 1.25 * peaks[0] + block // 4
