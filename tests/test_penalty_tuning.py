"""Tests for penalty selection by cross-validation with the historic-fit
feasibility constraint.

Fold construction, the CV score, and both sides of the constraint are
checked against hand-rolled enumerations; the selector's tie-breaking,
fallback, and determinism rules are exercised on constructed instances.
The linear route's grid-wide solve is checked, as a property over
generated selections, against the per-candidate ``cv_score`` and
``constraint_terms`` route.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ridge_relay import (
    Batch,
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
)
from ridge_relay import penalty_tuning
from ridge_relay.model_core import TargetSpec


def linear_state(names=("a", "b")):
    return EstimatorState(family="linear",
                          registry=CovariateRegistry(tuple(names)),
                          init_target=CoefficientVector({n: 0.0 for n in names}))


def state_with_history(rng, coef, n_batches=2, n=15, noise_sd=0.1, lam=1.0):
    """A chain of informative linear batches ending at a useful estimate."""
    p = coef.shape[0]
    names = tuple(f"x{j}" for j in range(p))
    state = linear_state(names)
    for t in range(1, n_batches + 1):
        X = rng.standard_normal((n, p))
        y = X @ coef + noise_sd * rng.standard_normal(n)
        state = update(state, Batch(t=t, X=X, y=y, covariates=names), lam)
    return state, names


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
        from ridge_relay.errors import ConvergenceError

        def explode(family, X, y, lam, target):
            raise ConvergenceError("forced failure")

        monkeypatch.setattr(penalty_tuning, "_fit_coef", explode)
        batch = Batch(t=1, X=np.eye(4), y=np.ones(4),
                      covariates=("a", "b", "c", "d"))
        folds = make_folds(4, 2, seed=0)
        score = cv_score("linear", batch, 1.0, np.zeros(4), folds)
        assert score == np.inf


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
        state, names = state_with_history(rng, coef, n_batches=2, n=12)
        X = rng.standard_normal((10, 2))
        y = X @ coef + 0.2 * rng.standard_normal(10)
        batch = Batch(t=3, X=X, y=y, covariates=names)
        folds = make_folds(10, 5, seed=1)
        lam = 0.8
        target = state.current
        terms = constraint_terms(state, batch, lam, target, folds)

        hist_X = np.vstack([b.X for b in state.retained])
        hist_y = np.concatenate([b.y for b in state.retained])
        prev = state.current.as_array(names)
        rhs = float((hist_y - hist_X @ prev) @ (hist_y - hist_X @ prev))
        target_arr = target.as_array(names)
        lhs_sum = 0.0
        for fold in range(1, 6):
            train, _ = folds.split(fold)
            beta = fit_targeted_ridge(X[train], y[train], lam, target_arr).coef
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

    def test_mixture_search_walks_the_weight_lattice(self):
        rng = np.random.default_rng(96)
        coef = np.array([1.0, -1.0])
        state, names = state_with_history(rng, coef, n_batches=1,
                                          noise_sd=0.0)
        X = rng.standard_normal((15, 2))
        y = X @ coef + 0.1 * rng.standard_normal(15)
        batch = Batch(t=2, X=X, y=y, covariates=names)
        spec = TargetSpec(targets=(
            CoefficientVector(dict(zip(names, coef))),
            CoefficientVector({n: 10.0 for n in names}),
        ))
        grid = (0.5, 5.0, 50.0)
        cfg = PenaltySearchConfig(k_folds=5, constrained=False, grid=grid,
                                  weight_points=5)
        report = select_penalty(state, batch, cfg, targets=spec)
        assert len(report.cv_curve) == len(grid) * 5
        assert report.chosen_weights is not None
        np.testing.assert_allclose(sum(report.chosen_weights), 1.0, atol=1e-12)
        assert report.chosen_weights[0] > 0.5

    def test_fixed_mixture_weights_are_respected(self):
        rng = np.random.default_rng(97)
        state, names = state_with_history(rng, np.array([1.0, -1.0]),
                                          n_batches=1)
        X = rng.standard_normal((10, 2))
        batch = Batch(t=2, X=X, y=rng.standard_normal(10), covariates=names)
        spec = TargetSpec(targets=(CoefficientVector({n: 0.0 for n in names}),
                                   CoefficientVector({n: 1.0 for n in names})),
                          weights=(0.3, 0.7))
        cfg = PenaltySearchConfig(k_folds=5, constrained=False, grid=(0.5, 5.0))
        report = select_penalty(state, batch, cfg, targets=spec)
        assert report.chosen_weights == (0.3, 0.7)
        assert len(report.cv_curve) == 2

    def test_all_candidates_disqualified_raises(self, monkeypatch):
        """The linear route scores the grid in ``_linear_grid_terms``; when
        it rates every candidate infinite, selection must refuse."""
        def all_infinite(X, y, folds, grid, targets, hist_X=None, hist_y=None):
            shape = (len(grid), targets.shape[1])
            return np.full(shape, np.inf), None if hist_X is None else np.full(shape, np.inf)

        monkeypatch.setattr(penalty_tuning, "_linear_grid_terms", all_infinite)
        rng = np.random.default_rng(98)
        state, names = state_with_history(rng, np.array([1.0, -1.0]))
        X = rng.standard_normal((10, 2))
        batch = Batch(t=3, X=X, y=rng.standard_normal(10), covariates=names)
        for constrained in (False, True):
            cfg = PenaltySearchConfig(k_folds=5, constrained=constrained, grid=(0.5, 5.0))
            with pytest.raises(SelectionError):
                select_penalty(state, batch, cfg)

    def test_all_logistic_candidates_disqualified_raises(self, monkeypatch):
        """The logistic route scores each candidate with ``cv_score``."""
        monkeypatch.setattr(penalty_tuning, "cv_score",
                            lambda *args, **kwargs: float("inf"))
        rng = np.random.default_rng(98)
        names = ("a", "b")
        state = EstimatorState(family="logistic", registry=CovariateRegistry(names),
                               init_target=CoefficientVector({n: 0.0 for n in names}))
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


@st.composite
def linear_selections(draw):
    """A linear state, an arriving batch and a search configuration.

    Covers K-fold and leave-one-out, batches with more covariates than
    rows, batches that add covariates or lack some registry covariates,
    first updates and constrained ones, mixture weight lattices and fixed
    weights, and grids that always hold both ends of the default grid.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    registry_size = draw(st.integers(1, 5))
    n_hist = draw(st.sampled_from([2, 1, 3, 0]))
    n = draw(st.integers(3, 10))
    k_folds = draw(st.one_of(st.none(), st.integers(2, min(5, n))))
    carried = draw(st.lists(st.booleans(), min_size=registry_size, max_size=registry_size))
    n_added = draw(st.integers(0 if any(carried) else 1, 3))
    mixture = draw(st.sampled_from([None, "lattice", "fixed"]))
    weight_points = draw(st.integers(2, 4))
    constrained = draw(st.sampled_from([True, False]))
    full = default_grid()
    interior = draw(st.lists(st.sampled_from(full[1:-1]), max_size=3, unique=True))
    grid = tuple(sorted({full[0], full[-1], *interior}))

    rng = np.random.default_rng(seed)
    names = tuple(f"x{j}" for j in range(registry_size))
    coef = rng.standard_normal(registry_size + n_added)
    state = linear_state(names)
    for t in range(1, n_hist + 1):
        rows = int(rng.integers(2, 12))
        X = rng.standard_normal((rows, registry_size))
        y = X @ coef[:registry_size] + 0.5 * rng.standard_normal(rows)
        state = update(state, Batch(t=t, X=X, y=y, covariates=names),
                       float(rng.choice([0.1, 1.0, 10.0])))
    batch_names = [name for name, keep in zip(names, carried) if keep]
    batch_names += [f"new{j}" for j in range(n_added)]
    order = rng.permutation(len(batch_names))
    batch_names = tuple(batch_names[i] for i in order)
    all_names = names + tuple(f"new{j}" for j in range(n_added))
    beta = np.array([coef[all_names.index(c)] for c in batch_names])
    X = rng.standard_normal((n, len(batch_names)))
    batch = Batch(t=state.t + 1, X=X, y=X @ beta + 0.5 * rng.standard_normal(n),
                  covariates=batch_names)

    spec = None
    if mixture is not None:
        other = CoefficientVector({c: float(v) for c, v in
                                   zip(names, rng.standard_normal(registry_size))})
        weights = None
        if mixture == "fixed":
            w = float(rng.uniform())
            weights = (w, 1.0 - w)
        spec = TargetSpec(targets=(state.current, other), weights=weights)
    cfg = PenaltySearchConfig(k_folds=k_folds, constrained=constrained, grid=grid,
                              seed=int(rng.integers(1000)), weight_points=weight_points)
    return state, batch, cfg, spec


def per_candidate_curve(state, batch, registry, *rest):
    return penalty_tuning._per_candidate_curve(state, batch, *rest)


class TestLinearGridRouteProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(linear_selections())
    def test_grid_route_matches_per_candidate_route(self, case):
        state, batch, cfg, spec = case
        report = select_penalty(state, batch, cfg, targets=spec)
        with mock.patch.object(penalty_tuning, "_linear_curve", per_candidate_curve):
            oracle = select_penalty(state, batch, cfg, targets=spec)
        assert len(report.cv_curve) == len(oracle.cv_curve)
        for got, want in zip(report.cv_curve, oracle.cv_curve):
            assert (got.lam, got.weights) == (want.lam, want.weights)
            np.testing.assert_allclose(got.score, want.score, rtol=1e-10)
            assert got.feasible == want.feasible
            for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs)):
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_allclose(a, b, rtol=1e-10)
        assert report.chosen_lambda == oracle.chosen_lambda
        assert report.chosen_weights == oracle.chosen_weights
        assert report.fallback_used == oracle.fallback_used
        assert report.new_fraction == oracle.new_fraction
