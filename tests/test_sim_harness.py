"""Tests for the simulation harness: scenario configs, batch generation,
study runners, and the trajectory/moment property checks.

Determinism is asserted bitwise; statistical behaviour (bias decay,
band shrinkage, loss ordering) is asserted on small seeded scenarios.
"""

import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridge_relay import (
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    PenaltySearchConfig,
    ScenarioConfig,
    TrajectoryResult,
    ValidationError,
    covariate_names,
    fit_first_batch,
    fold_triangular,
    generate_batch,
    generate_batches,
    initial_state,
    irls_fit,
    resolve_beta,
    run_study_mixed_vs_updated,
    run_study_regular_vs_updated,
    select_penalty,
    tracked_positions,
    update,
)
from ridge_relay import baselines
from ridge_relay.model_core import _MAX_ELEMENTS
from ridge_relay.penalty_tuning import selection_elements
from ridge_relay.sim_harness import QUANTILES, _nan_quantiles
from sim_checks import check_consistency_trajectory, check_moment_formulas

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def small_config(**overrides):
    base = dict(p=5, n=8, n_batches=6, n_replicates=5, noise_var=0.25,
                k_folds=4, grid_points=10, seed=7)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_defaults_match_documented_study_shape(self):
        config = ScenarioConfig()
        assert config.p == 101 and config.n == 25
        assert config.n_batches == 25 and config.n_replicates == 100
        assert config.noise_var == 0.04
        assert config.beta_rule == "ramp"

    def test_fields_keep_their_order_and_defaults(self):
        assert list(ScenarioConfig().to_dict().items()) == [
            ("study", "regular-vs-updated"), ("family", "linear"), ("p", 101), ("n", 25),
            ("n_batches", 25), ("n_replicates", 100), ("beta_rule", "ramp"),
            ("noise_var", 0.04), ("batch_effect_var", 0.0), ("empty_every", None),
            ("orthonormal", False), ("seed", 0), ("k_folds", None), ("constrained", None),
            ("grid_min", 1e-4), ("grid_max", 1e6), ("grid_points", 50),
            ("mixed_ratio_grid_points", 25), ("tracked", None)]

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(study="nope")
        with pytest.raises(ValidationError):
            ScenarioConfig(family="poisson")
        with pytest.raises(ValidationError):
            ScenarioConfig(p=0)
        with pytest.raises(ValidationError):
            ScenarioConfig(beta_rule="linear-ramp")
        with pytest.raises(ValidationError):
            ScenarioConfig(p=3, beta_rule=(1.0, 2.0))
        with pytest.raises(ValidationError):
            ScenarioConfig(empty_every=1)
        with pytest.raises(ValidationError):
            ScenarioConfig(noise_var=-0.1)
        with pytest.raises(ValidationError):
            ScenarioConfig(p=10, n=5, orthonormal=True)
        with pytest.raises(ValidationError):
            ScenarioConfig(p=4, tracked=(0, 2))
        with pytest.raises(ValidationError):
            ScenarioConfig(p=4, tracked=())

    @pytest.mark.parametrize("field,value", [("p", "11"), ("seed", 1.5),
                                             ("n_replicates", True), ("seed", -1)])
    def test_constructor_checks_field_types_and_seed(self, field, value):
        """Python callers get the same checks as scenario files."""
        with pytest.raises(ValidationError):
            ScenarioConfig(**{field: value})

    def test_numpy_scalars_are_accepted(self):
        config = ScenarioConfig(p=np.int64(3), n=np.int32(6), noise_var=np.float64(0.5),
                                grid_min=np.float32(0.01), seed=np.int64(4),
                                orthonormal=np.bool_(False),
                                beta_rule=np.array([0.5, -0.5, 1.0]))
        assert config.p == 3 and config.noise_var == 0.5 and config.seed == 4
        assert config.beta_rule == (0.5, -0.5, 1.0)

    # field -> sizes that put the array the field sizes one element past the
    # cap (2**24), the other sizes within it; a grid is counted by
    # selection_elements, here the (p + 1, L, n) leave-one-out block
    PAST_THE_CAP = {
        "p": {"p": 2 ** 12 + 1, "mixed_ratio_grid_points": 1},
        "n": {"study": "mixed-vs-updated", "p": 2 ** 12, "n": 2 ** 12 + 1, "n_batches": 1,
              "k_folds": 2, "mixed_ratio_grid_points": 1},
        "n_batches": {"p": 2 ** 6, "n": 2 ** 6, "n_batches": 2 ** 12 + 1},
        "n_replicates": {"p": 1, "n": 1, "n_batches": 2 ** 12, "n_replicates": 2 ** 12 + 1},
        "grid_points": {"p": 7, "n": 8, "grid_points": 2 ** 18 + 1},
        "mixed_ratio_grid_points": {"study": "mixed-vs-updated", "p": 2 ** 4,
                                    "mixed_ratio_grid_points": 2 ** 16 + 1},
    }

    @pytest.mark.parametrize("field", list(PAST_THE_CAP))
    def test_a_size_past_the_element_cap_is_refused_by_name(self, field):
        """Read in process: the sizes are refused before anything is
        allocated, so no study runs on them."""
        edit = self.PAST_THE_CAP[field]
        at_cap = {**edit, field: edit[field] - 1}
        ScenarioConfig.from_dict(at_cap)
        with pytest.raises(ValidationError, match=f"^scenario field {field!r} must be "):
            ScenarioConfig.from_dict(edit)
        with pytest.raises(ValidationError, match=f"^scenario field {field!r} must be "):
            ScenarioConfig.from_dict({**at_cap, field: 9223372036854775807})

    # (study, family, k_folds, p, n, grid points, accepted): each pair sits on
    # both sides of the cap, by the largest array of the run's selections; the
    # last two hold 8.0e8 and 2.0e7 values, though the grid's fits alone,
    # points * (n + p), are within it
    SELECTIONS = [
        ("regular-vs-updated", "linear", 2, 100, 50, 3322, True),
        ("regular-vs-updated", "linear", 2, 100, 50, 3323, False),
        ("mixed-vs-updated", "linear", 2, 100, 50, 3323, True),
        ("mixed-vs-updated", "linear", 2, 100, 50, 2 ** 24 // 100 + 1, False),
        ("mixed-vs-updated", "linear", None, 100, 50, 3322, True),
        ("mixed-vs-updated", "linear", 50, 100, 50, 3323, False),
        ("mixed-vs-updated", "linear", 2, 2 ** 12, 2 ** 12, 2 ** 12, True),
        ("regular-vs-updated", "logistic", 5, 64, 10, 2 ** 12, True),
        ("regular-vs-updated", "logistic", 5, 64, 10, 2 ** 12 + 1, False),
        ("regular-vs-updated", "logistic", None, 10, 2 ** 10, 2 ** 14, True),
        ("regular-vs-updated", "logistic", None, 10, 2 ** 10, 2 ** 14 + 1, False),
        ("regular-vs-updated", "logistic", 2, 4000, 10, 50, False),
        ("regular-vs-updated", "linear", None, 1000, 1000, 20, False),
    ]

    @pytest.mark.parametrize("study, family, k_folds, p, n, points, accepted", SELECTIONS)
    def test_a_scenario_counts_its_selections_as_the_command_line_does(
            self, study, family, k_folds, p, n, points, accepted):
        """Accepted exactly when selection_elements, with leave-one-out
        where the run uses it, stays within the cap; the regular study's
        first-batch fit always selects by leave-one-out."""
        loo = study == "regular-vs-updated" or k_folds in (None, n)
        assert (selection_elements(family, p, n, points, loo) <= _MAX_ELEMENTS) == accepted
        doc = {"study": study, "family": family, "k_folds": k_folds, "p": p, "n": n,
               "n_batches": 1, "n_replicates": 1, "grid_points": points,
               "mixed_ratio_grid_points": 1}
        if accepted:
            assert ScenarioConfig.from_dict(doc).grid_points == points
        else:
            with pytest.raises(ValidationError, match="^scenario field 'grid_points' must be at "
                               "most what keeps a selection's largest array within 16777216 "):
                ScenarioConfig.from_dict(doc)

    def test_the_ratio_grid_bounds_only_the_study_that_builds_it(self):
        """Only mixed-vs-updated refits on the ratio grid, so a wide
        regular-vs-updated scenario with the default grid is accepted."""
        wide = {"p": 1000, "n": 25, "n_batches": 25, "n_replicates": 1}
        assert ScenarioConfig.from_dict(wide).p == 1000
        with pytest.raises(ValidationError,
                           match="^scenario field 'mixed_ratio_grid_points' must be "):
            ScenarioConfig.from_dict({**wide, "study": "mixed-vs-updated"})

    def test_numpy_scalars_are_stored_as_python_values(self):
        """A config built from NumPy values writes as JSON, like any other."""
        config = ScenarioConfig(p=np.int64(3), n=np.int32(6), noise_var=np.float64(0.5),
                                grid_min=np.float32(0.25), seed=np.int64(4),
                                orthonormal=np.bool_(False), k_folds=np.int16(3),
                                tracked=(np.int64(1), np.int64(3)),
                                beta_rule=np.array([0.5, -0.5, 1.0]))
        doc = json.loads(json.dumps(config.to_dict()))
        assert ScenarioConfig.from_dict(doc) == config
        for name in ("p", "n", "seed", "k_folds", "noise_var", "grid_min", "orthonormal"):
            assert type(getattr(config, name)) in (int, float, bool)
        assert type(config.orthonormal) is bool and type(config.p) is int
        assert config.grid_min == 0.25

    def test_dict_round_trip(self):
        config = ScenarioConfig(p=3, n=6, beta_rule=(0.5, -0.5, 1.0),
                                tracked=(1, 3), empty_every=4,
                                family="logistic", seed=11)
        clone = ScenarioConfig.from_dict(config.to_dict())
        assert clone == config
        with pytest.raises(ValidationError):
            ScenarioConfig.from_dict({"p": 3, "mystery": 1})

    def test_grid_respects_bounds(self):
        config = small_config(grid_min=0.01, grid_max=100.0, grid_points=5)
        grid = config.grid()
        assert len(grid) == 5
        np.testing.assert_allclose(grid[0], 0.01)
        np.testing.assert_allclose(grid[-1], 100.0)


class TestBetaRuleAndTracking:
    def test_ramp_is_centered_with_constant_increments(self):
        beta = resolve_beta(ScenarioConfig(p=101))
        assert beta.shape == (101,)
        np.testing.assert_allclose(beta[0], -2.5)
        np.testing.assert_allclose(beta[-1], 2.5)
        np.testing.assert_allclose(beta[50], 0.0)
        np.testing.assert_allclose(np.diff(beta), np.full(100, 0.05))

    def test_explicit_vector_used_verbatim(self):
        config = ScenarioConfig(p=3, beta_rule=(9.0, -9.0, 0.5))
        np.testing.assert_array_equal(resolve_beta(config), [9.0, -9.0, 0.5])

    def test_reference_positions_at_full_dimension(self):
        assert tracked_positions(ScenarioConfig(p=101)) == (1, 21, 51, 71, 101)

    def test_reference_positions_scale_into_smaller_dimension(self):
        assert tracked_positions(ScenarioConfig(p=11)) == (1, 3, 6, 8, 11)

    def test_explicit_tracking_wins(self):
        config = ScenarioConfig(p=11, tracked=(2, 5))
        assert tracked_positions(config) == (2, 5)


class TestGenerateBatches:
    def test_noiseless_linear_responses_are_exact(self):
        config = small_config(noise_var=0.0)
        beta = resolve_beta(config)
        for batch in generate_batches(config, replicate=0):
            np.testing.assert_allclose(batch.y, batch.X @ beta, atol=1e-12)

    def test_same_seed_is_bitwise_identical(self):
        config = small_config()
        a = generate_batches(config, replicate=3)
        b = generate_batches(config, replicate=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X, y.X)
            np.testing.assert_array_equal(x.y, y.y)

    def test_replicates_and_times_use_distinct_streams(self):
        config = small_config()
        base = generate_batch(config, replicate=0, t=1)
        other_rep = generate_batch(config, replicate=1, t=1)
        other_t = generate_batch(config, replicate=0, t=2)
        init_draw = generate_batch(config, replicate=0, t=0)
        assert not np.array_equal(base.X, other_rep.X)
        assert not np.array_equal(base.X, other_t.X)
        assert not np.array_equal(base.X, init_draw.X)

    def test_periodically_empty_batches_carry_no_signal(self):
        config = ScenarioConfig(p=3, n=4000, n_batches=4, empty_every=2,
                                noise_var=1.0, seed=3)
        beta = resolve_beta(config)
        batches = generate_batches(config, replicate=0)
        bound = 4.0 / np.sqrt(config.n)
        for batch in batches:
            corr = np.array([np.corrcoef(batch.X[:, j], batch.y)[0, 1]
                             for j in range(3)])
            if batch.t % 2 == 0:
                assert np.max(np.abs(corr)) < bound
            else:
                expected = beta / np.sqrt(beta @ beta + 1.0)
                assert np.max(np.abs(corr - expected)) < bound

    def test_logistic_family_draws_binary_responses(self):
        config = ScenarioConfig(p=2, n=3000, n_batches=1, family="logistic",
                                beta_rule=(1.0, -1.0), seed=5)
        batch = generate_batches(config, 0)[0]
        assert batch.family == "logistic"
        assert set(np.unique(batch.y)) <= {0.0, 1.0}
        eta = batch.X @ np.array([1.0, -1.0])
        rate_hi = batch.y[eta > 1.0].mean()
        rate_lo = batch.y[eta < -1.0].mean()
        assert rate_hi > 0.6 and rate_lo < 0.4

    def test_orthonormal_designs_have_identity_gram(self):
        config = small_config(orthonormal=True)
        batch = generate_batch(config, 0, 1)
        np.testing.assert_allclose(batch.X.T @ batch.X, np.eye(config.p),
                                   atol=1e-12)

    def test_batch_effect_disturbs_coefficients(self):
        config = ScenarioConfig(p=2, n=5000, n_batches=2, noise_var=0.01,
                                batch_effect_var=4.0, beta_rule=(1.0, 1.0),
                                seed=9)
        batches = generate_batches(config, 0)
        slopes = [np.linalg.lstsq(b.X, b.y, rcond=None)[0] for b in batches]
        assert np.linalg.norm(slopes[0] - slopes[1]) > 0.5


class TestTrajectoryResult:
    def make_result(self, estimates):
        R, T, C = estimates.shape
        return TrajectoryResult(name="demo", t_values=np.arange(1, T + 1),
                                tracked=tuple(range(1, C + 1)),
                                estimates=estimates,
                                losses=np.abs(estimates[:, :, 0]),
                                lambdas=np.ones((R, T)))

    def test_quantile_bands_are_ordered(self):
        rng = np.random.default_rng(131)
        result = self.make_result(rng.standard_normal((40, 6, 3)))
        bands = result.quantile_bands()
        assert np.all(bands[0] <= bands[1]) and np.all(bands[1] <= bands[2])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_nan_quantiles_equal_nanquantile(self, data):
        R = data.draw(st.integers(1, 7), label="replicates")
        T, C = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        # few distinct values make ties; NaNs are scattered or fill whole columns
        values = st.one_of(st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
                           st.floats(-1e3, 1e3, allow_nan=False), st.just(np.nan))
        estimates = np.array(data.draw(st.lists(values, min_size=R * T * C,
                                                max_size=R * T * C))).reshape(R, T, C)
        for t, c in data.draw(st.lists(st.tuples(st.integers(0, T - 1),
                                                 st.integers(0, C - 1)), max_size=2)):
            estimates[:, t, c] = np.nan
        qs = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="All-NaN slice", category=RuntimeWarning)
            expected = np.nanquantile(estimates, qs, axis=0)
        got = _nan_quantiles(estimates, np.array(qs))
        assert np.array_equal(got, expected, equal_nan=True)

    def test_all_nan_column_gives_nan_without_a_warning(self):
        estimates = np.ones((3, 2, 1))
        estimates[:, 0, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bands = self.make_result(estimates).quantile_bands()
        assert np.all(np.isnan(bands[:, 0, 0])) and np.all(bands[:, 1, 0] == 1.0)

    def test_a_lone_negative_zero_keeps_its_sign(self):
        # NumPy reads the top index as -1 when it forms the weight g, which
        # decides the sign of a quantile taken from one signed zero.
        estimates = np.array([-0.0, np.nan]).reshape(2, 1, 1)
        expected = np.nanquantile(estimates, [0.0, 0.5, 1.0], axis=0)
        got = _nan_quantiles(estimates, np.array([0.0, 0.5, 1.0]))
        assert np.all(np.signbit(expected)) and np.all(np.signbit(got))

    def test_quantile_bands_are_nanquantile_at_the_fixed_levels(self):
        estimates = np.random.default_rng(7).standard_normal((5, 3, 2))
        estimates[1, 2, 0] = np.nan
        got = self.make_result(estimates).quantile_bands()
        assert got.shape == (3, 3, 2)
        assert np.array_equal(got, np.nanquantile(estimates, QUANTILES, axis=0))

    def test_mean_loss_ignores_missing_entries(self):
        estimates = np.ones((3, 2, 1))
        losses = np.array([[np.nan, 1.0], [np.nan, 3.0], [np.nan, 5.0]])
        result = TrajectoryResult(name="demo", t_values=np.array([1, 2]),
                                  tracked=(1,), estimates=estimates,
                                  losses=losses, lambdas=np.ones((3, 2)))
        out = result.mean_loss()
        assert np.isnan(out[0])
        np.testing.assert_allclose(out[1], 3.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            TrajectoryResult(name="demo", t_values=np.array([1, 2, 3]),
                             tracked=(1,), estimates=np.ones((2, 2, 1)),
                             losses=np.ones((2, 2)), lambdas=np.ones((2, 2)))


class TestInitialState:
    def test_zero_mode_starts_at_the_origin(self):
        config = small_config()
        state = initial_state(config, 0, "zero-target")
        assert state.t == 0 and state.past is None
        assert all(v == 0.0 for v in state.current.values.values())

    def test_truth_mode_starts_at_the_generating_vector(self):
        config = small_config()
        state = initial_state(config, 0, "truth-target")
        np.testing.assert_array_equal(
            state.current.as_array(covariate_names(config.p)),
            resolve_beta(config))

    def test_fit_mode_consumes_a_dedicated_initialization_batch(self):
        config = small_config()
        state = initial_state(config, 2, "ridge-on-first-batch")
        init_batch = generate_batch(config, 2, 0)
        assert state.past.rows == init_batch.n
        np.testing.assert_array_equal(
            state.past.factor, fold_triangular(None, init_batch.X, init_batch.y).factor)
        coef = state.current.as_array(covariate_names(config.p))
        assert np.linalg.norm(coef) > 0
        residual_gap = []
        for lam in config.grid():
            lhs = (init_batch.X.T @ init_batch.X + lam * np.eye(config.p)) @ coef
            rhs = init_batch.X.T @ init_batch.y
            residual_gap.append(np.max(np.abs(lhs - rhs)))
        assert min(residual_gap) < 1e-8

    def test_an_unknown_start_is_rejected(self):
        with pytest.raises(ValidationError, match="unknown chain start"):
            initial_state(small_config(), 0, "oracle")


class TestRunStudyRegularVsUpdated:
    def test_shapes_names_and_determinism(self):
        config = small_config()
        regular, updated = run_study_regular_vs_updated(config)
        assert regular.name == "regular" and updated.name == "updated"
        C = len(tracked_positions(config))
        for result in (regular, updated):
            assert result.estimates.shape == (5, 6, C)
            assert np.all(np.isfinite(result.losses))
            assert np.all(np.isfinite(result.lambdas))
        regular2, updated2 = run_study_regular_vs_updated(config)
        np.testing.assert_array_equal(regular.estimates, regular2.estimates)
        np.testing.assert_array_equal(updated.lambdas, updated2.lambdas)

    def test_chain_accumulates_while_refits_do_not(self):
        config = ScenarioConfig(p=5, n=10, n_batches=8, n_replicates=10,
                                noise_var=0.25, k_folds=5, grid_points=12,
                                seed=21)
        regular, updated = run_study_regular_vs_updated(config)
        upd_loss = updated.mean_loss()
        reg_loss = regular.mean_loss()
        assert upd_loss[-1] < upd_loss[0]
        assert upd_loss[-1] < reg_loss[-1]
        ratio = reg_loss[-1] / reg_loss[0]
        assert 0.33 < ratio < 3.0

    def test_supports_the_logistic_family(self):
        config = ScenarioConfig(p=3, n=30, n_batches=3, n_replicates=2,
                                family="logistic", beta_rule=(0.5, -0.5, 0.0),
                                k_folds=3, grid_points=6, seed=23)
        regular, updated = run_study_regular_vs_updated(config)
        assert np.all(np.isfinite(regular.losses))
        assert np.all(np.isfinite(updated.losses))

    def test_logistic_fits_are_penalized_logistic_fits(self):
        """The initial target and every regular-arm refit of a logistic
        study are ``irls_fit`` at the chosen penalty, not least-squares
        ridge fits of the 0/1 responses."""
        config = ScenarioConfig(p=3, n=30, n_batches=3, n_replicates=1,
                                family="logistic", beta_rule=(0.5, -0.5, 0.0),
                                k_folds=3, grid_points=6, seed=23, tracked=(1, 2, 3))
        names = covariate_names(config.p)
        zeros = np.zeros(config.p)
        batch0 = generate_batch(config, 0, 0)
        blank = EstimatorState(family="logistic", registry=CovariateRegistry(names),
                               init_target=CoefficientVector({n: 0.0 for n in names}))
        sel0 = PenaltySearchConfig(k_folds=None, constrained=False, grid=config.grid(),
                                   seed=config.seed)
        lam0 = select_penalty(blank, batch0, sel0).chosen_lambda
        init = initial_state(config, 0, "ridge-on-first-batch")
        np.testing.assert_array_equal(init.init_target.as_array(names),
                                      irls_fit(batch0.X, batch0.y, lam0, zeros).coef)
        regular, _ = run_study_regular_vs_updated(config)
        for i, batch in enumerate(generate_batches(config, 0)):
            refit = irls_fit(batch.X, batch.y, regular.lambdas[0, i], zeros)
            np.testing.assert_array_equal(regular.estimates[0, i], refit.coef)


    @pytest.mark.parametrize("family, n", [("linear", 8), ("logistic", 30)])
    def test_each_refit_is_the_first_batch_fit_of_its_batch(self, family, n):
        """The regular arm's refit of a batch, and its penalty, are the
        initial target and penalty ``fit_first_batch`` makes of that batch
        under the arm's selection, to the bit."""
        config = ScenarioConfig(p=3, n=n, n_batches=3, n_replicates=2, family=family,
                                beta_rule=(0.5, -0.5, 0.0), k_folds=3, grid_points=6,
                                seed=29, tracked=(1, 2, 3))
        regular, _ = run_study_regular_vs_updated(config)
        names = covariate_names(config.p)
        for r in range(config.n_replicates):
            for i, batch in enumerate(generate_batches(config, r)):
                state, report = fit_first_batch(batch, config.selection())
                assert regular.lambdas[r, i] == report.chosen_lambda
                np.testing.assert_array_equal(regular.estimates[r, i],
                                              state.init_target.as_array(names))


class TestThreadBound:
    @pytest.fixture
    def threads(self, monkeypatch):
        """Fails any call that starts a thread, and records its thread."""
        started = []

        def refuse(thread):
            started.append(thread)
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        return started

    def test_logistic_selection_opens_no_pool(self, threads):
        config = ScenarioConfig(p=3, n=20, family="logistic", beta_rule=(0.5, -0.5, 0.0),
                                grid_points=4, seed=3)
        state = initial_state(config, 0, "zero-target")
        select_penalty(state, generate_batch(config, 0, 1),
                       PenaltySearchConfig(k_folds=3, grid=config.grid()))
        assert threads == []

    def test_logistic_study_runs_on_the_calling_thread(self, threads):
        config = ScenarioConfig(p=3, n=20, n_batches=2, n_replicates=3,
                                family="logistic", beta_rule=(0.5, -0.5, 0.0),
                                k_folds=3, grid_points=4, seed=3)
        run_study_regular_vs_updated(config)
        assert threads == []


def test_simulate_does_not_import_numpy_ma(tmp_path):
    """``np.quantile`` and ``np.unique`` import ``numpy.ma``, 12-20 ms of a
    fresh process that a study's outputs do not need."""
    script = (
        "import json, sys\n"
        "from ridge_relay.cli_io import main\n"
        "for study in ('regular-vs-updated', 'mixed-vs-updated'):\n"
        "    path = sys.argv[1] + '/' + study + '.json'\n"
        "    with open(path, 'w') as fh:\n"
        "        json.dump({'study': study, 'p': 3, 'n': 10, 'n_batches': 3,\n"
        "                   'n_replicates': 2, 'grid_points': 8}, fh)\n"
        "    assert main(['simulate', '--scenario', path,\n"
        "                 '--out', sys.argv[1] + '/out-' + study]) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "False"


class TestRunStudyMixedVsUpdated:
    def test_pooled_refit_decomposes_each_batch_once(self, monkeypatch):
        calls = []
        spectrum = baselines._block_spectrum
        monkeypatch.setattr(baselines, "_block_spectrum",
                            lambda X, y: calls.append(X.shape) or spectrum(X, y))
        config = ScenarioConfig(study="mixed-vs-updated", p=4, n=3, n_batches=6,
                                n_replicates=2, noise_var=1.0, grid_points=6, seed=3)
        run_study_mixed_vs_updated(config)
        assert len(calls) == config.n_replicates * config.n_batches

    def test_pooled_fit_appears_only_once_identified(self):
        config = ScenarioConfig(study="mixed-vs-updated", p=4, n=3,
                                n_batches=6, n_replicates=4, noise_var=1.0,
                                k_folds=3, grid_points=8, seed=13)
        mixed, upd_zero, upd_truth = run_study_mixed_vs_updated(config)
        assert mixed.name == "mixed"
        assert upd_zero.name == "updated-zero-init"
        assert upd_truth.name == "updated-truth-init"
        assert np.all(np.isnan(mixed.losses[:, 0]))
        assert np.all(np.isfinite(mixed.losses[:, 2:]))
        assert np.all(np.isfinite(upd_zero.losses))
        assert np.all(np.isfinite(upd_truth.losses))

    def test_determinism(self):
        config = ScenarioConfig(study="mixed-vs-updated", p=3, n=4,
                                n_batches=4, n_replicates=3, noise_var=1.0,
                                k_folds=3, grid_points=6, seed=17)
        first = run_study_mixed_vs_updated(config)
        second = run_study_mixed_vs_updated(config)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.losses, b.losses)
            np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_requires_linear_family(self):
        config = ScenarioConfig(study="mixed-vs-updated", family="logistic",
                                p=3, n=4, n_batches=3, n_replicates=2)
        with pytest.raises(ValidationError):
            run_study_mixed_vs_updated(config)


class TestCheckConsistencyTrajectory:
    def test_default_rule_meets_the_growth_condition(self):
        config = ScenarioConfig(p=3, n=30, n_batches=60, n_replicates=1,
                                noise_var=1.0, seed=29)
        report = check_consistency_trajectory(config)
        assert report.condition_met
        assert report.trend_ok is not None
        np.testing.assert_allclose(report.ratio,
                                   report.losses[-1] / report.losses[0],
                                   rtol=1e-12)
        assert report.losses[-1] < report.losses[0]

    def test_violating_rule_switches_to_diagnostic_mode(self):
        config = ScenarioConfig(p=3, n=20, n_batches=10, n_replicates=1,
                                noise_var=1.0, seed=31)
        report = check_consistency_trajectory(config, lambda_rule=lambda b: 1e-3)
        assert not report.condition_met
        assert report.trend_ok is None
        assert np.all(report.lambdas == 1e-3)

    def test_logistic_chain_is_supported(self):
        config = ScenarioConfig(p=3, n=60, n_batches=25, n_replicates=1,
                                family="logistic", beta_rule=(0.5, -0.5, 0.25),
                                seed=37)
        report = check_consistency_trajectory(config)
        assert report.condition_met
        assert np.all(np.isfinite(report.losses))


class TestCheckMomentFormulas:
    def test_orthonormal_two_step_special_case(self):
        rng = np.random.default_rng(141)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 1)))
        report = check_moment_formulas([Q, Q], [1.0, 1.0], np.array([1.0]),
                                       np.array([0.0]), 1.0, n_mc=4000, seed=4)
        np.testing.assert_allclose(report.exact.mean, [0.75], atol=1e-12)
        np.testing.assert_allclose(report.exact.covariance,
                                   [[(1 - 2.0 ** -4) / 3.0]], atol=1e-12)
        assert report.max_mean_z < 4.0 and report.max_cov_z < 4.0

    def test_single_step_general_design(self):
        rng = np.random.default_rng(142)
        X = rng.standard_normal((9, 2))
        report = check_moment_formulas([X], [0.7], np.array([1.0, -1.0]),
                                       np.zeros(2), 0.5, n_mc=5000, seed=2)
        assert report.max_mean_z < 4.0 and report.max_cov_z < 4.0

    def test_three_step_random_designs(self):
        rng = np.random.default_rng(143)
        designs = [rng.standard_normal((10, 2)) for _ in range(3)]
        report = check_moment_formulas(designs, [2.0, 1.0, 0.5],
                                       np.array([0.5, 1.5]), np.array([1.0, 0.0]),
                                       1.0, n_mc=20000, seed=6)
        assert report.max_mean_z < 4.0
        assert report.max_cov_z < 4.0
        assert report.n_mc == 20000


class TestGeometricBiasDecay:
    def test_orthonormal_chain_bias_matches_geometric_contraction(self):
        """Simulated orthonormal chains show the predicted bias at every
        horizon, for the coefficients and for out-of-sample predictions."""
        config = ScenarioConfig(p=3, n=8, n_batches=6, n_replicates=1,
                                noise_var=1.0, orthonormal=True,
                                beta_rule=(1.5, -1.0, 0.5), seed=43)
        beta = resolve_beta(config)
        names = covariate_names(config.p)
        reps, T, lam = 600, 6, 1.0
        estimates = np.empty((reps, T, 3))
        for r in range(reps):
            state = initial_state(config, r, "zero-target")
            for i, batch in enumerate(generate_batches(config, r)):
                state = update(state, batch, lam)
                estimates[r, i] = state.current.as_array(names)
        rng = np.random.default_rng(44)
        X_new = rng.standard_normal((4, 3))
        for i in range(T):
            t = i + 1
            expected_bias = (lam / (1 + lam)) ** t * (0.0 - beta)
            mean_est = estimates[:, i].mean(axis=0)
            se = estimates[:, i].std(axis=0, ddof=1) / np.sqrt(reps)
            assert np.max(np.abs(mean_est - beta - expected_bias) / se) < 3.0
            pred = estimates[:, i] @ X_new.T
            pred_se = pred.std(axis=0, ddof=1) / np.sqrt(reps)
            pred_bias = pred.mean(axis=0) - X_new @ beta
            expected_pred = X_new @ expected_bias
            assert np.max(np.abs(pred_bias - expected_pred) / pred_se) < 3.0
