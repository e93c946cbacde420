"""Tests for the shared domain model: registry, batches, targets, state."""

import numpy as np
import pytest

from ridge_relay import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    RegistryError,
    TargetSpec,
    UpdateRecord,
    ValidationError,
    align_batch,
    assemble_target,
    mixture_target,
)


def make_state(family="linear", names=("a", "b"), init=None, history=(), retained=()):
    registry = CovariateRegistry(tuple(names))
    if init is None:
        init = CoefficientVector({n: 0.0 for n in names})
    return EstimatorState(family=family, registry=registry, init_target=init,
                          history=tuple(history), retained=tuple(retained))


class TestCovariateRegistry:
    def test_indices_are_contiguous_from_zero(self):
        reg = CovariateRegistry(("age", "dose", "weight"))
        assert [reg.index_of(n) for n in reg.names] == [0, 1, 2]
        assert reg.size == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(RegistryError):
            CovariateRegistry(("a", "b", "a"))

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryError):
            CovariateRegistry(("a", ""))

    def test_unknown_name_lookup_raises(self):
        reg = CovariateRegistry(("a",))
        with pytest.raises(RegistryError):
            reg.index_of("b")
        assert "a" in reg and "b" not in reg

    def test_extension_is_append_only(self):
        """Existing positions never move when new covariates arrive."""
        reg = CovariateRegistry(("a", "b"))
        bigger = reg.extended(("c", "a", "d"))
        assert bigger.names == ("a", "b", "c", "d")
        for name in reg.names:
            assert bigger.index_of(name) == reg.index_of(name)

    def test_extension_without_new_names_is_identity(self):
        reg = CovariateRegistry(("a", "b"))
        assert reg.extended(("b", "a")) is reg


class TestBatch:
    def test_shape_consistency_enforced(self):
        X = np.ones((3, 2))
        with pytest.raises(ValidationError):
            Batch(t=1, X=X, y=np.ones(2), covariates=("a", "b"))
        with pytest.raises(ValidationError):
            Batch(t=1, X=X, y=np.ones(3), covariates=("a",))

    def test_logistic_response_must_be_binary(self):
        X = np.ones((2, 1))
        Batch(t=1, X=X, y=np.array([0.0, 1.0]), covariates=("a",), family="logistic")
        with pytest.raises(ValidationError):
            Batch(t=1, X=X, y=np.array([0.0, 0.5]), covariates=("a",), family="logistic")

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValidationError):
            Batch(t=1, X=np.array([[np.nan]]), y=np.array([1.0]), covariates=("a",))
        with pytest.raises(ValidationError):
            Batch(t=1, X=np.array([[1.0]]), y=np.array([np.inf]), covariates=("a",))

    def test_arrays_are_copied_and_frozen(self):
        X = np.array([[1.0, 2.0]])
        y = np.array([3.0])
        batch = Batch(t=1, X=X, y=y, covariates=("a", "b"))
        X[0, 0] = 99.0
        y[0] = 99.0
        assert batch.X[0, 0] == 1.0 and batch.y[0] == 3.0
        with pytest.raises(ValueError):
            batch.X[0, 0] = 5.0

    def test_time_index_validation(self):
        X, y = np.ones((1, 1)), np.ones(1)
        assert Batch(t=0, X=X, y=y, covariates=("a",)).t == 0
        with pytest.raises(ValidationError):
            Batch(t=-1, X=X, y=y, covariates=("a",))
        with pytest.raises(ValidationError):
            Batch(t=1, X=X, y=y, covariates=("a",), family="poisson")


class TestCoefficientVector:
    def test_dense_layout_follows_requested_order(self):
        vec = CoefficientVector({"a": 1.0, "b": 2.0})
        np.testing.assert_array_equal(vec.as_array(("b", "a")), [2.0, 1.0])

    def test_missing_name_with_fallback_and_without(self):
        vec = CoefficientVector({"a": 1.0})
        with pytest.raises(ValidationError):
            vec.as_array(("a", "c"))

    def test_from_array_round_trip(self):
        names = ("a", "b", "c")
        values = np.array([0.5, -1.5, 2.0])
        vec = CoefficientVector.from_array(names, values)
        np.testing.assert_array_equal(vec.as_array(names), values)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            CoefficientVector({"a": np.nan})


class TestTargetSpec:
    def test_needs_at_least_one_target(self):
        with pytest.raises(ValidationError):
            TargetSpec(targets=())

    def test_fixed_weights_must_lie_on_simplex(self):
        targets = (CoefficientVector({"a": 0.0}), CoefficientVector({"a": 1.0}))
        TargetSpec(targets=targets, weights=(0.25, 0.75))
        with pytest.raises(ValidationError):
            TargetSpec(targets=targets, weights=(0.6, 0.6))
        with pytest.raises(ValidationError):
            TargetSpec(targets=targets, weights=(-0.2, 1.2))

    def test_simplex_tolerance_is_tight(self):
        targets = (CoefficientVector({"a": 0.0}), CoefficientVector({"a": 1.0}))
        TargetSpec(targets=targets, weights=(0.5, 0.5 + 5e-13))
        with pytest.raises(ValidationError):
            TargetSpec(targets=targets, weights=(0.5, 0.5 + 5e-12))

    def test_targets_share_one_covariate_set(self):
        with pytest.raises(ValidationError):
            TargetSpec(targets=(CoefficientVector({"a": 1.0}),
                                CoefficientVector({"b": 1.0})))


class TestAlignBatch:
    def test_absent_covariate_becomes_zero_column(self):
        batch = Batch(t=1, X=np.array([[3.0]]), y=np.array([1.0]), covariates=("a",))
        aligned = align_batch(batch, CovariateRegistry(("a", "b")))
        np.testing.assert_array_equal(aligned, [[3.0, 0.0]])

    def test_columns_reordered_to_registry_layout(self):
        batch = Batch(t=1, X=np.array([[1.0, 2.0]]), y=np.array([1.0]),
                      covariates=("b", "a"))
        aligned = align_batch(batch, CovariateRegistry(("a", "b")))
        np.testing.assert_array_equal(aligned, [[2.0, 1.0]])

    def test_unregistered_covariate_is_an_error(self):
        batch = Batch(t=1, X=np.array([[1.0]]), y=np.array([1.0]), covariates=("c",))
        with pytest.raises(RegistryError):
            align_batch(batch, CovariateRegistry(("a", "b")))

    def test_alignment_preserves_absolute_mass(self):
        """Zero-filling reorders values but never changes any of them."""
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 3))
        batch = Batch(t=1, X=X, y=rng.standard_normal(6), covariates=("c", "a", "e"))
        aligned = align_batch(batch, CovariateRegistry(("a", "b", "c", "d", "e")))
        assert aligned.shape == (6, 5)
        np.testing.assert_allclose(np.abs(aligned).sum(), np.abs(X).sum())


class TestAssembleTarget:
    def test_latest_estimate_wins_per_coordinate(self):
        history = (
            UpdateRecord(t=1, lam=1.0, estimate=CoefficientVector({"a": 1.0})),
            UpdateRecord(t=2, lam=1.0, estimate=CoefficientVector({"a": 1.5, "b": 2.0})),
        )
        state = make_state(names=("a", "b", "c"), init=CoefficientVector({}),
                           history=history)
        target = assemble_target(state, ("a", "b", "c"))
        assert dict(target.values) == {"a": 1.5, "b": 2.0, "c": 0.0}

    def test_coordinate_unobserved_in_latest_batch_keeps_older_value(self):
        """A covariate missing from the newest estimate falls back through
        history, not to the fallback."""
        history = (
            UpdateRecord(t=1, lam=1.0, estimate=CoefficientVector({"a": 1.0, "b": 3.0})),
            UpdateRecord(t=2, lam=1.0, estimate=CoefficientVector({"a": 2.0})),
        )
        state = make_state(names=("a", "b"), init=CoefficientVector({}),
                           history=history)
        target = assemble_target(state, ("a", "b"))
        assert dict(target.values) == {"a": 2.0, "b": 3.0}

    def test_default_fallback_is_initial_target_then_zero(self):
        state = make_state(names=("a", "b"), init=CoefficientVector({"a": 9.0}))
        target = assemble_target(state, ("a", "b"))
        assert dict(target.values) == {"a": 9.0, "b": 0.0}

    def test_assembly_is_idempotent(self):
        history = (
            UpdateRecord(t=1, lam=0.5, estimate=CoefficientVector({"a": 1.0, "b": 3.0})),
            UpdateRecord(t=2, lam=0.5, estimate=CoefficientVector({"a": 2.0})),
        )
        state = make_state(names=("a", "b"), history=history)
        first = assemble_target(state, ("a", "b"))
        second = assemble_target(state, ("a", "b"))
        assert dict(first.values) == dict(second.values)

    def test_plain_vector_source_with_constant_fallback(self):
        vec = CoefficientVector({"a": 4.0})
        target = assemble_target(vec, ("a", "b"))
        assert dict(target.values) == {"a": 4.0, "b": 0.0}


class TestMixtureTarget:
    def test_single_target_returned_exactly(self):
        spec = TargetSpec(targets=(CoefficientVector({"a": 2.0}),), weights=(1.0,))
        assert dict(mixture_target(spec).values) == {"a": 2.0}

    def test_equal_weights_give_midpoint(self):
        spec = TargetSpec(targets=(CoefficientVector({"a": 0.0}),
                                   CoefficientVector({"a": 4.0})),
                          weights=(0.5, 0.5))
        assert dict(mixture_target(spec).values) == {"a": 2.0}

    def test_convex_combination_coordinate_wise(self):
        spec = TargetSpec(targets=(CoefficientVector({"a": 1.0, "b": 0.0}),
                                   CoefficientVector({"a": 0.0, "b": 1.0})))
        mixed = mixture_target(spec, weights=(0.25, 0.75))
        assert dict(mixed.values) == {"a": 0.25, "b": 0.75}

    def test_degenerate_weight_returns_that_target(self):
        targets = (CoefficientVector({"a": 1.25, "b": -0.5}),
                   CoefficientVector({"a": 7.0, "b": 3.0}))
        mixed = mixture_target(TargetSpec(targets=targets), weights=(1.0, 0.0))
        assert dict(mixed.values) == dict(targets[0].values)

    def test_weights_are_required_somewhere(self):
        spec = TargetSpec(targets=(CoefficientVector({"a": 1.0}),))
        with pytest.raises(ValidationError):
            mixture_target(spec)


class TestEstimatorState:
    def test_current_is_init_target_before_updates(self):
        init = CoefficientVector({"a": 1.0, "b": 2.0})
        state = make_state(init=init)
        assert state.t == 0
        assert state.current is init

    def test_current_tracks_last_history_record(self):
        history = (
            UpdateRecord(t=1, lam=1.0, estimate=CoefficientVector({"a": 1.0})),
            UpdateRecord(t=2, lam=1.0, estimate=CoefficientVector({"a": 2.0})),
        )
        state = make_state(history=history)
        assert state.t == 2
        assert dict(state.current.values) == {"a": 2.0}

    def test_history_indices_must_be_consecutive_from_one(self):
        record = UpdateRecord(t=2, lam=1.0, estimate=CoefficientVector({"a": 1.0}))
        with pytest.raises(ValidationError):
            make_state(history=(record,))

    def test_with_update_appends_record_and_batch(self):
        state = make_state()
        batch = Batch(t=1, X=np.ones((2, 1)), y=np.ones(2), covariates=("a",))
        record = UpdateRecord(t=1, lam=0.5, estimate=CoefficientVector({"a": 1.0}))
        advanced = state.with_update(state.registry, record, batch)
        assert advanced.t == 1
        assert advanced.retained == (batch,)
        wrong = UpdateRecord(t=3, lam=0.5, estimate=CoefficientVector({"a": 1.0}))
        with pytest.raises(ValidationError):
            advanced.with_update(advanced.registry, wrong, batch)

    def test_estimates_must_stay_inside_registry(self):
        record = UpdateRecord(t=1, lam=1.0, estimate=CoefficientVector({"zz": 1.0}))
        with pytest.raises(RegistryError):
            make_state(history=(record,))

    def test_retained_batch_family_must_match(self):
        batch = Batch(t=1, X=np.ones((2, 1)), y=np.array([0.0, 1.0]),
                      covariates=("a",), family="logistic")
        with pytest.raises(ValidationError):
            make_state(family="linear", retained=(batch,))

    def test_update_record_validation(self):
        estimate = CoefficientVector({"a": 1.0})
        with pytest.raises(ValidationError):
            UpdateRecord(t=0, lam=1.0, estimate=estimate)
        with pytest.raises(ValidationError):
            UpdateRecord(t=1, lam=-0.5, estimate=estimate)
