"""Tests for the shared domain model: registry, batches, targets, state."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ridge_relay.model_core as model_core
from ridge_relay import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    RegistryError,
    StackedHistory,
    TriangularHistory,
    UpdateRecord,
    ValidationError,
    align_batch,
    assemble_target,
    fold_stacked,
    fold_triangular,
    start_state,
)


def make_state(family="linear", names=("a", "b"), init=None, history=(), past=None):
    registry = CovariateRegistry(tuple(names))
    if init is None:
        init = CoefficientVector({n: 0.0 for n in names})
    return EstimatorState(family=family, registry=registry, init_target=init,
                          history=tuple(history), past=past)


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


def layered_target(state, names):
    """``assemble_target`` as the walk over every layer it replaced: each
    name takes the newest record's value, else the initial target's, else 0."""
    layers = [rec.estimate for rec in reversed(state.history)] + [state.init_target]
    out = {}
    for name in names:
        out[name] = next((layer[name] for layer in layers if name in layer), 0.0)
    return out


NAME_POOL = ("a", "b", "c", "d", "e")


@st.composite
def target_cases(draw):
    """A state whose records carry drawn subsets of the names, and a query
    that may repeat names, reorder them or ask for names no layer has."""
    subsets = st.lists(st.sampled_from(NAME_POOL), unique=True)
    values = st.floats(-5, 5, allow_nan=False)
    history = tuple(
        UpdateRecord(t=t, lam=1.0, estimate=CoefficientVector(
            {n: draw(values) for n in draw(subsets)}))
        for t in range(1, draw(st.integers(0, 6)) + 1))
    init = CoefficientVector({n: draw(values) for n in draw(subsets)})
    state = make_state(names=NAME_POOL, init=init, history=history)
    query = draw(st.lists(st.sampled_from(NAME_POOL + ("z",)), max_size=8))
    return state, query


class TestAssembleTargetWalk:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(target_cases())
    def test_equals_the_walk_over_every_layer_in_the_same_key_order(self, case):
        state, query = case
        target = assemble_target(state, query)
        assert list(target.values.items()) == list(layered_target(state, query).items())

    def test_names_first_seen_in_old_records_and_names_no_record_has(self):
        history = (
            UpdateRecord(t=1, lam=1.0, estimate=CoefficientVector({"c": 3.0, "a": -1.0})),
            UpdateRecord(t=2, lam=1.0, estimate=CoefficientVector({"b": 2.0})),
            UpdateRecord(t=3, lam=1.0, estimate=CoefficientVector({"a": 1.0})),
        )
        state = make_state(names=NAME_POOL, init=CoefficientVector({"d": 4.0}),
                           history=history)
        query = ("e", "c", "a", "d", "b", "c")
        target = assemble_target(state, query)
        assert list(target.values.items()) == [
            ("e", 0.0), ("c", 3.0), ("a", 1.0), ("d", 4.0), ("b", 2.0)]
        assert target == CoefficientVector(layered_target(state, query))


def chain(T, names=("a", "b")):
    """A linear state with T records over ``names`` and two past covariates."""
    history = tuple(UpdateRecord(t=t, lam=1.0, estimate=CoefficientVector(
        {n: float(t) for n in names})) for t in range(1, T + 1))
    past = fold_triangular(None, np.ones((3, 2)), np.arange(3.0))
    return make_state(names=names, history=history, past=past)


def appended(record_t=4, estimate=None, registry=("a", "b"), past="triangular"):
    """(registry, record, past) arguments of one ``with_update`` of ``chain(3)``."""
    estimate = {"a": 0.5, "b": 1.5} if estimate is None else estimate
    X, y = np.ones((2, 2)), np.array([0.0, 1.0])
    pasts = {
        "triangular": fold_triangular(None, X, y),
        "stacked": fold_stacked(None, X, y),
        "too wide": fold_triangular(None, np.ones((2, 3)), y),
    }
    return (CovariateRegistry(registry),
            UpdateRecord(t=record_t, lam=1.0, estimate=CoefficientVector(estimate)),
            pasts[past])


# name -> (registry, record, past) of one update of chain(3) over ("a", "b")
APPENDS = {
    "valid": appended(),
    "valid, new covariate": appended(estimate={"a": 1.0, "c": 2.0}, registry=("a", "b", "c")),
    "t repeats": appended(record_t=3),
    "t skips": appended(record_t=5),
    "unknown covariate": appended(estimate={"a": 1.0, "zz": 2.0}),
    "wrong past form": appended(past="stacked"),
    "past wider than the registry": appended(past="too wide"),
}

# name -> a registry that does not keep ("a", "b", "c") first, in order
NOT_EXTENDING = {
    "reordered": ("b", "a", "c"),
    "reordered and extended": ("a", "c", "b", "d"),
    "drops a name no record uses": ("a", "b"),
    "swaps a name no record uses for a new one": ("a", "c", "d"),
    "drops a name the records use": ("b", "c", "d"),
    "drops every name": ("d",),
}


def outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return type(exc)


class TestWithUpdate:
    @pytest.mark.parametrize("registry, record, past", APPENDS.values(), ids=list(APPENDS))
    def test_accepts_and_rejects_what_the_full_constructor_does(self, registry, record, past):
        state = chain(3)
        fast = outcome(lambda: state.with_update(registry, record, past))
        full = outcome(lambda: EstimatorState(
            family=state.family, registry=registry, init_target=state.init_target,
            init_note=state.init_note, history=state.history + (record,), past=past))
        assert fast == full

    @pytest.mark.parametrize("names", NOT_EXTENDING.values(), ids=list(NOT_EXTENDING))
    def test_a_registry_that_does_not_extend_the_old_one_is_rejected(self, names):
        """The registry is append-only. A reordered one would misalign the
        past data, whose columns follow the old order, although the full
        constructor accepts it; a dropped name is refused even where no
        record or past column uses it."""
        record = UpdateRecord(t=2, lam=1.0, estimate=CoefficientVector({"a": 2.0}))
        history = (UpdateRecord(t=1, lam=1.0, estimate=CoefficientVector({"a": 1.0})),)
        past = fold_triangular(None, np.ones((2, 1)), np.ones(2))
        state = make_state(names=("a", "b", "c"), init=CoefficientVector({"a": 0.0}),
                           history=history, past=past)
        state.with_update(CovariateRegistry(("a", "b", "c", "d")), record, past)
        with pytest.raises(RegistryError):
            state.with_update(CovariateRegistry(names), record, past)

    def test_checks_only_the_added_record_whatever_the_history_length(self, monkeypatch):
        calls = []
        check = model_core._check_record

        def counted(*args):
            calls.append(args[1])
            check(*args)

        counts = {}
        for T in (5, 50):
            state = chain(T)
            registry, _, past = appended()
            record = UpdateRecord(t=T + 1, lam=1.0, estimate=CoefficientVector({"a": 1.0}))
            calls.clear()
            monkeypatch.setattr(model_core, "_check_record", counted)
            state.with_update(registry, record, past)
            monkeypatch.undo()
            counts[T] = list(calls)
        assert counts == {5: [6], 50: [51]}


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

    def test_with_update_appends_record_and_past(self):
        state = make_state()
        past = fold_triangular(None, np.ones((2, 1)), np.ones(2))
        record = UpdateRecord(t=1, lam=0.5, estimate=CoefficientVector({"a": 1.0}))
        advanced = state.with_update(state.registry, record, past)
        assert advanced.t == 1
        assert advanced.past is past
        wrong = UpdateRecord(t=3, lam=0.5, estimate=CoefficientVector({"a": 1.0}))
        with pytest.raises(ValidationError):
            advanced.with_update(advanced.registry, wrong, past)

    def test_estimates_must_stay_inside_registry(self):
        record = UpdateRecord(t=1, lam=1.0, estimate=CoefficientVector({"zz": 1.0}))
        with pytest.raises(RegistryError):
            make_state(history=(record,))

    def test_past_form_must_match_the_family(self):
        X, y = np.ones((2, 1)), np.array([0.0, 1.0])
        with pytest.raises(ValidationError):
            make_state(family="linear", past=fold_stacked(None, X, y))
        with pytest.raises(ValidationError):
            make_state(family="logistic", past=fold_triangular(None, X, y))
        with pytest.raises(RegistryError):
            make_state(names=("a",), past=fold_triangular(None, np.ones((2, 2)), y))

    def test_update_record_validation(self):
        estimate = CoefficientVector({"a": 1.0})
        with pytest.raises(ValidationError):
            UpdateRecord(t=0, lam=1.0, estimate=estimate)
        with pytest.raises(ValidationError):
            UpdateRecord(t=1, lam=-0.5, estimate=estimate)


class TestStartState:
    def test_a_fresh_state_over_the_names(self):
        state = start_state("logistic", ("b", "a"))
        assert state.registry == CovariateRegistry(("b", "a"))
        assert state.family == "logistic" and state.t == 0 and state.history == ()
        assert dict(state.current.values) == {"b": 0.0, "a": 0.0}
        assert state.init_note == "zeros" and state.past is None

    def test_a_given_target_note_and_past_are_kept(self):
        target = CoefficientVector({"a": 1.5, "b": -2.0})
        past = fold_triangular(None, np.ones((3, 2)), np.arange(3.0))
        state = start_state("linear", ("a", "b"), target, "truth", past=past)
        assert state.t == 0 and state.current is target
        assert state.init_note == "truth" and state.past is past
        assert start_state("linear", ("a", "b"), target).past is None


class TestPastData:
    def test_triangular_fold_keeps_the_stacked_cross_products(self):
        """``factor' factor`` is ``[X | y]'[X | y]`` of every folded row, with
        a zero row and column for covariates a batch arrived without."""
        rng = np.random.default_rng(3)
        X1, y1 = rng.standard_normal((4, 2)), rng.standard_normal(4)
        X2, y2 = rng.standard_normal((2, 3)), rng.standard_normal(2)
        past = fold_triangular(fold_triangular(None, X1, y1), X2, y2)
        stacked = np.vstack([np.column_stack([X1, np.zeros(4), y1]),
                             np.column_stack([X2, y2])])
        assert past.rows == 6 and past.covariates == 3
        np.testing.assert_allclose(past.factor.T @ past.factor, stacked.T @ stacked,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(np.tril(past.factor, -1), 0.0)

    def test_stacked_fold_appends_rows_and_zero_fills(self):
        X1, y1 = np.ones((2, 1)), np.array([0.0, 1.0])
        X2, y2 = np.full((1, 2), 2.0), np.array([1.0])
        past = fold_stacked(fold_stacked(None, X1, y1), X2, y2)
        np.testing.assert_array_equal(past.X, [[1.0, 0.0], [1.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(past.y, [0.0, 1.0, 1.0])
        assert past.rows == 3 and past.covariates == 2

    def test_folds_reject_batches_narrower_than_the_past(self):
        for fold in (fold_triangular, fold_stacked):
            past = fold(None, np.ones((2, 2)), np.array([0.0, 1.0]))
            with pytest.raises(ValidationError):
                fold(past, np.ones((2, 1)), np.array([0.0, 1.0]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            TriangularHistory(factor=np.ones((2, 2)), rows=3)
        with pytest.raises(ValidationError):
            TriangularHistory(factor=np.eye(2), rows=0)
        with pytest.raises(ValidationError):
            TriangularHistory(factor=np.ones((2, 3)), rows=3)
        with pytest.raises(ValidationError):
            StackedHistory(X=np.ones((2, 1)), y=np.array([0.0, 0.5]))
        with pytest.raises(ValidationError):
            StackedHistory(X=np.ones((2, 1)), y=np.array([1.0]))
