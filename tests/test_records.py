"""The package's records: plain classes that behave as frozen dataclasses did,
except that a record holding an ndarray compares it by value where a
frozen dataclass raises.

Every record, ``ScenarioConfig`` included, derives from
``model_core._Record``; no module of the package defines a dataclass.
"""

import ast
import dataclasses
import os

import numpy as np
import pytest

from ridge_relay import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    MixedFit,
    PenaltySearchConfig,
    ScenarioConfig,
    TrajectoryResult,
    UpdateRecord,
    exact_moments_orthonormal,
    fold_stacked,
    fold_triangular,
    irls_fit,
    make_folds,
    select_penalty,
    stack_batches,
    start_state,
)

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "ridge_relay")


def dataclass_classes(source):
    """Names of the classes a ``dataclass`` decorator builds in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "dataclass":
                found.append(node.name)
    return found


def test_dataclass_classes_are_found():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass A: pass\n@dataclass(frozen=True)\nclass B: pass\n"
              "@dataclasses.dataclass(eq=False)\nclass C: pass\nclass D: pass\n")
    assert dataclass_classes(source) == ["A", "B", "C"]


def test_no_class_in_the_package_is_a_dataclass():
    found = []
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
                found += dataclass_classes(fh.read())
    assert found == []


TWINS = {}


def twin(record):
    """A frozen dataclass with the record's class name and fields, holding its values."""
    cls = type(record)
    if cls not in TWINS:
        TWINS[cls] = dataclasses.make_dataclass(cls.__qualname__, cls._fields, frozen=True)
    return TWINS[cls](*(getattr(record, name) for name in cls._fields))


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


RECORDS = {
    "registry": (lambda: CovariateRegistry(("a", "b")), lambda: CovariateRegistry(("b", "a"))),
    "coefficients": (lambda: CoefficientVector({"a": 1.0, "b": -2.5}),
                     lambda: CoefficientVector({"a": 1.0, "b": 2.5})),
    "update-record": (lambda: UpdateRecord(2, 0.5, CoefficientVector({"a": 1.0}), (0.25, 0.75),
                                           {"n_feasible": 3}),
                      lambda: UpdateRecord(t=2, lam=0.5, estimate=CoefficientVector({"a": 1.0}))),
    "search-config": (lambda: PenaltySearchConfig(k_folds=3, grid=(0.5, 5.0), seed=4),
                      lambda: PenaltySearchConfig(k_folds=None, grid=(0.5, 5.0), seed=4)),
    "scenario": (lambda: ScenarioConfig(p=3, n=6, beta_rule=(0.5, -0.5, 1.0), tracked=(1, 3)),
                 lambda: ScenarioConfig(p=3, n=6, beta_rule=(0.5, -0.5, 1.0))),
}


@pytest.mark.parametrize("case", sorted(RECORDS))
class TestRecordSemantics:
    def test_assignment_and_deletion_raise(self, case):
        record = RECORDS[case][0]()
        name = type(record)._fields[0]
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot assign"):
            record.extra = 1
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
        assert getattr(record, name) == getattr(RECORDS[case][0](), name)

    def test_repr_equality_and_hash_as_a_frozen_dataclass(self, case):
        make, make_other = RECORDS[case]
        a, b, other = make(), make(), make_other()
        assert repr(a) == repr(twin(a))
        assert (a == b, a == other, a != other) == (twin(a) == twin(b),
                                                     twin(a) == twin(other),
                                                     twin(a) != twin(other)) == (True, False, True)
        assert a != twin(a) and a != object()
        assert hash_or_error(a) == hash_or_error(twin(a))
        if not isinstance(hash_or_error(a), type):
            assert hash(a) == hash(b)


X = np.random.default_rng(0).standard_normal((8, 2))
Y_LINEAR = X @ np.array([1.0, -1.0]) + np.linspace(-0.2, 0.2, 8)
Y_BINARY = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])


def batch(y=Y_LINEAR, t=1):
    return Batch(t=t, X=X, y=y, covariates=("a", "b"))


def trajectories(lambdas):
    return TrajectoryResult("updated", np.arange(1, 3), (1,), np.zeros((1, 2, 1)),
                            np.zeros((1, 2)), np.array([lambdas]))


def selection(grid):
    return select_penalty(start_state("linear", ("a", "b")), batch(),
                          PenaltySearchConfig(k_folds=2, grid=grid, seed=0))


# name -> (build a record that holds an ndarray, build one whose arrays differ)
ARRAY_RECORDS = {
    "Batch": (batch, lambda: batch(Y_LINEAR + 1.0)),
    "FoldPlan": (lambda: make_folds(n=8, k=2, seed=0), lambda: make_folds(n=8, k=4, seed=0)),
    "TriangularHistory": (lambda: fold_triangular(None, X, Y_LINEAR),
                          lambda: fold_triangular(None, X, Y_LINEAR + 1.0)),
    "StackedHistory": (lambda: fold_stacked(None, X, Y_BINARY),
                       lambda: fold_stacked(None, X, 1.0 - Y_BINARY)),
    "SelectionReport": (lambda: selection((0.5, 5.0)), lambda: selection((0.5, 50.0))),
    "LogisticFit": (lambda: irls_fit(X, Y_BINARY, 1.0, np.zeros(2)),
                    lambda: irls_fit(X, 1.0 - Y_BINARY, 1.0, np.zeros(2))),
    "MomentReport": (lambda: exact_moments_orthonormal(np.ones(2), np.zeros(2), 1.0, 2, 1.0),
                     lambda: exact_moments_orthonormal(np.ones(2), np.ones(2), 1.0, 2, 1.0)),
    "StackedData": (lambda: stack_batches([batch(), batch(t=2)]),
                    lambda: stack_batches([batch(), batch(Y_LINEAR + 1.0, t=2)])),
    "MixedFit": (lambda: MixedFit(np.array([1.0, np.nan]), 0.5, 1.0, 0.5, -3.0),
                 lambda: MixedFit(np.array([1.0, 2.0]), 0.5, 1.0, 0.5, -3.0)),
    "TrajectoryResult": (lambda: trajectories([np.nan, 0.5]),
                         lambda: trajectories([np.nan, 0.25])),
}


@pytest.mark.parametrize("case", sorted(ARRAY_RECORDS))
def test_records_that_hold_arrays_compare_by_value(case):
    """``==`` compares an ndarray field by its entries, NaN equal to NaN,
    where a frozen dataclass raises; ``hash`` still raises TypeError."""
    make, make_other = ARRAY_RECORDS[case]
    a, b, other = make(), make(), make_other()
    assert any(isinstance(getattr(a, name), np.ndarray) for name in type(a)._fields)
    assert (a == b, a != b, a == other, a != other) == (True, False, False, True)
    with pytest.raises(TypeError):
        hash(a)


def test_defaults_are_fresh():
    """A defaulted diagnostics dict belongs to its record alone."""
    estimate = CoefficientVector({"a": 1.0})
    first, second = UpdateRecord(1, 1.0, estimate), UpdateRecord(1, 1.0, estimate)
    assert first.diagnostics == {} and first.diagnostics is not second.diagnostics
    assert PenaltySearchConfig().grid == PenaltySearchConfig(grid=None).grid
    assert len(PenaltySearchConfig().grid) == 50 and np.isclose(PenaltySearchConfig().grid[0], 1e-4)
