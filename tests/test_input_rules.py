"""Every public entry point rejects each malformed input it takes.

The package states what a valid design/response pair, a 0/1 response, an
index (an integer, not a bool) and a number are. Fold counts, fold
seeds, grid sizes and moment step counts are indices; a grid size must
also stay within the element cap. Every fit shrinks toward one target: a
1-D array of p numbers, one per design column.

One rule says what a number is, and ``model_core._real_array`` holds it
for a single number and an array alike: a NumPy dtype of integer or
float kind, so not bool, string or object, and finite entries. NumPy
gives an integer that fits no 64-bit type (``2**70``, ``10**400``) and
a ``Fraction`` the object dtype, so they are refused; a list or tuple
that holds a bool at any depth is refused too, although NumPy would
convert it to floats, and so is a ragged list, which NumPy cannot
convert at all. Some inputs add a bound of >= 0 or > 0. Every
penalty, variance ratio, noise variance and grid bound is such a number
(``_check_real``, the 0-d case). Every sequence of numbers is such an
array, 1-D, with its bound checked on the whole array: a penalty or
ratio grid, the penalties of ``exact_moments_general``, a stored
update's weights and the coefficients of a ``CoefficientVector``.

One rule says what a list of names is, and ``model_core._as_names``
holds it: not a bare string, each entry converted with ``str``, and the
names non-empty and unique after conversion. Every registry, batch,
coefficient vector and start of a chain follows it.

These tables feed each malformed input to every public entry point that
takes it and assert the error class, so a check that one caller drops
fails here whatever module the check lives in.

Each input is judged once, where it enters. The package's own calls run
the solvers' bodies, which take checked float arrays, so a selection
judges no array again and an update judges only its penalty and the
estimate it records. The pooled baseline keeps each checked batch as its
block spectrum, so a refit judges nothing, and a target assembled over a
grown registry is built from checked records (the ``_real_array`` counts
at the end).

The oracles the tests hold the solvers to live beside the tests: the
scalar reference IRLS with its objective and gradient
(``irls_reference.py``) and the residual variance of a linear fit
(``test_linear_estimator.py``). They take the same inputs under the same
rules, so the tables feed them too: a comparison with an oracle cannot
pass on an input the package would refuse.
"""

import importlib
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import ridge_relay
import ridge_relay.cli_io as cio
from ridge_relay import baselines, model_core
from ridge_relay import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    PenaltySearchConfig,
    RegistryError,
    ScenarioConfig,
    StackedData,
    StackedHistory,
    StateFileError,
    UpdateRecord,
    ValidationError,
    assemble_target,
    cv_score,
    default_grid,
    default_xi_grid,
    estimate_xi,
    exact_moments_general,
    exact_moments_orthonormal,
    fit_targeted_ridge,
    fit_targeted_ridge_grid,
    fold_stacked,
    fold_triangular,
    get_family,
    irls_fit,
    irls_fit_grid,
    loo_ridge_grid,
    make_folds,
    mixed_fixed_effects,
    mixed_moments,
    plain_ridge,
    run_study_mixed_vs_updated,
    select_penalty,
    stack_batches,
    start_state,
    update,
    update_logistic,
)
from irls_reference import (
    estimating_equation,
    logistic_loglik,
    penalized_loglik,
    reference_irls_fit,
)
from test_linear_estimator import estimate_noise_variance

RNG = np.random.default_rng(0)
X = RNG.standard_normal((6, 2))
Y = {"linear": X @ np.array([1.0, -1.0]) + 0.1 * RNG.standard_normal(6),
     "logistic": np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])}
ZERO = np.zeros(2)
NAMES = ("a", "b")


def with_entry(arr, value):
    out = np.array(arr, dtype=float)
    out.flat[0] = value
    return out


def with_list_entry(arr, value):
    """``arr`` as nested lists with its first entry ``value``."""
    out = np.asarray(arr).tolist()
    row = out if np.ndim(arr) == 1 else out[0]
    row[0] = value
    return out


# name -> a function of the well-formed (X, y) giving the malformed pair
BAD_DESIGNS = {
    "1-D X": lambda X, y: (X[:, 0], y),
    "NaN in X": lambda X, y: (with_entry(X, np.nan), y),
    "inf in X": lambda X, y: (with_entry(X, np.inf), y),
    "strings in X": lambda X, y: (X.astype(str), y),
    "bools in X": lambda X, y: (X > 0, y),
    "10**400 in X": lambda X, y: (with_list_entry(X, 10 ** 400), y),
}
BAD_RESPONSES = {
    "2-D y": lambda X, y: (X, y[:, None]),
    "NaN in y": lambda X, y: (X, with_entry(y, np.nan)),
    "inf in y": lambda X, y: (X, with_entry(y, -np.inf)),
    "row mismatch": lambda X, y: (X, y[:-1]),
    "strings in y": lambda X, y: (X, y.astype(str)),
    "bools in y": lambda X, y: (X, y > 0.5),
    "10**400 in y": lambda X, y: (X, with_list_entry(y, 10 ** 400)),
}
NOT_BINARY = {"a 2 in the response": lambda X, y: (X, with_entry(y, 2.0))}


def linear_coef():
    return fit_targeted_ridge(X, Y["linear"], 1.0, ZERO)


def state(family):
    return EstimatorState(family=family, registry=CovariateRegistry(NAMES),
                          init_target=CoefficientVector({n: 0.0 for n in NAMES}))


# name -> (family of the good response, call(X, y), takes a response)
DATA_ENTRIES = {
    "Batch": ("linear", lambda X, y: Batch(t=1, X=X, y=y, covariates=NAMES), True),
    "Batch(logistic)": ("logistic", lambda X, y: Batch(t=1, X=X, y=y, covariates=NAMES,
                                                       family="logistic"), True),
    "StackedHistory": ("logistic", lambda X, y: StackedHistory(X=X, y=y), True),
    "fold_triangular": ("linear", lambda X, y: fold_triangular(None, X, y), True),
    "fold_stacked": ("logistic", lambda X, y: fold_stacked(None, X, y), True),
    "fit_targeted_ridge": ("linear", lambda X, y: fit_targeted_ridge(X, y, 1.0, ZERO), True),
    "fit_targeted_ridge_grid": ("linear", lambda X, y: fit_targeted_ridge_grid(
        X, y, [1.0], ZERO), True),
    "loo_ridge_grid": ("linear", lambda X, y: loo_ridge_grid(X, y, [1.0], ZERO), True),
    "plain_ridge": ("linear", lambda X, y: plain_ridge(X, y, 1.0), True),
    "estimate_noise_variance": ("linear", lambda X, y: estimate_noise_variance(
        X, y, linear_coef(), 1.0), True),
    "irls_fit": ("logistic", lambda X, y: irls_fit(X, y, 1.0, ZERO), True),
    "irls_fit_grid": ("logistic", lambda X, y: irls_fit_grid(X, y, [1.0], ZERO), True),
    "reference_irls_fit": ("logistic", lambda X, y: reference_irls_fit(X, y, 1.0, ZERO), True),
    "logistic_loglik": ("logistic", lambda X, y: logistic_loglik(X, y, ZERO), True),
    "penalized_loglik": ("logistic", lambda X, y: penalized_loglik(X, y, ZERO, 1.0, ZERO),
                         True),
    "estimating_equation": ("logistic", lambda X, y: estimating_equation(
        X, y, ZERO, 1.0, ZERO), True),
    "exact_moments_general": ("linear", lambda X, y: exact_moments_general(
        [X], [1.0], ZERO, ZERO, 1.0), False),
}


def data_cases():
    for entry, (family, call, takes_response) in DATA_ENTRIES.items():
        bad = dict(BAD_DESIGNS)
        if takes_response:
            bad.update(BAD_RESPONSES)
            if family == "logistic":
                bad.update(NOT_BINARY)
        for name, spoil in bad.items():
            yield pytest.param(family, call, spoil, id=f"{entry}-{name}")


def stacked():
    return stack_batches([Batch(t=t, X=X, y=Y["linear"], covariates=NAMES) for t in (1, 2)])


def one_batch(family):
    return Batch(t=1, X=X, y=Y[family], covariates=NAMES, family=family)


# name -> call(v) for a scalar v that must be finite and >= 0 (a penalty
# that must be > 0 rejects these too)
PENALTY_ENTRIES = {
    "UpdateRecord": lambda v: UpdateRecord(t=1, lam=v, estimate=CoefficientVector({"a": 0.0})),
    "fit_targeted_ridge": lambda v: fit_targeted_ridge(X, Y["linear"], v, ZERO),
    "fit_targeted_ridge_grid": lambda v: fit_targeted_ridge_grid(X, Y["linear"], [v], ZERO),
    "loo_ridge_grid": lambda v: loo_ridge_grid(X, Y["linear"], [v], ZERO),
    "plain_ridge": lambda v: plain_ridge(X, Y["linear"], v),
    "irls_fit": lambda v: irls_fit(X, Y["logistic"], v, ZERO),
    "irls_fit_grid": lambda v: irls_fit_grid(X, Y["logistic"], [v], ZERO),
    "reference_irls_fit": lambda v: reference_irls_fit(X, Y["logistic"], v, ZERO),
    "estimating_equation": lambda v: estimating_equation(X, Y["logistic"], ZERO, v, ZERO),
    "penalized_loglik": lambda v: penalized_loglik(X, Y["logistic"], ZERO, v, ZERO),
    "exact_moments_orthonormal": lambda v: exact_moments_orthonormal(ZERO, ZERO, v, 1, 1.0),
    "exact_moments_general": lambda v: exact_moments_general([X], [v], ZERO, ZERO, 1.0),
    "update": lambda v: update(state("linear"), one_batch("linear"), v),
    "update_logistic": lambda v: update_logistic(state("logistic"), one_batch("logistic"), v),
}
RATIO_ENTRIES = {
    "estimate_xi": lambda v: estimate_xi(stacked(), grid=[v]),
    "mixed_fixed_effects": lambda v: mixed_fixed_effects(stacked(), v),
    "mixed_moments": lambda v: mixed_moments(stacked(), v, 1.0, 1.0, ZERO),
}
NOISE_ENTRIES = {
    "exact_moments_orthonormal": lambda v: exact_moments_orthonormal(ZERO, ZERO, 1.0, 1, v),
    "exact_moments_general": lambda v: exact_moments_general([X], [1.0], ZERO, ZERO, v),
    "mixed_moments": lambda v: mixed_moments(stacked(), 1.0, v, 1.0, ZERO),
    "mixed_moments(deviation)": lambda v: mixed_moments(stacked(), 1.0, 1.0, v, ZERO),
}


# name -> call(v) for one entry v of a penalty or ratio grid
GRID_ENTRIES = {
    "PenaltySearchConfig": lambda v: PenaltySearchConfig(grid=[0.5, v]),
    "default_grid(min)": lambda v: default_grid(v, 1e6, 3),
    "default_grid(max)": lambda v: default_grid(1e-4, v, 3),
    "fit_targeted_ridge_grid": lambda v: fit_targeted_ridge_grid(X, Y["linear"], [0.5, v],
                                                                 ZERO),
    "loo_ridge_grid": lambda v: loo_ridge_grid(X, Y["linear"], [0.5, v], ZERO),
    "irls_fit_grid": lambda v: irls_fit_grid(X, Y["logistic"], [0.5, v], ZERO),
    "estimate_xi": lambda v: estimate_xi(stacked(), grid=[0.5, v]),
}


# name -> call(v) for a value v that must be a real number, with no bound
NUMBER_ENTRIES = {
    "CoefficientVector": lambda v: CoefficientVector({"a": v}),
    "UpdateRecord weights": lambda v: UpdateRecord(
        t=1, lam=1.0, estimate=CoefficientVector({"a": 0.0}), weights=(v,)),
}


# (label, value): values below a bound of >= 0, or not finite
OUT_OF_RANGE = tuple((str(v), v) for v in (-1.0, np.nan, np.inf))
NOT_FINITE = tuple((str(v), v) for v in (np.nan, np.inf, -np.inf))
# values that are not real numbers, whatever the bound
NOT_REAL = (("'1.5'", "1.5"), ("True", True), ("np.True_", np.True_), ("10**400", 10 ** 400),
            ("2**70", 2 ** 70), ("Fraction(1, 2)", Fraction(1, 2)))


def scalar_cases():
    for kind, entries, values in (
            ("penalty", PENALTY_ENTRIES, OUT_OF_RANGE + NOT_REAL),
            ("ratio", RATIO_ENTRIES, OUT_OF_RANGE + NOT_REAL),
            ("noise variance", NOISE_ENTRIES, OUT_OF_RANGE + NOT_REAL),
            ("grid value", GRID_ENTRIES, OUT_OF_RANGE + NOT_REAL),
            ("number", NUMBER_ENTRIES, NOT_FINITE + NOT_REAL)):
        for entry, call in entries.items():
            for label, value in values:
                yield pytest.param(call, value, id=f"{entry}-{kind} {label}")


@pytest.mark.parametrize("family, call, spoil", data_cases())
def test_malformed_data_is_rejected(family, call, spoil):
    call(X, Y[family])  # the well-formed pair is accepted
    with pytest.raises(ValidationError):
        call(*spoil(X, Y[family]))


# name -> call(target) of a fit that shrinks toward one target vector
TARGET_ENTRIES = {
    "fit_targeted_ridge": lambda t: fit_targeted_ridge(X, Y["linear"], 1.0, t),
    "fit_targeted_ridge_grid": lambda t: fit_targeted_ridge_grid(X, Y["linear"], [1.0], t),
    "loo_ridge_grid": lambda t: loo_ridge_grid(X, Y["linear"], [1.0], t),
    "irls_fit": lambda t: irls_fit(X, Y["logistic"], 1.0, t),
    "irls_fit_grid": lambda t: irls_fit_grid(X, Y["logistic"], [1.0], t),
    "reference_irls_fit": lambda t: reference_irls_fit(X, Y["logistic"], 1.0, t),
    "penalized_loglik": lambda t: penalized_loglik(X, Y["logistic"], ZERO, 1.0, t),
    "estimating_equation": lambda t: estimating_equation(X, Y["logistic"], ZERO, 1.0, t),
}
# name -> a target that is not one vector of p real numbers; a (p, 1)
# column of targets is refused, not read as a one-target mixture
BAD_TARGETS = {
    "(p, 1) column": ZERO[:, None],
    "too short": ZERO[:1],
    "NaN entry": with_entry(ZERO, np.nan),
    "inf entry": with_entry(ZERO, np.inf),
    "strings": ZERO.astype(str),
    "bools": ZERO > 0,
    "10**400 entry": with_list_entry(ZERO, 10 ** 400),
}


def target_cases():
    for entry, call in TARGET_ENTRIES.items():
        for label, target in BAD_TARGETS.items():
            yield pytest.param(call, target, id=f"{entry}-{label}")


@pytest.mark.parametrize("call, target", target_cases())
def test_a_target_that_is_not_one_real_vector_is_rejected(call, target):
    call(ZERO)  # one vector of p finite numbers is accepted
    with pytest.raises(ValidationError):
        call(target)


@pytest.mark.parametrize("call, value", scalar_cases())
def test_negative_or_non_finite_scalars_are_rejected(call, value):
    call(1.0)  # a finite positive value is accepted
    with pytest.raises(ValidationError):
        call(value)


# name -> (record field, malformed value) of a stored update record; an
# index must be an integer that is not a bool, a number real but not a
# bool or a string
BAD_RECORD_FIELDS = {
    "t 2.7": ("t", 2.7),
    "t '2'": ("t", "2"),
    "t true": ("t", True),
    "lam true": ("lam", True),
    "lam '1.5'": ("lam", "1.5"),
    "lam 10**400": ("lam", 10 ** 400),
    "coefficient true": ("estimate", {"a": True}),
    "coefficient '1.5'": ("estimate", {"a": "1.5"}),
    "weight true": ("weights", [True, 0.0]),
    "weight nan": ("weights", [float("nan"), 0.0]),
}
GOOD_RECORD = {"t": 1, "lam": 1.5, "estimate": {"a": 0.5}, "weights": [0.25, 0.75]}


def record_document(**fields):
    """A linear state document whose one history record has ``fields``."""
    record = UpdateRecord(t=1, lam=1.5, estimate=CoefficientVector({"a": 0.5}),
                          weights=(0.25, 0.75))
    doc = cio.state_to_doc(EstimatorState(
        family="linear", registry=CovariateRegistry(NAMES),
        init_target=CoefficientVector({n: 0.0 for n in NAMES}), history=(record,)))
    doc["history"][0].update(fields)
    return doc


@pytest.mark.parametrize("field, value", BAD_RECORD_FIELDS.values(), ids=list(BAD_RECORD_FIELDS))
def test_malformed_record_fields_are_rejected(field, value):
    def build(fields):
        return UpdateRecord(**{**fields, "estimate": CoefficientVector(fields["estimate"])})

    build(GOOD_RECORD)
    with pytest.raises(ValidationError):
        build({**GOOD_RECORD, field: value})
    cio.doc_to_state(record_document())  # the well-formed document reads
    with pytest.raises(StateFileError):
        cio.doc_to_state(record_document(**{field: value}))


def moments_after(steps):
    return exact_moments_orthonormal(ZERO, ZERO, 1.0, steps, 1.0)


# name -> (call, well-formed arguments, malformed arguments) of a selection
# or moment input: an index that is not an integer (or is a bool, or is too
# small), or a bound that is not finite
BAD_SELECTION_INPUTS = {
    "PenaltySearchConfig seed 1.5": (PenaltySearchConfig, {"seed": 1}, {"seed": 1.5}),
    "PenaltySearchConfig seed true": (PenaltySearchConfig, {"seed": 1}, {"seed": True}),
    "PenaltySearchConfig k_folds 2.5": (PenaltySearchConfig, {"k_folds": 3},
                                        {"k_folds": 2.5}),
    "PenaltySearchConfig k_folds '3'": (PenaltySearchConfig, {"k_folds": 3},
                                        {"k_folds": "3"}),
    "PenaltySearchConfig constrained 'no'": (PenaltySearchConfig, {"constrained": False},
                                             {"constrained": "no"}),
    "PenaltySearchConfig constrained None": (PenaltySearchConfig, {"constrained": False},
                                             {"constrained": None}),
    "PenaltySearchConfig constrained 1": (PenaltySearchConfig, {"constrained": True},
                                          {"constrained": 1}),
    "make_folds k 2.5": (make_folds, {"n": 10, "k": 2, "seed": 0},
                         {"n": 10, "k": 2.5, "seed": 0}),
    "make_folds seed -1": (make_folds, {"n": 10, "k": 2, "seed": 0},
                           {"n": 10, "k": 2, "seed": -1}),
    "make_folds seed 1.5": (make_folds, {"n": 10, "k": 2, "seed": 0},
                            {"n": 10, "k": 2, "seed": 1.5}),
    "make_folds seed true": (make_folds, {"n": 10, "k": 2, "seed": 0},
                             {"n": 10, "k": 2, "seed": True}),
    "default_grid points 2.5": (default_grid, {"points": 3}, {"points": 2.5}),
    "default_grid points true": (default_grid, {"points": 3}, {"points": True}),
    "default_grid max inf": (default_grid, {"grid_max": 1e6, "points": 3},
                             {"grid_max": np.inf, "points": 3}),
    "default_grid min nan": (default_grid, {"grid_min": 1e-4}, {"grid_min": np.nan}),
    "default_grid points 10**20": (default_grid, {"points": 3}, {"points": 10 ** 20}),
    "default_xi_grid points -1": (default_xi_grid, {"points": 3}, {"points": -1}),
    "default_xi_grid points 10**20": (default_xi_grid, {"points": 3}, {"points": 10 ** 20}),
    "default_xi_grid points 2.5": (default_xi_grid, {"points": 3}, {"points": 2.5}),
    "exact_moments_orthonormal steps 2.5": (moments_after, {"steps": 2}, {"steps": 2.5}),
    "exact_moments_orthonormal steps true": (moments_after, {"steps": 2}, {"steps": True}),
}


@pytest.mark.parametrize("call, good, bad", BAD_SELECTION_INPUTS.values(),
                         ids=list(BAD_SELECTION_INPUTS))
def test_malformed_selection_inputs_are_rejected(call, good, bad):
    call(**good)
    with pytest.raises(ValidationError):
        call(**bad)


# well-formed arguments of the array entry points below, but for the array
LOGLIK = {"X": X, "y": Y["logistic"], "coef": ZERO, "lam": 1.0, "target": ZERO}
CV_SCORE = {"family": "linear", "batch": one_batch("linear"), "lam": 1.0,
            "folds": make_folds(n=6, k=2, seed=0)}
STACKED = {"y_stack": Y["linear"], "x_stack": X, "batch_boundaries": ((0, 3), (3, 6))}
MOMENTS = {"data": stacked(), "xi": 1.0, "sigma_eps_sq": 1.0, "sigma_gamma_sq": 1.0}

# name -> (call, well-formed arguments, malformed arguments) of an array
# that is not numbers: the array rule judges the dtype NumPy gives it
BAD_ARRAYS = {
    "Batch X '1.5' y True": (Batch, {"t": 1, "X": [[1.5]], "y": [1.0], "covariates": ("a",)},
                             {"t": 1, "X": [["1.5"]], "y": [True], "covariates": ("a",)}),
    "Batch X 10**400": (Batch, {"t": 1, "X": [[1e300]], "y": [1.0], "covariates": ("a",)},
                        {"t": 1, "X": [[10 ** 400]], "y": [1.0], "covariates": ("a",)}),
    "CoefficientVector.from_array strings": (CoefficientVector.from_array,
                                             {"names": NAMES, "values": [1.0, 2.0]},
                                             {"names": NAMES, "values": ["1.0", "2.0"]}),
    # NumPy turns these lists into floats; the bool is found in the list
    "Batch X [[1.0, True]]": (Batch, {"t": 1, "X": [[1.0, 0.0]], "y": [1.0], "covariates": NAMES},
                              {"t": 1, "X": [[1.0, True]], "y": [1.0], "covariates": NAMES}),
    "Batch y (1.0, np.True_)": (Batch, {"t": 1, "X": X[:2], "y": (1.0, 0.0), "covariates": NAMES},
                                {"t": 1, "X": X[:2], "y": (1.0, np.True_),
                                 "covariates": NAMES}),
    "penalized_loglik coef '0.5'": (penalized_loglik, LOGLIK | {"coef": [0.5, 0.5]},
                                    LOGLIK | {"coef": ["0.5", "0.5"]}),
    "penalized_loglik target [True, False]": (penalized_loglik, LOGLIK | {"target": [1.0, 0.0]},
                                              LOGLIK | {"target": [True, False]}),
    "estimating_equation target [True, False]": (
        estimating_equation, LOGLIK | {"target": [1.0, 0.0]}, LOGLIK | {"target": [True, False]}),
    "cv_score target ['0', True]": (cv_score, CV_SCORE | {"target": [0.0, 1.0]},
                                    CV_SCORE | {"target": ["0", True]}),
    "cv_score target [0, True]": (cv_score, CV_SCORE | {"target": [0.0, 1.0]},
                                  CV_SCORE | {"target": [0, True]}),
    "StackedData x_stack strings": (StackedData, STACKED | {"x_stack": X},
                                    STACKED | {"x_stack": X.astype(str)}),
    "StackedData y_stack bools": (StackedData, STACKED | {"y_stack": Y["linear"]},
                                  STACKED | {"y_stack": Y["linear"] > 0}),
    "mixed_moments coef [True, False]": (mixed_moments, MOMENTS | {"coef": [1.0, 0.0]},
                                         MOMENTS | {"coef": [True, False]}),
    # NumPy spreads a nested bool array into entries; a 0-d one stays whole
    "Batch X [bool array, list]": (
        Batch, {"t": 1, "X": [np.array([1.0, 0.0]), [1.0, 2.0]], "y": [1.0, 2.0],
                "covariates": NAMES},
        {"t": 1, "X": [np.array([True, False]), [1.0, 2.0]], "y": [1.0, 2.0],
         "covariates": NAMES}),
    "Batch y [1.0, 0-d bool array]": (
        Batch, {"t": 1, "X": X[:2], "y": [1.0, np.array(0.0)], "covariates": NAMES},
        {"t": 1, "X": X[:2], "y": [1.0, np.array(True)], "covariates": NAMES}),
    # NumPy cannot make an array of a ragged list at all
    "Batch X ragged rows": (Batch, {"t": 1, "X": [[1.0], [2.0]], "y": [1.0, 2.0],
                                    "covariates": ("a",)},
                            {"t": 1, "X": [[1.0], [1.0, 2.0]], "y": [1.0, 2.0],
                             "covariates": ("a",)}),
    "PenaltySearchConfig grid ragged": (PenaltySearchConfig, {"grid": [1.0, 2.0]},
                                        {"grid": [1.0, [2.0, 3.0]]}),
    "CoefficientVector.from_array ragged": (CoefficientVector.from_array,
                                            {"names": NAMES, "values": [1.0, 2.0]},
                                            {"names": NAMES, "values": [1.0, [2.0]]}),
    "fit_targeted_ridge lam ragged": (fit_targeted_ridge, {"X": X, "y": Y["linear"],
                                                           "lam": 1.0, "target": ZERO},
                                      {"X": X, "y": Y["linear"], "lam": [1.0, [2.0]],
                                       "target": ZERO}),
}


@pytest.mark.parametrize("call, good, bad", BAD_ARRAYS.values(), ids=list(BAD_ARRAYS))
def test_arrays_that_are_not_numbers_are_rejected(call, good, bad):
    call(**good)
    with pytest.raises(ValidationError):
        call(**bad)


# label -> a list of two names that breaks the names rule
BAD_NAMES = {
    "bare string": "ab",
    "empty name": ("a", ""),
    "duplicate": ("a", "a"),
    "duplicate after str": (1, "1"),
}
# name -> (call(names) for a list of two names, the error, the rows it
# cannot take): a mapping's keys are never one string and never repeat,
# and a ``CoefficientVector`` takes nothing but a mapping (below)
NAME_ENTRIES = {
    "CovariateRegistry": (CovariateRegistry, RegistryError, ()),
    "Batch": (lambda names: Batch(t=1, X=X, y=Y["linear"], covariates=names),
              ValidationError, ()),
    "CoefficientVector": (lambda names: CoefficientVector({n: 0.0 for n in names}),
                          ValidationError, ("bare string", "duplicate")),
    "CoefficientVector.from_array": (lambda names: CoefficientVector.from_array(
        names, [1.0, 2.0]), ValidationError, ()),
    "start_state": (lambda names: start_state("linear", names), RegistryError, ()),
}


def name_cases():
    for entry, (call, error, cannot_take) in NAME_ENTRIES.items():
        for label, names in BAD_NAMES.items():
            if label not in cannot_take:
                yield pytest.param(call, error, names, id=f"{entry}-{label}")


@pytest.mark.parametrize("call, error, names", name_cases())
def test_lists_of_names_that_break_the_names_rule_are_rejected(call, error, names):
    call(NAMES)  # two distinct non-empty names are accepted
    with pytest.raises(error):
        call(names)


@pytest.mark.parametrize("values", ["ab", [("a", 1.0), ("a", 2.0)]], ids=["string", "pairs"])
def test_coefficients_that_are_not_a_mapping_are_rejected(values):
    """Pairs could name one coefficient twice, and ``dict`` would keep the last."""
    with pytest.raises(ValidationError):
        CoefficientVector(values)


@pytest.fixture
def judged(monkeypatch):
    """The ``what`` of every ``_real_array`` call, counted at every package
    module that imports the function."""
    calls = []
    real = model_core._real_array

    def counted(values, what, *args, **kwargs):
        calls.append(what)
        return real(values, what, *args, **kwargs)

    for info in pkgutil.iter_modules(ridge_relay.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"ridge_relay.{info.name}")
            if getattr(module, "_real_array", None) is real:
                monkeypatch.setattr(module, "_real_array", counted)
    return calls


def chain_and_batch(family, p=20, n=50, updates=10):
    """A state after ``updates`` updates over p covariates, and the next batch."""
    rng = np.random.default_rng(5)
    names = tuple(f"x{j}" for j in range(p))
    fam = get_family(family)
    state = start_state(family, names)
    for t in range(1, updates + 2):
        X = rng.standard_normal((n, p))
        batch = Batch(t, X, fam.sample(rng, X @ np.full(p, 0.3), 1.0), names, family)
        if t <= updates:
            state = fam.update(state, batch, 1.0)
    return state, batch


@pytest.mark.parametrize("k_folds", [5, None], ids=["5-fold", "leave-one-out"])
@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_a_selection_judges_no_array_again(judged, family, k_folds):
    state, batch = chain_and_batch(family)
    config = PenaltySearchConfig(k_folds=k_folds, grid=default_grid(points=8))
    judged.clear()
    select_penalty(state, batch, config)
    assert judged == []


@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_an_update_judges_its_penalty_and_its_estimate_only(judged, family):
    state, batch = chain_and_batch(family)
    judged.clear()
    get_family(family).update(state, batch, 1.0)
    assert judged == ["penalty", "coefficients"]


def test_assembling_a_target_over_a_grown_registry_judges_nothing(judged):
    state, batch = chain_and_batch("linear", p=3, updates=2)
    names = state.registry.extended(batch.covariates + ("new",)).names
    judged.clear()
    target = assemble_target(state, names)
    assert judged == []
    assert target.values == {**state.current.values, "new": 0.0}


def test_a_pooled_refit_judges_nothing_and_stacks_nothing(judged, monkeypatch):
    stacked, stack = [], baselines.stack_batches
    monkeypatch.setattr(baselines, "stack_batches",
                        lambda batches: stacked.append(batches) or stack(batches))
    rng = np.random.default_rng(3)
    pooled = baselines._PooledRefit(default_xi_grid(5))
    for t in (1, 2, 3):
        pooled.add(Batch(t, rng.standard_normal((4, 2)), rng.standard_normal(4), NAMES))
    judged.clear()
    pooled.fit()
    assert judged == [] and stacked == []


def test_a_mixed_study_judges_each_batch_once(judged):
    """The criterion-06 regime A layout at seed 0 makes 133 checks: 4 of
    the scenario, 3 of the penalty grid and its bounds, 1 of each
    replicate's ratio grid, 2 per generated batch, 1 per chain's start,
    and per chain update its penalty and its estimate. No pooled refit
    adds any."""
    config = ScenarioConfig.from_dict({
        "study": "mixed-vs-updated", "family": "linear", "p": 11, "n": 25,
        "n_batches": 10, "n_replicates": 2, "noise_var": 1.0, "empty_every": 10,
        "k_folds": None, "constrained": True, "seed": 0})
    run_study_mixed_vs_updated(config)
    assert len(judged) <= 133
