"""Core domain types shared by the estimators, tuners, and the CLI.

The package tracks a regression model across an ordered stream of data
batches. Batches may introduce covariates that earlier batches did not
carry, so coefficient vectors are keyed by covariate *name* and a
``CovariateRegistry`` fixes the column order used whenever names have to
be laid out as a dense array. The registry is append-only: positions of
existing covariates never change once assigned, which keeps stored
estimates and serialized states comparable across updates.

Conventions used throughout:

* design matrices are ``(n, p)`` float arrays, one row per observation;
* ``family`` is ``"linear"`` or ``"logistic"``;
* batch indices ``t`` count updates from 1 (0 is reserved for data used
  only to initialize a state, before any update has happened).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import RegistryError, ValidationError

__all__ = [
    "FAMILIES",
    "CovariateRegistry",
    "Batch",
    "CoefficientVector",
    "TargetSpec",
    "UpdateRecord",
    "TriangularHistory",
    "StackedHistory",
    "PAST_FORMS",
    "EstimatorState",
    "fold_triangular",
    "fold_stacked",
    "align_batch",
    "assemble_target",
    "mixture_target",
]

FAMILIES = ("linear", "logistic")

_SIMPLEX_TOL = 1e-12


def _as_float_matrix(X: Any, name: str) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _as_float_vector(y: Any, name: str) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _check_xy(X: Any, y: Any, what: str, nonempty: bool) -> tuple[np.ndarray, np.ndarray]:
    """A finite design and response with one row per observation.

    ``what`` prefixes the array names in messages; ``nonempty`` also
    rejects zero rows.
    """
    X = _as_float_matrix(X, f"{what}X")
    y = _as_float_vector(y, f"{what}y")
    if X.shape[0] != y.shape[0]:
        raise ValidationError(f"{what}X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if nonempty and X.shape[0] == 0:
        raise ValidationError(f"{what}X and y hold no observations")
    return X, y


def _check_binary(y: np.ndarray) -> None:
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValidationError("logistic responses must be coded 0/1")


def _is_index(value: Any) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A real number that is not a bool; a string or ``np.bool_`` is not real."""
    # The plain-float test first: the ABC check is the slow part of reading a state.
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))


def _check_nonnegative(value: Any, what: str) -> float:
    """``value`` as a float that is finite and at least 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{what} must be finite and >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class CovariateRegistry:
    """Ordered, append-only collection of covariate names.

    The position of a name in ``names`` is its column index in every
    aligned design matrix and serialized coefficient layout.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        object.__setattr__(self, "names", names)
        if any(not n for n in names):
            raise RegistryError("covariate names must be non-empty strings")
        if len(set(names)) != len(names):
            raise RegistryError("covariate names must be unique")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def size(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RegistryError(f"unknown covariate {name!r}") from None

    def extended(self, names: Sequence[str]) -> "CovariateRegistry":
        """Registry with any genuinely new names appended, existing order kept."""
        new = [n for n in names if n not in self._index]
        if not new:
            return self
        return CovariateRegistry(self.names + tuple(new))


@dataclass(frozen=True)
class Batch:
    """One batch of observations.

    ``covariates`` names the columns of ``X``. For the logistic family the
    response must be strictly 0/1. Arrays are copied and frozen so a batch
    can be shared without aliasing surprises.
    """

    t: int
    X: np.ndarray
    y: np.ndarray
    covariates: tuple[str, ...]
    family: str = "linear"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not _is_index(self.t) or self.t < 0:
            raise ValidationError(f"batch index t must be a non-negative integer, got {self.t!r}")
        object.__setattr__(self, "t", int(self.t))
        X, y = _check_xy(self.X, self.y, "", nonempty=True)
        X, y = X.copy(), y.copy()
        names = tuple(str(n) for n in self.covariates)
        if len(names) != X.shape[1]:
            raise ValidationError(
                f"{len(names)} covariate names for {X.shape[1]} design columns")
        if len(set(names)) != len(names):
            raise ValidationError("batch covariate names must be unique")
        if self.family == "logistic":
            _check_binary(y)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "covariates", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class CoefficientVector:
    """Coefficients keyed by covariate name.

    Name-keyed storage is what lets estimates survive the arrival of new
    covariates: a dense layout is only produced on demand, against an
    explicit name order.
    """

    values: Mapping[str, float]

    def __post_init__(self) -> None:
        vals = {}
        for k, v in dict(self.values).items():
            k = str(k)
            if not k:
                raise ValidationError("coefficient names must be non-empty strings")
            if not _is_number(v):
                raise ValidationError(f"coefficient {k!r} is not a number: {v!r}")
            try:
                vals[k] = float(v)
            except OverflowError:  # an integer beyond the float range
                vals[k] = float("inf")
            if not math.isfinite(vals[k]):
                raise ValidationError(f"coefficient {k!r} is not finite")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __len__(self) -> int:
        return len(self.values)

    def get(self, name: str, default: float = 0.0) -> float:
        return self.values.get(name, default)

    def names(self) -> tuple[str, ...]:
        return tuple(self.values)

    def as_array(self, names: Sequence[str]) -> np.ndarray:
        """Dense layout in the order of ``names``; an absent name is an error."""
        out = np.empty(len(names))
        for i, name in enumerate(names):
            if name not in self.values:
                raise ValidationError(f"coefficient vector has no entry for {name!r}")
            out[i] = self.values[name]
        return out

    @staticmethod
    def from_array(names: Sequence[str], values: Any) -> "CoefficientVector":
        arr = _as_float_vector(values, "values")
        names = tuple(str(n) for n in names)
        if len(names) != arr.shape[0]:
            raise ValidationError(f"{len(names)} names for {arr.shape[0]} values")
        return CoefficientVector(dict(zip(names, arr.tolist())))


@dataclass(frozen=True)
class TargetSpec:
    """A set of candidate shrinkage targets with optional mixing weights.

    ``weights=None`` means the weights are to be chosen by the tuner;
    fixed weights must lie on the probability simplex.
    """

    targets: tuple[CoefficientVector, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        targets = tuple(self.targets)
        if not targets:
            raise ValidationError("a target spec needs at least one target")
        if any(not isinstance(t, CoefficientVector) for t in targets):
            raise ValidationError("targets must be CoefficientVector instances")
        keys = set(targets[0].names())
        for t in targets[1:]:
            if set(t.names()) != keys:
                raise ValidationError("all targets must share one covariate set")
        object.__setattr__(self, "targets", targets)
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            _check_simplex(w, len(targets))
            object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.targets)

    def over(self, names: Sequence[str]) -> "TargetSpec":
        """The spec with every target assembled over ``names`` (see
        ``assemble_target``: a name a target lacks gets 0)."""
        return TargetSpec(tuple(assemble_target(t, names) for t in self.targets), self.weights)


def _check_simplex(weights: Sequence[float], expected: int) -> tuple[float, ...]:
    w = tuple(float(v) for v in weights)
    if len(w) != expected:
        raise ValidationError(f"expected {expected} weights, got {len(w)}")
    if any(not np.isfinite(v) for v in w):
        raise ValidationError("weights must be finite")
    if any(v < -_SIMPLEX_TOL for v in w):
        raise ValidationError("weights must be non-negative")
    if abs(sum(w) - 1.0) > _SIMPLEX_TOL:
        raise ValidationError(f"weights must sum to 1, got {sum(w)!r}")
    return w


@dataclass(frozen=True)
class UpdateRecord:
    """Outcome of one sequential update."""

    t: int
    lam: float
    estimate: CoefficientVector
    weights: tuple[float, ...] | None = None
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _is_index(self.t):
            raise ValidationError(f"update index t must be an integer, got {self.t!r}")
        if self.t < 1:
            raise ValidationError("update indices start at 1")
        object.__setattr__(self, "t", int(self.t))
        if not _is_number(self.lam):
            raise ValidationError(f"penalty is not a number: {self.lam!r}")
        object.__setattr__(self, "lam", _check_nonnegative(self.lam, "penalty"))
        if self.weights is not None:
            weights = tuple(self.weights)
            if not all(_is_number(v) for v in weights):
                raise ValidationError(f"weights must be numbers, got {weights!r}")
            object.__setattr__(self, "weights", tuple(float(v) for v in weights))
        object.__setattr__(self, "diagnostics", dict(self.diagnostics))


@dataclass(frozen=True)
class TriangularHistory:
    """Past linear data as the upper-triangular factor of the stacked ``[X | y]``.

    ``factor`` is ``(k + 1, k + 1)``: the first k columns belong to the
    first k registry covariates, the last to the response. ``factor'
    factor`` equals ``[X | y]'[X | y]`` over the ``rows`` rows folded in,
    so the residual sum of squares of coefficients ``b`` on them is
    ``||factor @ [b; -1]||^2`` whatever the number of rows (Gentleman
    1973; Miller 1992, AS 274).
    """

    factor: np.ndarray
    rows: int

    def __post_init__(self) -> None:
        factor = _as_float_matrix(self.factor, "history factor").copy()
        if factor.shape[0] != factor.shape[1] or factor.shape[0] < 1:
            raise ValidationError(f"history factor must be square, got shape {factor.shape}")
        if np.any(np.tril(factor, -1)):
            raise ValidationError("history factor must be upper triangular")
        if not _is_index(self.rows) or self.rows < 1:
            raise ValidationError(f"history row count must be a positive integer, got {self.rows!r}")
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "rows", int(self.rows))

    @property
    def covariates(self) -> int:
        """How many leading registry covariates the factor covers."""
        return self.factor.shape[0] - 1


@dataclass(frozen=True)
class StackedHistory:
    """Past logistic data as every row, laid out over the first k registry covariates.

    No finite statistic gives the logistic log-likelihood exactly, so the
    rows themselves are kept.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X, y = _check_xy(self.X, self.y, "history ", nonempty=True)
        X, y = X.copy(), y.copy()
        _check_binary(y)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def rows(self) -> int:
        return self.y.shape[0]

    @property
    def covariates(self) -> int:
        """How many leading registry covariates the rows cover."""
        return self.X.shape[1]


def _check_fold(past, X, y) -> tuple[np.ndarray, np.ndarray]:
    X, y = _check_xy(X, y, "", nonempty=True)
    if past is not None and X.shape[1] < past.covariates:
        raise ValidationError(
            f"X has {X.shape[1]} columns but the history covers {past.covariates}; "
            "align the batch over the registry first")
    return X, y


def fold_triangular(past: TriangularHistory | None, X, y) -> TriangularHistory:
    """``past`` with the rows ``[X | y]`` folded in (``None``: no rows yet).

    ``X`` is laid out over the first p registry covariates, p at least the
    history's k. The factor first grows to p covariates: each new
    covariate adds a zero column before the response column and a zero
    row, which keeps it upper triangular and adds nothing to ``factor'
    factor``. One QR of the grown factor stacked on ``[X | y]`` then gives
    the new factor, so a fold costs O((p + n) p^2) whatever the number of
    rows already folded.
    """
    X, y = _check_fold(past, X, y)
    p = X.shape[1]
    grown = np.zeros((p + 1, p + 1))
    rows = X.shape[0]
    if past is not None:
        k, old = past.covariates, past.factor
        grown[:k, :k] = old[:k, :k]
        grown[:k, p] = old[:k, k]
        grown[p, p] = old[k, k]
        rows += past.rows
    factor = np.linalg.qr(np.vstack([grown, np.column_stack([X, y])]), mode="r")
    return TriangularHistory(factor=factor, rows=rows)


def fold_stacked(past: StackedHistory | None, X, y) -> StackedHistory:
    """``past`` with the rows of ``(X, y)`` appended (``None``: no rows yet).

    ``X`` is laid out over the first p registry covariates, p at least the
    history's k; earlier rows take zeros for the covariates they lack.
    """
    X, y = _check_fold(past, X, y)
    if past is None:
        return StackedHistory(X=X, y=y)
    old = past.X
    if X.shape[1] > old.shape[1]:
        old = np.hstack([old, np.zeros((old.shape[0], X.shape[1] - old.shape[1]))])
    return StackedHistory(X=np.vstack([old, X]), y=np.concatenate([past.y, y]))


# The form of the past data each family keeps.
PAST_FORMS = {"linear": TriangularHistory, "logistic": StackedHistory}


def _check_record(rec: UpdateRecord, t: int, registry: CovariateRegistry) -> None:
    """The history record at position ``t`` (from 1) of a state over ``registry``."""
    if rec.t != t:
        raise ValidationError(
            f"history must have consecutive indices 1..T, found t={rec.t} at position {t}")
    for name in rec.estimate.values:
        if name not in registry:
            raise RegistryError(f"estimate at t={rec.t} names unknown covariate {name!r}")


def _check_past(family: str, past: TriangularHistory | StackedHistory | None,
                registry: CovariateRegistry) -> None:
    """The past data of a ``family`` state over ``registry`` (``None``: no batch yet)."""
    if past is None:
        return
    form = PAST_FORMS[family]
    if not isinstance(past, form):
        raise ValidationError(
            f"a {family} state keeps its past data as {form.__name__}, "
            f"got {type(past).__name__}")
    if past.covariates > registry.size:
        raise RegistryError(
            f"past data covers {past.covariates} covariates, "
            f"the registry has {registry.size}")


@dataclass(frozen=True)
class EstimatorState:
    """Full description of a sequentially updated model.

    ``history`` holds one record per update, with consecutive indices
    1..T. ``past`` holds the data of every batch folded in so far, in the
    form the family's historic-fit constraint needs: a
    ``TriangularHistory`` for the linear family, whose size does not grow
    with the number of batches, and a ``StackedHistory`` of raw rows for
    the logistic one. It is ``None`` before any batch, where the
    constraint is vacuous. The current estimate is the last record's, or
    ``init_target`` before any update.
    """

    family: str
    registry: CovariateRegistry
    init_target: CoefficientVector
    init_note: str = "zeros"
    history: tuple[UpdateRecord, ...] = ()
    past: TriangularHistory | StackedHistory | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "history", tuple(self.history))
        for name in self.init_target.names():
            if name not in self.registry:
                raise RegistryError(f"init target names unknown covariate {name!r}")
        for i, rec in enumerate(self.history, start=1):
            _check_record(rec, i, self.registry)
        _check_past(self.family, self.past, self.registry)

    @property
    def t(self) -> int:
        """Number of updates applied so far."""
        return len(self.history)

    @property
    def current(self) -> CoefficientVector:
        return self.history[-1].estimate if self.history else self.init_target

    def with_update(self, registry: CovariateRegistry, record: UpdateRecord,
                    past: TriangularHistory | StackedHistory) -> "EstimatorState":
        """State after one more update, with ``past`` its batch folded in.

        The checks cost the same whatever the history length: the old
        records already passed against a registry that ``registry`` still
        holds, so only the new record and ``past`` are checked. A registry
        that drops an old name takes the full check of every record.
        """
        if not all(name in registry for name in self.registry.names):
            return replace(self, registry=registry, history=self.history + (record,),
                           past=past)
        _check_record(record, self.t + 1, registry)
        _check_past(self.family, past, registry)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, registry=registry,
                            history=self.history + (record,), past=past)
        return new


def align_batch(batch: Batch, registry: CovariateRegistry) -> np.ndarray:
    """Design matrix of ``batch`` laid out over the registry's columns.

    Registry covariates the batch does not carry become zero columns, so a
    coefficient vector over the registry applies to any aligned batch. A
    batch covariate missing from the registry is an error: extend the
    registry first.
    """
    for name in batch.covariates:
        if name not in registry:
            raise RegistryError(
                f"batch covariate {name!r} is not in the registry; extend it first")
    out = np.zeros((batch.n, registry.size))
    for j, name in enumerate(batch.covariates):
        out[:, registry.index_of(name)] = batch.X[:, j]
    return out


def assemble_target(source: "EstimatorState | CoefficientVector",
                    names: Sequence[str]) -> CoefficientVector:
    """Shrinkage target over ``names``, assembled element-wise.

    For an :class:`EstimatorState` source each covariate takes its value
    from the most recent history estimate that contains it, so covariates
    observed only in older batches keep their last known coefficient.
    Covariates no history entry covers take the state's initial target,
    else 0. The initial target backstop is what makes a state initialized
    from a sacrificed first batch shrink its first update toward that fit.

    A bare :class:`CoefficientVector` source is used as-is, and names it
    lacks get 0.

    The records are walked newest-first and the walk stops once every name
    has a value, so a target over the newest estimate's names reads one
    record whatever the history length.
    """
    names = [str(raw) for raw in names]
    if isinstance(source, EstimatorState):
        layers = (rec.estimate.values for rec in reversed(source.history))
        backstop = source.init_target.values
    elif isinstance(source, CoefficientVector):
        layers, backstop = (), source.values
    else:
        raise ValidationError("source must be an EstimatorState or CoefficientVector")
    found: dict[str, float] = {}
    missing = set(names)
    for values in layers:
        if not missing:
            break
        for name in [n for n in missing if n in values]:
            found[name] = values[name]
            missing.discard(name)
    for name in missing:
        found[name] = backstop.get(name, 0.0)
    return CoefficientVector({name: found[name] for name in names})


def mixture_target(spec: TargetSpec, weights: Sequence[float] | None = None) -> CoefficientVector:
    """Convex combination of the spec's targets.

    Explicit ``weights`` override weights stored on the spec; one of the
    two must be present and lie on the simplex.
    """
    if weights is None:
        if spec.weights is None:
            raise ValidationError("no weights: neither stored on the spec nor passed")
        w = spec.weights
    else:
        w = _check_simplex(weights, spec.size)
    names = spec.targets[0].names()
    mixed = {name: sum(wg * t[name] for wg, t in zip(w, spec.targets)) for name in names}
    return CoefficientVector(mixed)
