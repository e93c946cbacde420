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
import sys
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
    "start_state",
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


def _check_index(value: Any, least: int, what: str, most: int | None = None) -> None:
    """``value`` is an index (``_is_index``) of at least ``least`` and, if
    given, at most ``most``."""
    if not _is_index(value) or value < least or (most is not None and value > most):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValidationError(f"{what} must be an integer {bound}, got {value!r}")


# The largest size NumPy can give an array dimension.
_MAX_SIZE = int(np.iinfo(np.intp).max)


def _real(value: Any) -> float | None:
    """``value`` as a float if it is a real number, else ``None``: finite, and
    not a bool, a string or an ``np.bool_``. An integer past the float range
    counts as not finite, so no conversion overflows."""
    if type(value) is float:  # first: reading a state runs this for every coefficient
        return value if math.isfinite(value) else None
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    return None


def _check_real(value: Any, what: str, bound: str = "") -> float:
    """``value`` as a float if it is a real number (``_real``) within
    ``bound``, one of ``""`` (none), ``">= 0"`` and ``"> 0"``."""
    real = _real(value)
    if real is None:
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    if bound and not (real > 0 if bound == "> 0" else real >= 0):
        raise ValidationError(f"{what} must be {bound}, got {value!r}")
    return real


def _check_real_vector(values: Any, what: str, bound: str = "") -> tuple[float, ...]:
    """A 1-D sequence of real numbers, each within ``bound`` (``_check_real``;
    ``what`` names one entry), as a tuple of floats."""
    if isinstance(values, np.ndarray):
        values = values.tolist()  # entries as Python scalars: an np.bool_ as a bool
    try:
        items = tuple(values)
    except TypeError:
        raise ValidationError(f"{what} values must be a sequence, got {values!r}") from None
    return tuple([_check_real(v, what, bound) for v in items])


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields in ``_fields`` and sets each of them once,
    in its own ``__init__``, through ``self.__dict__``. Assigning or
    deleting an attribute afterwards raises ``AttributeError``, and
    ``repr``, ``==`` and ``hash`` work over the field values in
    ``_fields`` order, as a frozen dataclass's do. A plain class is built
    at import without compiling generated methods, which a frozen
    dataclass does for each class.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class CovariateRegistry(_Record):
    """Ordered, append-only collection of covariate names.

    The position of a name in ``names`` is its column index in every
    aligned design matrix and serialized coefficient layout.
    """

    _fields = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        names = tuple(str(n) for n in names)
        if any(not n for n in names):
            raise RegistryError("covariate names must be non-empty strings")
        if len(set(names)) != len(names):
            raise RegistryError("covariate names must be unique")
        self.__dict__.update(names=names, _index={n: i for i, n in enumerate(names)})

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


class Batch(_Record):
    """One batch of observations.

    ``covariates`` names the columns of ``X``. For the logistic family the
    response must be strictly 0/1. Arrays are copied and frozen so a batch
    can be shared without aliasing surprises.
    """

    _fields = ("t", "X", "y", "covariates", "family")

    def __init__(self, t: int, X: np.ndarray, y: np.ndarray, covariates: tuple[str, ...],
                 family: str = "linear") -> None:
        if family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
        _check_index(t, 0, "batch index t")
        X, y = _check_xy(X, y, "", nonempty=True)
        X, y = X.copy(), y.copy()
        names = tuple(str(n) for n in covariates)
        if len(names) != X.shape[1]:
            raise ValidationError(
                f"{len(names)} covariate names for {X.shape[1]} design columns")
        if len(set(names)) != len(names):
            raise ValidationError("batch covariate names must be unique")
        if family == "logistic":
            _check_binary(y)
        X.setflags(write=False)
        y.setflags(write=False)
        self.__dict__.update(t=int(t), X=X, y=y, covariates=names, family=family)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


class CoefficientVector(_Record):
    """Coefficients keyed by covariate name.

    Name-keyed storage is what lets estimates survive the arrival of new
    covariates: a dense layout is only produced on demand, against an
    explicit name order.
    """

    _fields = ("values",)

    def __init__(self, values: Mapping[str, float]) -> None:
        vals = {}
        for k, v in dict(values).items():
            k = str(k)
            if not k:
                raise ValidationError("coefficient names must be non-empty strings")
            real = _real(v)
            if real is None:
                raise ValidationError(f"coefficient {k!r} must be a finite number, got {v!r}")
            vals[k] = real
        self.__dict__["values"] = vals

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


class TargetSpec(_Record):
    """A set of candidate shrinkage targets with optional mixing weights.

    ``weights=None`` means the weights are to be chosen by the tuner;
    fixed weights must lie on the probability simplex.
    """

    _fields = ("targets", "weights")

    def __init__(self, targets: tuple[CoefficientVector, ...],
                 weights: tuple[float, ...] | None = None) -> None:
        targets = tuple(targets)
        if not targets:
            raise ValidationError("a target spec needs at least one target")
        if any(not isinstance(t, CoefficientVector) for t in targets):
            raise ValidationError("targets must be CoefficientVector instances")
        keys = set(targets[0].names())
        for t in targets[1:]:
            if set(t.names()) != keys:
                raise ValidationError("all targets must share one covariate set")
        if weights is not None:
            weights = _check_simplex(weights, len(targets))
        self.__dict__.update(targets=targets, weights=weights)

    @property
    def size(self) -> int:
        return len(self.targets)

    def over(self, names: Sequence[str]) -> "TargetSpec":
        """The spec with every target assembled over ``names`` (see
        ``assemble_target``: a name a target lacks gets 0)."""
        return TargetSpec(tuple(assemble_target(t, names) for t in self.targets), self.weights)


def _check_simplex(weights: Sequence[float], expected: int) -> tuple[float, ...]:
    w = _check_real_vector(weights, "weight")
    if len(w) != expected:
        raise ValidationError(f"expected {expected} weights, got {len(w)}")
    if any(v < -_SIMPLEX_TOL for v in w):
        raise ValidationError("weights must be non-negative")
    if abs(sum(w) - 1.0) > _SIMPLEX_TOL:
        raise ValidationError(f"weights must sum to 1, got {sum(w)!r}")
    return w


class UpdateRecord(_Record):
    """Outcome of one sequential update; ``diagnostics`` defaults to an empty dict."""

    _fields = ("t", "lam", "estimate", "weights", "diagnostics")

    def __init__(self, t: int, lam: float, estimate: CoefficientVector,
                 weights: tuple[float, ...] | None = None,
                 diagnostics: Mapping[str, Any] | None = None) -> None:
        _check_index(t, 1, "update index t")
        lam = _check_real(lam, "penalty", ">= 0")
        if weights is not None:
            weights = _check_real_vector(weights, "weight")
        self.__dict__.update(t=int(t), lam=lam, estimate=estimate, weights=weights,
                             diagnostics={} if diagnostics is None else dict(diagnostics))


class TriangularHistory(_Record):
    """Past linear data as the upper-triangular factor of the stacked ``[X | y]``.

    ``factor`` is ``(k + 1, k + 1)``: the first k columns belong to the
    first k registry covariates, the last to the response. ``factor'
    factor`` equals ``[X | y]'[X | y]`` over the ``rows`` rows folded in,
    so the residual sum of squares of coefficients ``b`` on them is
    ``||factor @ [b; -1]||^2`` whatever the number of rows (Gentleman
    1973; Miller 1992, AS 274).
    """

    _fields = ("factor", "rows")

    def __init__(self, factor: np.ndarray, rows: int) -> None:
        factor = _as_float_matrix(factor, "history factor").copy()
        if factor.shape[0] != factor.shape[1] or factor.shape[0] < 1:
            raise ValidationError(f"history factor must be square, got shape {factor.shape}")
        if np.any(np.tril(factor, -1)):
            raise ValidationError("history factor must be upper triangular")
        _check_index(rows, 1, "history row count")
        factor.setflags(write=False)
        self.__dict__.update(factor=factor, rows=int(rows))

    @property
    def covariates(self) -> int:
        """How many leading registry covariates the factor covers."""
        return self.factor.shape[0] - 1


class StackedHistory(_Record):
    """Past logistic data as every row, laid out over the first k registry covariates.

    No finite statistic gives the logistic log-likelihood exactly, so the
    rows themselves are kept.
    """

    _fields = ("X", "y")

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        X, y = _check_xy(X, y, "history ", nonempty=True)
        X, y = X.copy(), y.copy()
        _check_binary(y)
        X.setflags(write=False)
        y.setflags(write=False)
        self.__dict__.update(X=X, y=y)

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


class EstimatorState(_Record):
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

    _fields = ("family", "registry", "init_target", "init_note", "history", "past")

    def __init__(self, family: str, registry: CovariateRegistry,
                 init_target: CoefficientVector, init_note: str = "zeros",
                 history: tuple[UpdateRecord, ...] = (),
                 past: TriangularHistory | StackedHistory | None = None) -> None:
        if family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
        history = tuple(history)
        for name in init_target.names():
            if name not in registry:
                raise RegistryError(f"init target names unknown covariate {name!r}")
        for i, rec in enumerate(history, start=1):
            _check_record(rec, i, registry)
        _check_past(family, past, registry)
        self.__dict__.update(family=family, registry=registry, init_target=init_target,
                             init_note=init_note, history=history, past=past)

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

        ``registry`` must start with the state's names, in their order: the
        registry is append-only, and a reordered one would misalign the past
        data. The old records then hold over ``registry`` as they did, so
        only the new record and ``past`` are checked, at a cost that does
        not grow with the history.
        """
        if registry.names[:self.registry.size] != self.registry.names:
            raise RegistryError("a new registry must keep the old names first, in their order")
        _check_record(record, self.t + 1, registry)
        _check_past(self.family, past, registry)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, registry=registry,
                            history=self.history + (record,), past=past)
        return new


def start_state(family: str, names: Sequence[str], target: CoefficientVector | None = None,
                note: str = "zeros",
                past: TriangularHistory | StackedHistory | None = None) -> EstimatorState:
    """A state before any update (t = 0), the start of a chain.

    The registry lists ``names`` in their order. The chain starts from
    ``target``, zeros over ``names`` when none is given; ``note`` records
    where the start came from, and ``past`` holds data folded in before
    the first update (``None``: none).
    """
    if target is None:
        target = CoefficientVector({n: 0.0 for n in names})
    return EstimatorState(family=family, registry=CovariateRegistry(names),
                          init_target=target, init_note=note, past=past)


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
