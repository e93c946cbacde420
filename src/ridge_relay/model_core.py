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

from collections.abc import Mapping
from typing import Any, Iterator, Sequence

import numpy as np

from ._numerics import all_finite
from .errors import RegistryError, ValidationError

__all__ = [
    "FAMILIES",
    "CovariateRegistry",
    "Batch",
    "CoefficientVector",
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
    "target_records",
]

FAMILIES = ("linear", "logistic")


def _real_array(values: Any, what: str, ndim: int | None = None,
                copy: bool = False, bound: str = "") -> np.ndarray:
    """``values`` as a float array under the one number rule, judged once
    for the whole array: its dtype is an integer or a floating type, so not
    a bool, a string or an object (NumPy gives an integer that fits no
    64-bit type, ``2**70`` say, or a ``Fraction`` the object dtype), every
    entry is finite, and every entry is within ``bound``: ``""``, ``">= 0"``
    or ``"> 0"``. ``ndim``, if given, is the number of dimensions it must
    have, 0 for one number (``_check_real``), whose messages quote it as
    given; ``copy`` gives a C-ordered copy the caller owns, else the input
    itself when it is a float array already. A ragged list is refused, and
    as NumPy turns bools mixed into numbers into floats, a list or tuple is
    searched for a bool at any depth; an ndarray is judged by its dtype."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValidationError(f"{what} must be real numbers, got a ragged list") from None
    if ndim == 0:
        if arr.ndim or arr.dtype.kind not in "iuf":
            raise ValidationError(f"{what} must be a finite number, got {values!r}")
    elif isinstance(values, (list, tuple)) and _holds_bool(values):
        raise ValidationError(f"{what} must be real numbers, got a bool")
    elif arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be real numbers, got dtype {arr.dtype}")
    elif ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    arr = np.array(arr, dtype=float, order="C") if copy else arr.astype(float, copy=False)
    if not all_finite(arr):
        if ndim == 0:
            raise ValidationError(f"{what} must be a finite number, got {values!r}")
        raise ValidationError(f"{what} must be finite, got {float(arr[~np.isfinite(arr)][0])!r}")
    if bound:
        outside = arr <= 0.0 if bound == "> 0" else arr < 0.0
        if np.count_nonzero(outside):
            got = values if ndim == 0 else float(arr[outside][0])
            raise ValidationError(f"{what} must be {bound}, got {got!r}")
    return arr


def _holds_bool(values: list | tuple) -> bool:
    """Whether nested lists hold a bool, an ``np.bool_`` or a bool array, 0-d or not."""
    entries = np.array(values, dtype=object).ravel().tolist()
    kinds = set(map(type, entries))
    if np.ndarray in kinds:
        kinds.update(v.dtype.type for v in entries if isinstance(v, np.ndarray))
    return not kinds.isdisjoint((bool, np.bool_))


def _check_xy(X: Any, y: Any, what: str, nonempty: bool,
              copy: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """A finite design and response with one row per observation.

    ``what`` prefixes the array names in messages; ``nonempty`` also
    rejects zero rows, and ``copy`` returns copies (``_real_array``).
    """
    X = _real_array(X, f"{what}X", 2, copy)
    y = _real_array(y, f"{what}y", 1, copy)
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


# The most elements an array may hold whose size a caller chooses: a grid
# size, or a scenario size (see ``sim_harness.ScenarioConfig``). 2**24
# float64 values take 128 MiB, and no study, test or benchmark comes near.
_MAX_ELEMENTS = 2 ** 24


def _check_real(value: Any, what: str, bound: str = "") -> float:
    """``value`` as a float if it is one number under the number rule
    (``_real_array`` with ``ndim`` 0) within ``bound``."""
    return float(_real_array(value, what, 0, bound=bound))


def _as_names(values: Any, what: str,
              error: type[ValidationError] = ValidationError) -> tuple[str, ...]:
    """``values`` as a tuple of names, the one rule for a list of names: not
    a bare string or bytes, each entry converted with ``str``, and the names
    then non-empty and unique, else ``error`` is raised over ``what``. A
    join checks in one call that every entry is a string already, so the
    usual tuple of strings is not converted name by name."""
    if isinstance(values, (str, bytes)):
        raise error(f"{what} must be a list of names, got the string {values!r}")
    names = tuple(values)
    try:
        "".join(names)
    except TypeError:
        names = tuple(map(str, names))
    if "" in names:
        raise error(f"{what} must be non-empty strings")
    if len(set(names)) != len(names):
        raise error(f"{what} must be unique")
    return names


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields in ``_fields`` and sets each of them once,
    in its own ``__init__``, through ``self.__dict__``. Assigning or
    deleting an attribute afterwards raises ``AttributeError``, and
    ``repr``, ``==`` and ``hash`` work over the field values in
    ``_fields`` order, as a frozen dataclass's do, except that ``==``
    compares an ndarray field with ``np.array_equal``, NaN equal to NaN,
    where a dataclass's raises; ``hash`` of an array or a dict field raises
    ``TypeError``. A plain class is built at import without compiling
    generated methods, which a frozen dataclass does for each class.
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
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b, equal_nan=True)
                   if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a is b or a == b
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(self._values())

    @classmethod
    def _built(cls, **fields: Any):
        """An instance holding ``fields`` as given, without ``__init__``'s
        checks: for values the caller has just checked or built itself."""
        new = object.__new__(cls)
        new.__dict__.update(fields)
        return new


class CovariateRegistry(_Record):
    """Ordered, append-only collection of covariate names.

    The position of a name in ``names`` is its column index in every
    aligned design matrix and serialized coefficient layout.
    """

    _fields = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        names = _as_names(names, "covariate names", RegistryError)
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
        if names == self.names:
            return self
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
        X, y = _check_xy(X, y, "", nonempty=True, copy=True)
        names = _as_names(covariates, "batch covariate names")
        if len(names) != X.shape[1]:
            raise ValidationError(
                f"{len(names)} covariate names for {X.shape[1]} design columns")
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
        if not isinstance(values, Mapping):  # pairs could repeat a name unseen
            raise ValidationError(f"coefficients must be a mapping, got {type(values).__name__}")
        self.__dict__["values"] = self.from_array(values, list(values.values())).values

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
        try:
            return np.array([self.values[name] for name in names], dtype=float)
        except KeyError as exc:
            raise ValidationError(
                f"coefficient vector has no entry for {exc.args[0]!r}") from None

    @staticmethod
    def from_array(names: Sequence[str], values: Any) -> "CoefficientVector":
        """The vector with ``values[i]`` for ``names[i]``, the names under
        the names rule and the values judged as one array."""
        names = _as_names(names, "coefficient names")
        arr = _real_array(values, "coefficients", 1)
        if len(names) != arr.shape[0]:
            raise ValidationError(f"{len(names)} names for {arr.shape[0]} values")
        return CoefficientVector._built(values=dict(zip(names, arr.tolist())))


class UpdateRecord(_Record):
    """Outcome of one sequential update; ``diagnostics`` defaults to an empty dict.

    Updates leave ``weights`` None; it holds the mixing weights a record
    read from an older state carries."""

    _fields = ("t", "lam", "estimate", "weights", "diagnostics")

    def __init__(self, t: int, lam: float, estimate: CoefficientVector,
                 weights: tuple[float, ...] | None = None,
                 diagnostics: Mapping[str, Any] | None = None) -> None:
        _check_index(t, 1, "update index t")
        lam = _check_real(lam, "penalty", ">= 0")
        if weights is not None:
            weights = tuple(_real_array(weights, "weights", 1).tolist())
        self.__dict__.update(t=int(t), lam=lam, estimate=estimate, weights=weights,
                             diagnostics={} if diagnostics is None else dict(diagnostics))


# Masks of ``_below_diagonal`` kept for reuse: one per size up to 64, at
# most 89 KB in all. A larger mask is built each time it is asked for,
# where it costs little beside the O(p^3) QR or check that uses it.
_MASKS: dict[int, np.ndarray] = {}


def _below_diagonal(size: int) -> np.ndarray:
    """The entries below the diagonal of a ``size`` x ``size`` matrix, as a
    read-only mask."""
    mask = _MASKS.get(size)
    if mask is None:
        mask = np.tri(size, k=-1, dtype=bool)
        mask.setflags(write=False)
        if size <= 64:
            _MASKS[size] = mask
    return mask


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
        factor = _real_array(factor, "history factor", 2, copy=True)
        size = factor.shape[0]
        if factor.shape[1] != size or size < 1:
            raise ValidationError(f"history factor must be square, got shape {factor.shape}")
        if factor.any(where=_below_diagonal(size)):
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
        X, y = _check_xy(X, y, "history ", nonempty=True, copy=True)
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
    return _fold_triangular(past, X, y)


def _fold_triangular(past: TriangularHistory | None, X: np.ndarray,
                     y: np.ndarray) -> TriangularHistory:
    """``fold_triangular`` of a design and response that are already checked."""
    n, p = X.shape
    stack = np.zeros((p + 1 + n, p + 1))
    rows = n
    if past is not None:
        k, old = past.covariates, past.factor
        stack[:k, :k] = old[:k, :k]
        stack[:k, p] = old[:k, k]
        stack[p, p] = old[k, k]
        rows += past.rows
    stack[p + 1:, :p] = X
    stack[p + 1:, p] = y
    # The raw QR holds R on and above the diagonal and the Householder
    # vectors below it; zeroing those gives ``qr(stack, mode="r")`` to the
    # bit without the general ``np.triu`` that mode runs. The copy keeps
    # the factor alone, not the whole stack, and it is square and upper
    # triangular by construction, so only its finiteness is checked.
    factor = np.linalg.qr(stack, mode="raw")[0].T[:p + 1].copy()
    factor[_below_diagonal(p + 1)] = 0.0
    if not all_finite(factor):
        raise ValidationError("history factor contains non-finite entries")
    factor.setflags(write=False)
    return TriangularHistory._built(factor=factor, rows=rows)


def fold_stacked(past: StackedHistory | None, X, y) -> StackedHistory:
    """``past`` with the rows of ``(X, y)`` appended (``None``: no rows yet).

    ``X`` is laid out over the first p registry covariates, p at least the
    history's k; earlier rows take zeros for the covariates they lack. Only
    the arriving rows are checked: the past ones were when they arrived.
    """
    X, y = _check_fold(past, X, y)
    _check_binary(y)
    return _fold_stacked(past, X, y)


def _fold_stacked(past: StackedHistory | None, X: np.ndarray,
                  y: np.ndarray) -> StackedHistory:
    """``fold_stacked`` of a design and 0/1 response that are already checked."""
    if past is None:
        X, y = np.array(X, order="C"), y.copy()
    else:
        old = past.X
        if X.shape[1] > old.shape[1]:
            old = np.hstack([old, np.zeros((old.shape[0], X.shape[1] - old.shape[1]))])
        X, y = np.vstack([old, X]), np.concatenate([past.y, y])
    X.setflags(write=False)
    y.setflags(write=False)
    return StackedHistory._built(X=X, y=y)


# The form of the past data each family keeps.
PAST_FORMS = {"linear": TriangularHistory, "logistic": StackedHistory}


def _check_record(rec: UpdateRecord, t: int, registry: CovariateRegistry) -> None:
    """The history record that must have index ``t``, of a state over ``registry``."""
    if rec.t != t:
        raise ValidationError(
            f"history must have consecutive indices, found t={rec.t} where t={t} belongs")
    if not registry._index.keys() >= rec.estimate.values.keys():
        unknown = next(name for name in rec.estimate.values if name not in registry)
        raise RegistryError(f"estimate at t={rec.t} names unknown covariate {unknown!r}")


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

    ``history`` holds the records of the updates, with consecutive indices
    ending at T, the number of updates applied: all of them, 1..T, or a
    newest part of them, s..T, such as the records a state file keeps
    (``target_records``). ``past`` holds the data of every batch folded in
    so far, in the form the family's historic-fit constraint needs: a
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
        for i, rec in enumerate(history, start=history[0].t if history else 1):
            _check_record(rec, i, registry)
        _check_past(family, past, registry)
        self.__dict__.update(family=family, registry=registry, init_target=init_target,
                             init_note=init_note, history=history, past=past)

    @property
    def t(self) -> int:
        """Number of updates applied so far: the newest record's index."""
        return self.history[-1].t if self.history else 0

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
    registry = CovariateRegistry(names)
    if target is None:
        target = CoefficientVector(dict.fromkeys(registry.names, 0.0))
    return EstimatorState(family=family, registry=registry,
                          init_target=target, init_note=note, past=past)


def align_batch(batch: Batch, registry: CovariateRegistry) -> np.ndarray:
    """Design matrix of ``batch`` laid out over the registry's columns.

    Registry covariates the batch does not carry become zero columns, so a
    coefficient vector over the registry applies to any aligned batch. A
    batch covariate missing from the registry is an error: extend the
    registry first. A batch over exactly the registry's names, in order,
    gives its own read-only design.
    """
    if batch.covariates == registry.names:
        return batch.X
    for name in batch.covariates:
        if name not in registry:
            raise RegistryError(
                f"batch covariate {name!r} is not in the registry; extend it first")
    out = np.zeros((batch.n, registry.size))
    for j, name in enumerate(batch.covariates):
        out[:, registry.index_of(name)] = batch.X[:, j]
    return out


def assemble_target(state: EstimatorState, names: Sequence[str]) -> CoefficientVector:
    """Shrinkage target of ``state`` over ``names``, assembled element-wise.

    Each covariate takes its value from the most recent history estimate
    that contains it, so covariates observed only in older batches keep
    their last known coefficient. Covariates no history entry covers take
    the state's initial target, else 0. The initial target backstop is
    what makes a state initialized from a sacrificed first batch shrink
    its first update toward that fit.

    The records are walked newest-first and the walk stops once every name
    has a value, so a target over the newest estimate's names reads one
    record whatever the history length. When the newest estimate holds
    exactly ``names``, in order, it is the target and is returned itself.
    """
    if not isinstance(state, EstimatorState):
        raise ValidationError(f"state must be an EstimatorState, got {type(state).__name__}")
    names = tuple(map(str, names))  # read, not defined here: a repeat is allowed
    newest = state.current
    if tuple(newest.values) == names:
        return newest
    found: dict[str, float] = {}
    missing = set(names)
    for rec in reversed(state.history):
        if not missing:
            break
        values = rec.estimate.values
        for name in [n for n in missing if n in values]:
            found[name] = values[name]
            missing.discard(name)
    backstop = state.init_target.values
    for name in missing:
        found[name] = backstop.get(name, 0.0)
    return CoefficientVector._built(values={name: found[name] for name in names})


def target_records(state: EstimatorState) -> tuple[UpdateRecord, ...]:
    """The shortest newest part of ``state.history`` from which
    ``assemble_target`` gives the same target, over any names.

    It reaches back to the oldest record that is the newest to hold some
    registry covariate, and holds at least the newest record, which gives
    the state its ``t``. A record the updates write holds every registry
    covariate, so for the states they build this is the newest record
    alone, found without walking further.
    """
    history = state.history
    start = len(history) - 1
    missing = set(state.registry.names)
    for i in range(start, -1, -1):
        if not missing:
            break
        values = history[i].estimate.values
        if not missing.isdisjoint(values):
            missing.difference_update(values)
            start = i
    return history[max(start, 0):]
