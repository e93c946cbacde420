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
    "EstimatorState",
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
    can be shared and retained inside states without aliasing surprises.
    """

    t: int
    X: np.ndarray
    y: np.ndarray
    covariates: tuple[str, ...]
    family: str = "linear"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not isinstance(self.t, (int, np.integer)) or self.t < 0:
            raise ValidationError(f"batch index t must be a non-negative integer, got {self.t!r}")
        object.__setattr__(self, "t", int(self.t))
        X = _as_float_matrix(self.X, "X").copy()
        y = _as_float_vector(self.y, "y").copy()
        if X.shape[0] != y.shape[0]:
            raise ValidationError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if X.shape[0] == 0:
            raise ValidationError("a batch must contain at least one observation")
        names = tuple(str(n) for n in self.covariates)
        if len(names) != X.shape[1]:
            raise ValidationError(
                f"{len(names)} covariate names for {X.shape[1]} design columns")
        if len(set(names)) != len(names):
            raise ValidationError("batch covariate names must be unique")
        if self.family == "logistic" and y.size and not np.all(np.isin(y, (0.0, 1.0))):
            raise ValidationError("logistic responses must be coded 0/1")
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
            if not isinstance(v, numbers.Real):
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
        if self.t < 1:
            raise ValidationError("update indices start at 1")
        lam = float(self.lam)
        if not np.isfinite(lam) or lam < 0:
            raise ValidationError(f"penalty must be finite and >= 0, got {lam!r}")
        object.__setattr__(self, "lam", lam)
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(v) for v in self.weights))
        object.__setattr__(self, "diagnostics", dict(self.diagnostics))


@dataclass(frozen=True)
class EstimatorState:
    """Full description of a sequentially updated model.

    ``history`` holds one record per update, with consecutive indices
    1..T. ``retained`` keeps the raw batches seen so far so later updates
    can evaluate candidate penalties against historic data. The current
    estimate is the last record's, or ``init_target`` before any update.
    """

    family: str
    registry: CovariateRegistry
    init_target: CoefficientVector
    init_note: str = "zeros"
    history: tuple[UpdateRecord, ...] = ()
    retained: tuple[Batch, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "history", tuple(self.history))
        object.__setattr__(self, "retained", tuple(self.retained))
        for name in self.init_target.names():
            if name not in self.registry:
                raise RegistryError(f"init target names unknown covariate {name!r}")
        for i, rec in enumerate(self.history, start=1):
            if rec.t != i:
                raise ValidationError(
                    f"history must have consecutive indices 1..T, found t={rec.t} at position {i}")
            for name in rec.estimate.names():
                if name not in self.registry:
                    raise RegistryError(f"estimate at t={rec.t} names unknown covariate {name!r}")
        for batch in self.retained:
            if batch.family != self.family:
                raise ValidationError("retained batch family differs from state family")
            for name in batch.covariates:
                if name not in self.registry:
                    raise RegistryError(f"retained batch names unknown covariate {name!r}")

    @property
    def t(self) -> int:
        """Number of updates applied so far."""
        return len(self.history)

    @property
    def current(self) -> CoefficientVector:
        return self.history[-1].estimate if self.history else self.init_target

    def with_update(self, registry: CovariateRegistry, record: UpdateRecord,
                    batch: Batch) -> "EstimatorState":
        """State after one more update; the batch joins the retained history."""
        if record.t != self.t + 1:
            raise ValidationError(f"expected update index {self.t + 1}, got {record.t}")
        return replace(self, registry=registry, history=self.history + (record,),
                       retained=self.retained + (batch,))


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
    """
    if isinstance(source, EstimatorState):
        layers: tuple[CoefficientVector, ...] = tuple(
            rec.estimate for rec in reversed(source.history)) + (source.init_target,)
    elif isinstance(source, CoefficientVector):
        layers = (source,)
    else:
        raise ValidationError("source must be an EstimatorState or CoefficientVector")
    out: dict[str, float] = {}
    for raw in names:
        name = str(raw)
        for layer in layers:
            if name in layer:
                out[name] = layer[name]
                break
        else:
            out[name] = 0.0
    return CoefficientVector(out)


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
