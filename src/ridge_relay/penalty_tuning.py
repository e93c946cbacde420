"""Cross-validated choice of the update penalty.

Each update must pick how hard to shrink toward the previous estimate.
Candidates come from a fixed log-spaced grid and are scored by K-fold
cross-validation on the incoming batch alone. In constrained mode a
candidate is additionally required to keep enough of the previous
estimate's explanatory power on the batches already seen: with f the
fraction of all accumulated samples contributed by the new batch, a
penalty is feasible when

    (1 - f) * mean_k crit_hist(fold-fit_k)  <=  crit_hist(previous estimate)

where crit_hist is the residual sum of squares (linear) or minus the
log-likelihood (logistic) summed over every batch seen so far. Very large
penalties pin the fold fits to the previous estimate, which drives the
left side to (1 - f) times the right, so the constraint is always
satisfiable for large enough candidates; if no grid point is feasible
the selector falls back to the largest one and flags it.

Only the fit, the loss and the form of the past data differ between
families, so each family is one object (``get_family``). Under K-fold
cross-validation every family takes one route: each fold is fitted once
for the whole grid (``Family.fit_grid``: one decomposition per fold for
the linear family, one batched IRLS over every candidate for the
logistic one), and the same fold fits give both the held-out score and
the constraint's left side. Under leave-one-out the linear family fits
no fold: one decomposition of the whole batch gives every held-out
residual and every fold's historic criterion in closed form
(``Family.loo_curve``, the body of ``loo_ridge_grid``). Where that closed
form cannot certify a candidate, and for the logistic family, the folds
are fitted as under K-fold.
The historic criterion comes from the state's past data
(``Family.history_loss``): for the linear family a product with the
triangular factor of the stacked history, whose cost does not grow with
the number of batches; for the logistic family the stacked rows,
evaluated a block of candidates at a time.
``cv_score`` and ``constraint_terms`` evaluate one candidate at a time
and are the reference for that route. Ties prefer the larger penalty
(more stability at equal predictive loss), and all randomness comes from
the fold seed, so selection is reproducible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConvergenceError, SelectionError, SingularMatrixError, ValidationError
from .model_core import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    _MAX_ELEMENTS,
    _Record,
    _check_index,
    _check_real,
    _is_index,
    _real_array,
    align_batch,
    assemble_target,
    fold_stacked,
    fold_triangular,
    start_state,
)
from ._numerics import expit
from ._pcg64 import Pcg64
from .linear_estimator import (_fit_targeted_ridge_grid, _loo_ridge_grid, fit_targeted_ridge,
                               update)
from .logistic_estimator import _BLOCK_ELEMENTS, _irls_fit_grid, irls_fit, update_logistic

__all__ = [
    "DEFAULT_GRID_MIN",
    "DEFAULT_GRID_MAX",
    "DEFAULT_GRID_POINTS",
    "default_grid",
    "Family",
    "get_family",
    "FoldPlan",
    "make_folds",
    "cv_score",
    "ConstraintTerms",
    "constraint_terms",
    "Candidate",
    "PenaltySearchConfig",
    "SelectionReport",
    "select_penalty",
    "selection_elements",
    "fit_first_batch",
]

DEFAULT_GRID_MIN = 1e-4
DEFAULT_GRID_MAX = 1e6
DEFAULT_GRID_POINTS = 50


def default_grid(grid_min: float = DEFAULT_GRID_MIN, grid_max: float = DEFAULT_GRID_MAX,
                 points: int = DEFAULT_GRID_POINTS) -> tuple[float, ...]:
    """``points`` log-spaced penalties from ``grid_min`` to ``grid_max``, ascending."""
    grid_min = _check_real(grid_min, "grid_min", "> 0")
    grid_max = _check_real(grid_max, "grid_max", "> 0")
    if not grid_min < grid_max:
        raise ValidationError(f"need grid_min < grid_max, got {grid_min!r} and {grid_max!r}")
    _check_index(points, 1, "points", _MAX_ELEMENTS)
    if points == 1:
        return (grid_max,)
    return tuple(np.geomspace(grid_min, grid_max, points).tolist())


class Family:
    """What selection and updating need to know about one response family.

    ``fit(X, y, lam, target)`` returns the coefficients of one targeted
    ridge fit (``fit_targeted_ridge`` or ``irls_fit``). ``fit_grid(X, y,
    lams, target)`` fits every penalty in one solve (``fit_targeted_ridge_grid``
    or ``irls_fit_grid``): coefficients of shape ``(p, L)`` and a mask of
    length L that is False where a fit is unusable. ``loss(X, y, coefs)``
    is the criterion the selector minimizes, one value per coefficient
    column. ``fold(past, X, y)`` folds a batch, aligned over the registry,
    into a state's past data (``None`` before any batch), and
    ``history_loss(past, coefs)`` is the criterion summed over every row
    of that past data, one value per coefficient column; ``coefs`` may
    cover more registry covariates than the past data, which then count
    as zero columns. ``loo_curve(X, y, lams, target, past)`` gives a
    leave-one-out selection's mean held-out criterion and mean criterion
    on ``past`` (``None`` for no constraint), each of length L, without
    fitting the folds (``loo_ridge_grid``); it returns ``None`` where the
    family has no such closed form or cannot certify it.
    ``penalty_elements(p, n, loo)`` is what one penalty adds to the
    family's largest solver array (``selection_elements``). ``mean`` maps
    a linear predictor to the expected response, ``sample`` draws
    responses around it, and ``update(state, batch, lam, diagnostics)`` is
    the family's sequential step. ``fit_grid`` and ``loo_curve`` call the
    bodies ``_fit_targeted_ridge_grid``, ``_irls_fit_grid`` and
    ``_loo_ridge_grid``, which judge no checked array again. Methods look
    every solver up here by name when they run, so a wrapper sees every fit.
    """

    name: str
    stratified: bool

    def loo_curve(self, X, y, lams, target, past):
        """No closed form: a leave-one-out selection fits every fold."""
        return None


class _Linear(Family):
    name = "linear"
    stratified = False

    def fit(self, X, y, lam, target):
        return fit_targeted_ridge(X, y, lam, target)

    def fit_grid(self, X, y, lams, target):
        return _fit_targeted_ridge_grid(X, y, lams, target)

    def loo_curve(self, X, y, lams, target, past):
        return _loo_ridge_grid(X, y, lams, target, past)

    def penalty_elements(self, p, n, loo):
        return (p + 1) * n if loo else 0

    def loss(self, X, y, coefs):
        resid = y[:, None] - X @ coefs
        return np.einsum("ij,ij->j", resid, resid)

    def fold(self, past, X, y):
        return fold_triangular(past, X, y)

    def history_loss(self, past, coefs):
        k = past.covariates
        resid = past.factor[:, :k] @ coefs[:k] - past.factor[:, k:]
        return np.einsum("ij,ij->j", resid, resid)

    def mean(self, eta):
        return eta

    def sample(self, rng, eta, noise_var):
        return eta + np.sqrt(noise_var) * rng.standard_normal(eta.shape[0])

    def update(self, state, batch, lam, diagnostics=None):
        return update(state, batch, lam, diagnostics=diagnostics)


class _Logistic(Family):
    name = "logistic"
    stratified = True

    def fit(self, X, y, lam, target):
        return irls_fit(X, y, lam, target).coef

    def fit_grid(self, X, y, lams, target):
        return _irls_fit_grid(X, y, lams, target)

    def penalty_elements(self, p, n, loo):
        return p * p

    def loss(self, X, y, coefs):
        eta = X @ coefs
        return np.logaddexp(0.0, eta).sum(axis=0) - y @ eta

    def fold(self, past, X, y):
        return fold_stacked(past, X, y)

    def history_loss(self, past, coefs):
        """``loss`` on the stacked rows, a block of columns at a time, so the
        ``(rows, columns)`` predictor holds about ``_BLOCK_ELEMENTS`` floats
        whatever the number of candidates and of past rows."""
        k = past.covariates
        out = np.empty(coefs.shape[1])
        size = max(1, _BLOCK_ELEMENTS // past.rows)
        for lo in range(0, coefs.shape[1], size):
            out[lo:lo + size] = self.loss(past.X, past.y, coefs[:k, lo:lo + size])
        return out

    def mean(self, eta):
        return expit(eta)

    def sample(self, rng, eta, noise_var):
        return (rng.random(eta.shape[0]) < expit(eta)).astype(float)

    def update(self, state, batch, lam, diagnostics=None):
        return update_logistic(state, batch, lam, diagnostics=diagnostics)


_FAMILIES = {family.name: family for family in (_Linear(), _Logistic())}


def get_family(name: str) -> Family:
    """The family object for ``"linear"`` or ``"logistic"``."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValidationError(f"unknown family {name!r}") from None


class FoldPlan(_Record):
    """Assignment of observations to cross-validation folds, labels 1..k."""

    _fields = ("assignments", "k")

    def __init__(self, assignments: np.ndarray, k: int) -> None:
        arr = np.asarray(assignments, dtype=int)
        if arr.ndim != 1:
            raise ValidationError("fold assignments must be 1-dimensional")
        if k < 2:
            raise ValidationError("need at least 2 folds")
        if arr.size < k:
            raise ValidationError("more folds than observations")
        # bincount, not np.unique: NumPy's unique loads numpy.ma on first
        # use, which costs every update process several milliseconds.
        if (arr.min() < 1 or arr.max() > k
                or np.count_nonzero(np.bincount(arr)) != k):
            raise ValidationError("every fold label in 1..k must occur")
        arr = arr.copy()
        arr.setflags(write=False)
        self.__dict__.update(assignments=arr, k=k)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train mask, test mask) for fold label ``fold``."""
        test = self.assignments == fold
        return ~test, test


def _check_fold_count(n: int, k: int) -> None:
    if not _is_index(k) or k < 2 or k > n:
        raise ValidationError(f"fold count must be an integer 2 <= k <= n, got k={k!r}, n={n}")


def make_folds(n: int, k: int, seed: int, strata: Sequence | None = None) -> FoldPlan:
    """Seeded fold assignment; round-robin within shuffled strata.

    With ``strata`` (e.g. a binary response), each stratum is shuffled and
    dealt round-robin so folds keep roughly the stratum proportions; the
    deal runs on from one stratum to the next, in ascending label order.
    ``strata=None`` is one stratum. Fold sizes differ by at most one
    either way. The strata are shuffled, in that order, by successive
    permutations of one ``Pcg64(seed)``: those of
    ``np.random.default_rng(seed)``, without loading ``numpy.random``.
    A label that equals no label, as NaN does not, puts its rows in no
    stratum and is refused.
    """
    _check_fold_count(n, k)
    _check_index(seed, 0, "the fold seed")
    strata = np.zeros(n) if strata is None else np.asarray(strata)
    if strata.shape[0] != n:
        raise ValidationError("strata must have one label per observation")
    rng = Pcg64(seed)
    groups = [np.flatnonzero(strata == label) for label in sorted(set(strata.tolist()))]
    dealt = np.concatenate([rows[rng.permutation(rows.size)] for rows in groups])
    if dealt.size != n:  # a NaN label equals no label, itself included
        raise ValidationError(f"{n - dealt.size} of {n} rows fall in no stratum (NaN label)")
    assignments = np.empty(n, dtype=int)
    assignments[dealt] = np.arange(dealt.size) % k + 1
    return FoldPlan(assignments=assignments, k=k)


def cv_score(family: str, batch: Batch, lam: float, target, folds: FoldPlan) -> float:
    """Mean over folds of the held-out criterion of the fold fits.

    ``target`` is laid out over the batch's own columns. The criterion is
    the held-out residual sum of squares (linear) or minus the held-out
    log-likelihood (logistic); lower is better for both. Fold fits that
    fail to converge, or are singular, make the score infinite instead of
    raising: an unusable candidate should lose the comparison, not abort
    it.
    """
    fam = get_family(family)
    target = _real_array(target, "target")
    if target.shape != (batch.p,):
        raise ValidationError(f"target must have length {batch.p}")
    if folds.n != batch.n:
        raise ValidationError(f"fold plan covers {folds.n} rows, the batch has {batch.n}")
    X, y = batch.X, batch.y
    total = 0.0
    for fold in range(1, folds.k + 1):
        train, test = folds.split(fold)
        try:
            coef = fam.fit(X[train], y[train], lam, target)
        except (ConvergenceError, SingularMatrixError):
            return float("inf")
        total += float(fam.loss(X[test], y[test], coef[:, None])[0])
    return total / folds.k


class ConstraintTerms(_Record):
    """Both sides of the historic-fit feasibility inequality, which holds
    where ``lhs <= rhs``."""

    _fields = ("lhs", "rhs", "new_fraction")

    def __init__(self, lhs: float, rhs: float, new_fraction: float) -> None:
        self.__dict__.update(lhs=lhs, rhs=rhs, new_fraction=new_fraction)


def constraint_terms(state: EstimatorState, batch: Batch, lam: float,
                     target: CoefficientVector, folds: FoldPlan) -> ConstraintTerms:
    """Evaluate the historic-fit constraint for one candidate penalty.

    The fold fits run over the full registry (past data counts zero for
    covariates it never carried) and reuse the same fold plan as scoring,
    so the two views of a candidate describe the same estimators. Raises
    if the state has no past data: the constraint is vacuous at the first
    update and the selector simply skips it there.
    """
    if state.past is None:
        raise ValidationError("no past data: the constraint is vacuous at t=1")
    registry = state.registry.extended(batch.covariates)
    names = registry.names
    target_arr = target.as_array(names)
    X_new = align_batch(batch, registry)
    prev = assemble_target(state, names).as_array(names)
    fam = get_family(state.family)
    rhs = float(fam.history_loss(state.past, prev[:, None])[0])
    f_new = batch.n / (batch.n + state.past.rows)
    total = 0.0
    for fold in range(1, folds.k + 1):
        train, _ = folds.split(fold)
        try:
            coef = fam.fit(X_new[train], batch.y[train], lam, target_arr)
        except (ConvergenceError, SingularMatrixError):
            total = float("inf")
            break
        total += float(fam.history_loss(state.past, coef[:, None])[0])
    lhs = (1.0 - f_new) * (total / folds.k if np.isfinite(total) else total)
    return ConstraintTerms(lhs=lhs, rhs=rhs, new_fraction=f_new)


class Candidate(_Record):
    """One evaluated grid point of the selection curve (``SelectionReport.cv_curve``)."""

    _fields = ("lam", "score", "feasible", "lhs", "rhs")

    def __init__(self, lam: float, score: float, feasible: bool, lhs: float | None = None,
                 rhs: float | None = None) -> None:
        self.__dict__.update(lam=lam, score=score, feasible=feasible, lhs=lhs, rhs=rhs)


class PenaltySearchConfig(_Record):
    """How to run a selection: folds, grid, constraint mode, seed.

    ``k_folds=None`` means leave-one-out. ``grid=None`` is ``default_grid()``;
    a grid is a strictly increasing sequence of penalties > 0, kept as a
    tuple of floats.
    """

    _fields = ("k_folds", "constrained", "grid", "seed")

    def __init__(self, k_folds: int | None = 5, constrained: bool = True,
                 grid: tuple[float, ...] | None = None, seed: int = 0) -> None:
        lams = _real_array(default_grid() if grid is None else grid, "the penalty grid", 1,
                           bound="> 0")
        if not lams.size or not np.all(lams[1:] > lams[:-1]):
            raise ValidationError("the penalty grid must be non-empty and strictly increasing")
        if not isinstance(constrained, bool):
            raise ValidationError(f"constrained must be True or False, got {constrained!r}")
        if k_folds is not None:
            _check_index(k_folds, 2, "k_folds (None for leave-one-out)")
        _check_index(seed, 0, "the fold seed")
        self.__dict__.update(k_folds=k_folds, constrained=constrained,
                             grid=tuple(lams.tolist()), seed=seed)


class SelectionReport(_Record):
    """Outcome of a grid selection, with the full evaluated curve.

    The curve is five read-only arrays over the grid: the penalties
    (``grid``), their CV scores (``scores``), the feasibility mask
    (``feasible``) and both sides of the historic-fit constraint (``lhs``
    and ``rhs``, each ``None`` when no constraint applied). ``cv_curve``
    views it as one ``Candidate`` per grid point. ``to_dict`` keeps the
    ``chosen_weights`` and per-candidate ``weights`` keys of the printed
    report, always null, so the report's layout does not change.
    """

    _fields = ("chosen_lambda", "score", "constrained", "fallback_used", "new_fraction",
               "k_folds", "seed", "grid", "scores", "feasible", "lhs", "rhs")

    def __init__(self, chosen_lambda: float, score: float, constrained: bool,
                 fallback_used: bool, new_fraction: float | None, k_folds: int, seed: int,
                 grid: np.ndarray, scores: np.ndarray, feasible: np.ndarray,
                 lhs: np.ndarray | None, rhs: np.ndarray | None) -> None:
        for arr in (grid, scores, feasible, lhs, rhs):
            if arr is not None:
                arr.setflags(write=False)
        self.__dict__.update(chosen_lambda=chosen_lambda, score=score, constrained=constrained,
                             fallback_used=fallback_used, new_fraction=new_fraction,
                             k_folds=k_folds, seed=seed, grid=grid, scores=scores,
                             feasible=feasible, lhs=lhs, rhs=rhs)

    @property
    def cv_curve(self) -> tuple[Candidate, ...]:
        """The curve as one ``Candidate`` per grid point, built on each call."""
        sides = [None] * self.grid.shape[0]
        lhs = sides if self.lhs is None else self.lhs.tolist()
        rhs = sides if self.rhs is None else self.rhs.tolist()
        return tuple([Candidate(*c) for c in zip(self.grid.tolist(), self.scores.tolist(),
                                                  self.feasible.tolist(), lhs, rhs)])

    def to_dict(self) -> dict:
        def num(v):
            return None if v is None else float(v) if np.isfinite(v) else repr(float(v))

        return {
            "chosen_lambda": num(self.chosen_lambda),
            "chosen_weights": None,
            "score": num(self.score),
            "constrained": self.constrained,
            "fallback_used": self.fallback_used,
            "new_fraction": num(self.new_fraction),
            "k_folds": self.k_folds,
            "seed": self.seed,
            "cv_curve": [{"lam": num(c.lam), "weights": None, "score": num(c.score),
                          "feasible": c.feasible, "lhs": num(c.lhs), "rhs": num(c.rhs)}
                         for c in self.cv_curve],
        }


def _selection_curve(state: EstimatorState, batch: Batch, registry: CovariateRegistry,
                     grid: np.ndarray, target: np.ndarray, k: int, seed: int,
                     new_fraction: float | None):
    """The selection curve as arrays over ``grid``: ``(score, feasible, lhs,
    rhs)``, ``lhs`` and ``rhs`` ``None`` (and ``feasible`` all True) when
    ``new_fraction`` is.

    Every fold fit runs over the registry's columns, toward ``target``
    laid out over the registry. Each gives its held-out criterion (the CV
    score) and, with ``new_fraction`` set, its criterion on the state's
    past data (``lhs`` before the ``1 - f`` factor); ``rhs`` is the
    target's own criterion on the past data, the same at every penalty,
    and a penalty is feasible where ``lhs <= rhs``. A leave-one-out
    selection (``k`` equal to the batch size) takes the family's
    ``loo_curve``, which forms no fold fit and deals no folds; otherwise,
    or where it declines, the ``k`` folds are dealt with ``seed``
    (``make_folds``) and each is fitted once for the whole grid
    (``fit_grid``). A candidate whose fit is unusable in any fold is
    infinite in both, and so infeasible.
    """
    fam = get_family(state.family)
    X, y = align_batch(batch, registry), batch.y
    constrain = new_fraction is not None
    past = state.past if constrain else None
    means = fam.loo_curve(X, y, grid, target, past) if k == batch.n else None
    if means is None:
        folds = make_folds(batch.n, k, seed, y if fam.stratified else None)
        means = _fold_means(fam, X, y, grid, target, past, folds)
    score, hist = means
    if not constrain:
        return score, np.ones(grid.shape[0], dtype=bool), None, None
    lhs = (1.0 - new_fraction) * hist
    rhs = np.full(grid.shape[0], float(fam.history_loss(past, target[:, None])[0]))
    return score, lhs <= rhs, lhs, rhs


def _fold_means(fam: Family, X: np.ndarray, y: np.ndarray, grid: np.ndarray,
                target: np.ndarray, past, folds: FoldPlan):
    """Mean over folds of the held-out criterion and, with ``past``, of the
    criterion on the past data, from one ``fit_grid`` per fold; both are
    infinite where a candidate's fit is unusable in any fold."""
    score = np.zeros(len(grid))
    hist = np.zeros(len(grid))
    usable = np.ones(len(grid), dtype=bool)
    for fold in range(1, folds.k + 1):
        train, test = folds.split(fold)
        coefs, ok = fam.fit_grid(X[train], y[train], grid, target)
        usable &= ok
        score += fam.loss(X[test], y[test], coefs)
        if past is not None:
            hist += fam.history_loss(past, coefs)
    score = np.where(usable, score / folds.k, np.inf)
    return score, np.where(usable, hist / folds.k, np.inf) if past is not None else None


def selection_elements(family: str, p: int, n: int, points: int, loo: bool) -> int:
    """The most values one array of a selection holds, for a batch of ``n``
    rows over ``p`` covariates and a grid of ``points`` penalties: a fold
    fit's ``(p, L)`` coefficients and ``(n, L)`` predictors, or the
    family's own solver array (``Family.penalty_elements``): the linear
    leave-one-out closed form's ``(p + 1, L, n)`` block (``loo``), the
    logistic fit's ``(L, p, p)`` weighted normal matrices. It is counted,
    not allocated."""
    return max(p, n, get_family(family).penalty_elements(p, n, loo)) * points


def select_penalty(state: EstimatorState, batch: Batch,
                   config: PenaltySearchConfig | None = None) -> SelectionReport:
    """Pick the update penalty by grid search.

    The target is the state's assembled target (``assemble_target``) over
    the registry extended by the batch. Every grid penalty is scored; in
    constrained mode infeasible penalties are excluded before comparison,
    except at the first update where there is no history to constrain
    against. The choice is one masked ``argmin`` over the penalties that
    are feasible and score finite, ties going to the larger penalty. With
    none such in constrained mode the selector falls back to the largest
    grid penalty, if its score is finite, and marks ``fallback_used``.
    """
    cfg = config or PenaltySearchConfig()
    if batch.family != state.family:
        raise ValidationError("batch family differs from state family")
    n = batch.n
    k = n if cfg.k_folds is None else cfg.k_folds
    _check_fold_count(n, k)

    registry = state.registry.extended(batch.covariates)
    names = registry.names
    target = assemble_target(state, names).as_array(names)
    constrain = cfg.constrained and state.past is not None
    new_fraction = batch.n / (batch.n + state.past.rows) if constrain else None
    grid = np.array(cfg.grid)
    score, feasible, lhs, rhs = _selection_curve(state, batch, registry, grid, target, k,
                                                 cfg.seed, new_fraction)
    usable = feasible & np.isfinite(score)
    fallback_used = bool(constrain and not usable.any() and np.isfinite(score[-1]))
    if fallback_used:
        usable[-1] = True
    if not usable.any():
        raise SelectionError("no usable penalty: every grid candidate scored infinite")
    # The last minimum: ties go to the larger penalty on the ascending grid.
    best = grid.shape[0] - 1 - int(np.argmin(np.where(usable, score, np.inf)[::-1]))
    return SelectionReport(chosen_lambda=cfg.grid[best], score=float(score[best]),
                           constrained=cfg.constrained, fallback_used=fallback_used,
                           new_fraction=new_fraction, k_folds=k, seed=cfg.seed, grid=grid,
                           scores=score, feasible=feasible, lhs=lhs, rhs=rhs)


def _zero_target_fit(batch: Batch,
                     config: PenaltySearchConfig) -> tuple[np.ndarray, SelectionReport]:
    """The family's fit of ``batch`` toward zero, over the batch's columns.

    The penalty comes from ``select_penalty`` on a zero-target state over
    the batch's covariates.
    """
    report = select_penalty(start_state(batch.family, batch.covariates), batch, config)
    coef = get_family(batch.family).fit(batch.X, batch.y, report.chosen_lambda,
                                        np.zeros(batch.p))
    return coef, report


def fit_first_batch(batch: Batch,
                    config: PenaltySearchConfig) -> tuple[EstimatorState, SelectionReport]:
    """A state initialized from a zero-target fit of a sacrificed first batch.

    The fit (``_zero_target_fit``) becomes the initial target, and the
    batch is folded into the state's past data so later constraint
    evaluations see it as history.
    """
    coef, report = _zero_target_fit(batch, config)
    state = start_state(batch.family, batch.covariates,
                        CoefficientVector.from_array(batch.covariates, coef), "fit-first-batch",
                        past=get_family(batch.family).fold(None, batch.X, batch.y))
    return state, report
