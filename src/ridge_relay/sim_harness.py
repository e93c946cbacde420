"""Simulation studies exercising the sequential estimator end to end.

Randomness is organized as one independent stream per (seed, replicate,
batch index) triple, so any batch of any replicate can be regenerated in
isolation and adding replicates never perturbs existing ones.

Two study layouts are provided:

* ``run_study_regular_vs_updated`` compares the sequential chain against
  refitting a zero-target ridge from scratch on every batch;
* ``run_study_mixed_vs_updated`` compares it against the pooled
  mixed-model refit on all batches seen so far, under a generating model
  whose coefficients get a fresh per-batch disturbance.

Both return per-replicate trajectories of a few tracked coordinates plus
squared-error losses, summarized by quantile bands. The module also has a
single-trajectory consistency check under a deterministic penalty rule,
and a Monte Carlo cross-check of the exact moment formulas.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import EstimationError, SingularMatrixError, ValidationError
from .model_core import FAMILIES, Batch, CoefficientVector, CovariateRegistry, EstimatorState
from .linear_estimator import MomentReport, exact_moments_general, _penalized_normal_factor
from .penalty_tuning import (
    DEFAULT_GRID_MAX,
    DEFAULT_GRID_MIN,
    DEFAULT_GRID_POINTS,
    PenaltySearchConfig,
    default_grid,
    fit_first_batch,
    get_family,
    select_penalty,
)
from .baselines import DEFAULT_XI_GRID_POINTS, _PooledRefit, default_xi_grid
from .parallel import parallel_map
from ._numerics import cho_solve

__all__ = [
    "ScenarioConfig",
    "resolve_beta",
    "tracked_positions",
    "covariate_names",
    "generate_batch",
    "generate_batches",
    "initial_state",
    "TrajectoryResult",
    "run_study_regular_vs_updated",
    "run_study_mixed_vs_updated",
    "ConsistencyReport",
    "check_consistency_trajectory",
    "MomentCheckReport",
    "check_moment_formulas",
]

_BASE_TRACKED = (1, 21, 51, 71, 101)


_FIELD_TYPES = {"None": type(None), "bool": (bool, np.bool_), "int": numbers.Integral,
               "float": numbers.Real, "str": str}


def _fits(value, annotation: str) -> bool:
    """Whether a value fits a field annotation such as ``tuple[int, ...] | None``."""
    for kind in annotation.split(" | "):
        if kind.startswith("tuple["):
            item = kind[len("tuple["):-len(", ...]")]
            if (isinstance(value, (list, tuple, np.ndarray))
                    and all(_fits(v, item) for v in value)):
                return True
        elif (isinstance(value, _FIELD_TYPES[kind])
              and (kind == "bool") == isinstance(value, _FIELD_TYPES["bool"])):
            return True
    return False


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulation scenario.

    ``beta_rule`` is either ``"ramp"`` (generating coefficients follow a
    centered ramp over [-2.5, 2.5]: beta_j = (j - (p-1)/2) * 5 / (p-1)
    for j = 0..p-1, which at p = 101 is (j - 50)/20) or an explicit
    vector of length p. ``batch_effect_var`` adds a fresh Gaussian
    disturbance to the coefficients of every batch; ``empty_every`` makes
    every k-th batch carry no signal at all. ``init_mode`` sets how a
    single chain is initialized: a zero target, the generating
    coefficients, or a zero-target ridge fit of a sacrificed extra batch.
    ``constrained=None`` defers to each study's own convention.
    """

    study: str = "regular-vs-updated"
    family: str = "linear"
    p: int = 101
    n: int = 25
    n_batches: int = 25
    n_replicates: int = 100
    beta_rule: str | tuple[float, ...] = "ramp"
    noise_var: float = 0.04
    batch_effect_var: float = 0.0
    empty_every: int | None = None
    orthonormal: bool = False
    init_mode: str = "zero-target"
    seed: int = 0
    k_folds: int | None = None
    constrained: bool | None = None
    grid_min: float = DEFAULT_GRID_MIN
    grid_max: float = DEFAULT_GRID_MAX
    grid_points: int = DEFAULT_GRID_POINTS
    mixed_ratio_grid_points: int = DEFAULT_XI_GRID_POINTS
    tracked: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, f.type):
                raise ValidationError(
                    f"scenario field {f.name!r} must be {f.type}, got {value!r}")
            if isinstance(value, np.generic):
                # NumPy scalars pass the type check; store the Python value so
                # the config serializes as JSON.
                object.__setattr__(self, f.name, value.item())
        if self.study not in ("regular-vs-updated", "mixed-vs-updated"):
            raise ValidationError(f"unknown study {self.study!r}")
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        for name in ("p", "n", "n_batches", "n_replicates"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")
        if isinstance(self.beta_rule, str):
            if self.beta_rule != "ramp":
                raise ValidationError(f"unknown beta rule {self.beta_rule!r}")
        else:
            rule = tuple(float(v) for v in self.beta_rule)
            if len(rule) != self.p:
                raise ValidationError(
                    f"explicit beta vector has {len(rule)} entries for p={self.p}")
            if any(not np.isfinite(v) for v in rule):
                raise ValidationError("explicit beta entries must be finite")
            object.__setattr__(self, "beta_rule", rule)
        if self.noise_var < 0 or self.batch_effect_var < 0:
            raise ValidationError("variances must be >= 0")
        if self.empty_every is not None and self.empty_every < 2:
            raise ValidationError("empty_every must be >= 2 (or None)")
        if self.orthonormal and self.n < self.p:
            raise ValidationError("orthonormal designs need n >= p")
        if self.init_mode not in ("zero-target", "truth-target", "ridge-on-first-batch"):
            raise ValidationError(f"unknown init mode {self.init_mode!r}")
        if self.tracked is not None:
            tracked = tuple(int(v) for v in self.tracked)
            if any(v < 1 or v > self.p for v in tracked):
                raise ValidationError("tracked positions are 1-based in 1..p")
            object.__setattr__(self, "tracked", tracked)

    def grid(self) -> tuple[float, ...]:
        return default_grid(self.grid_min, self.grid_max, self.grid_points)

    def selection(self, constrained_default: bool = False) -> PenaltySearchConfig:
        constrained = (self.constrained if self.constrained is not None
                       else constrained_default)
        return PenaltySearchConfig(
            k_folds=self.k_folds,
            constrained=constrained,
            grid=self.grid(),
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        doc = asdict(self)
        if not isinstance(self.beta_rule, str):
            doc["beta_rule"] = list(self.beta_rule)
        doc["tracked"] = list(self.tracked) if self.tracked is not None else None
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioConfig":
        """Build a config from a parsed JSON object; the constructor checks the values."""
        if not isinstance(doc, dict):
            raise ValidationError("a scenario must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(ScenarioConfig)}
        if unknown:
            raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")
        return ScenarioConfig(**doc)


def resolve_beta(config: ScenarioConfig) -> np.ndarray:
    """Generating coefficients for a scenario.

    The ``"ramp"`` rule is a centered ramp over [-2.5, 2.5], constant
    increments of 5/(p-1); explicit vectors are returned as given.
    """
    if not isinstance(config.beta_rule, str):
        return np.array(config.beta_rule, dtype=float)
    p = config.p
    if p == 1:
        return np.array([2.5])
    j = np.arange(p)
    return (j - (p - 1) / 2.0) * 5.0 / (p - 1)


def tracked_positions(config: ScenarioConfig) -> tuple[int, ...]:
    """1-based coordinate positions whose trajectories are recorded.

    Defaults scale the reference positions (1, 21, 51, 71, 101) on a
    101-coordinate layout proportionally into 1..p.
    """
    if config.tracked is not None:
        return config.tracked
    p = config.p
    scaled = []
    for pos in _BASE_TRACKED:
        new = int(np.rint((pos - 1) * (p - 1) / 100.0)) + 1
        if new not in scaled:
            scaled.append(new)
    return tuple(scaled)


def _stream(config: ScenarioConfig, replicate: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, replicate, t)))


def covariate_names(p: int) -> tuple[str, ...]:
    return tuple(f"x{j + 1}" for j in range(p))


def generate_batch(config: ScenarioConfig, replicate: int, t: int) -> Batch:
    """One batch from its own stream; ``t = 0`` is the initialization draw.

    Draw order within the stream is fixed (design, coefficient
    disturbance, response noise) so adding options never reshuffles
    earlier draws.
    """
    rng = _stream(config, replicate, t)
    beta = resolve_beta(config)
    X = rng.standard_normal((config.n, config.p))
    if config.orthonormal:
        X, _ = np.linalg.qr(X)
    coef = beta.copy()
    if config.batch_effect_var > 0:
        coef = coef + np.sqrt(config.batch_effect_var) * rng.standard_normal(config.p)
    if config.empty_every is not None and t >= 1 and t % config.empty_every == 0:
        coef = np.zeros(config.p)
    y = get_family(config.family).sample(rng, X @ coef, config.noise_var)
    return Batch(t=t, X=X, y=y, covariates=covariate_names(config.p), family=config.family)


def generate_batches(config: ScenarioConfig, replicate: int) -> list[Batch]:
    """The update batches t = 1..n_batches of one replicate."""
    return [generate_batch(config, replicate, t) for t in range(1, config.n_batches + 1)]


@dataclass
class TrajectoryResult:
    """Per-replicate trajectories of one estimation strategy.

    ``estimates`` is (replicates, batches, tracked coordinates);
    ``losses`` holds squared-error losses ||estimate - beta||^2 and
    ``lambdas`` the chosen penalties, NaN where a strategy has no value
    at that t (e.g. the pooled refit before it is identified, or
    penalties of a strategy that has none).
    """

    name: str
    t_values: np.ndarray
    tracked: tuple[int, ...]
    estimates: np.ndarray
    losses: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self) -> None:
        R, T, C = self.estimates.shape
        if self.t_values.shape != (T,) or self.losses.shape != (R, T) \
                or self.lambdas.shape != (R, T) or len(self.tracked) != C:
            raise ValidationError("trajectory arrays have inconsistent shapes")
        with np.errstate(invalid="ignore"):
            if np.any(self.losses[np.isfinite(self.losses)] < 0):
                raise ValidationError("losses must be >= 0")

    @property
    def n_replicates(self) -> int:
        return self.estimates.shape[0]

    def quantile_bands(self, qs: Sequence[float] = (0.05, 0.5, 0.95)) -> np.ndarray:
        """(len(qs), T, C) coordinate quantiles across replicates, NaNs ignored.

        Equal to ``np.nanquantile(self.estimates, qs, axis=0)`` (see
        ``_nan_quantiles``), a single q giving (T, C) as there; a
        (t, coordinate) with no value gives NaN, without a warning. Each q
        must lie in [0, 1].
        """
        q = _check_quantiles(qs)
        out = _nan_quantiles(self.estimates, q.reshape(-1))
        return out.reshape(q.shape + self.estimates.shape[1:])

    def band_widths(self, lo: float = 0.05, hi: float = 0.95) -> np.ndarray:
        """(T, C) widths of the central quantile band."""
        if not lo <= hi:
            raise ValidationError(f"band needs lo <= hi, got lo={lo!r}, hi={hi!r}")
        bands = self.quantile_bands((lo, hi))
        return bands[1] - bands[0]

    def mean_loss(self) -> np.ndarray:
        """(T,) mean squared-error loss across replicates (NaN-aware)."""
        out = np.full(self.t_values.shape, np.nan)
        for i in range(out.shape[0]):
            col = self.losses[:, i]
            if np.any(np.isfinite(col)):
                out[i] = np.nanmean(col)
        return out


def _check_quantiles(qs: Sequence[float]) -> np.ndarray:
    q = np.asarray(qs, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValidationError(f"quantiles must lie in [0, 1], got {qs!r}")
    return q


def _nan_quantiles(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.nanquantile(a, q, axis=0)`` under NumPy's ``linear`` rule, in one pass.

    ``np.nanquantile`` solves every column on its own, and ``np.quantile``
    imports ``numpy.ma`` on its way. This sorts along axis 0 (NaNs go
    last) and counts each column's k valid values. With vi = (k - 1) q,
    lo = floor(vi) and hi = lo + 1, both held at k - 1, it interpolates
    between a and b, the sorted values at lo and hi, as NumPy does:
    b - (b - a)(1 - g) where g >= 0.5, else a + (b - a) g. Like NumPy it
    takes g = vi - lo with lo read as -1 where vi reaches k - 1. The two
    agree to the bit, except that a tie of 0.0 and -0.0 may come out with
    the other sign. A column without values gives NaN.
    """
    s = np.sort(a, axis=0)
    k = np.count_nonzero(~np.isnan(a), axis=0)
    vi = (k - 1) * q.reshape(q.shape + (1,) * (a.ndim - 1))
    top = np.maximum(k - 1, 0)
    at_top = vi >= k - 1
    lo = np.where(at_top, top, np.floor(vi)).astype(np.intp)
    hi = np.where(at_top, top, lo + 1)
    g = vi - np.where(at_top, -1, lo)
    below = np.take_along_axis(s, lo, axis=0)
    above = np.take_along_axis(s, hi, axis=0)
    diff = above - below
    out = below + diff * g
    np.subtract(above, diff * (1 - g), out=out, where=g >= 0.5)
    return out


def _run_replicates(config: ScenarioConfig, names: Sequence[str],
                    one_replicate: Callable) -> tuple[TrajectoryResult, ...]:
    """One ``TrajectoryResult`` per strategy in ``names``, over every replicate.

    ``one_replicate(r, est, loss, lam)`` fills the NaN arrays ``est``
    (strategies, batches, tracked coordinates), ``loss`` and ``lam``
    (strategies, batches) of replicate ``r``, strategies in the order of
    ``names``.
    """
    S, T = len(names), config.n_batches
    tracked = tracked_positions(config)

    def run(r: int):
        est = np.full((S, T, len(tracked)), np.nan)
        loss = np.full((S, T), np.nan)
        lam = np.full((S, T), np.nan)
        one_replicate(r, est, loss, lam)
        return est, loss, lam

    rows = parallel_map(run, range(config.n_replicates))
    est, loss, lam = (np.stack([row[i] for row in rows], axis=1) for i in range(3))
    return tuple(TrajectoryResult(name=name, t_values=np.arange(1, T + 1), tracked=tracked,
                                  estimates=est[s], losses=loss[s], lambdas=lam[s])
                 for s, name in enumerate(names))


def _zero_state(config: ScenarioConfig) -> EstimatorState:
    names = covariate_names(config.p)
    return EstimatorState(
        family=config.family,
        registry=CovariateRegistry(names),
        init_target=CoefficientVector({n: 0.0 for n in names}),
        init_note="zeros",
    )


def initial_state(config: ScenarioConfig, replicate: int) -> EstimatorState:
    """Chain starting point for one replicate, per the scenario's init mode.

    ``ridge-on-first-batch`` sacrifices the replicate's t = 0 batch to a
    zero-target fit of the scenario's family (penalty by leave-one-out
    cross-validation) and uses that fit as the initial target; the
    sacrificed batch is folded into the state's past data so later
    constraint evaluations see it as history.
    """
    zero = _zero_state(config)
    if config.init_mode == "zero-target":
        return zero
    names = covariate_names(config.p)
    if config.init_mode == "truth-target":
        return replace(zero,
                       init_target=CoefficientVector.from_array(names, resolve_beta(config)),
                       init_note="truth")
    sel0 = PenaltySearchConfig(k_folds=None, constrained=False, grid=config.grid(),
                               seed=config.seed)
    return fit_first_batch(generate_batch(config, replicate, 0), sel0)[0]


def _record(beta: np.ndarray, cols: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, float]:
    diff = coef - beta
    return coef[cols], float(diff @ diff)


def run_study_regular_vs_updated(config: ScenarioConfig):
    """Chain with memory vs. from-scratch ridge refits, replicate by replicate.

    Each replicate initializes the chain by a zero-target ridge fit of its
    own sacrificed t = 0 batch (leave-one-out penalty), then both
    strategies see the same batches t = 1..T. The regular strategy
    re-selects a penalty and refits the family's model toward zero on
    every batch alone; both selections are unconstrained unless the
    scenario forces constraints on.
    """
    beta = resolve_beta(config)
    cols = np.array(tracked_positions(config)) - 1
    sel_plain = config.selection()
    sel_chain = config.selection()
    init_config = replace(config, init_mode="ridge-on-first-batch")
    family = get_family(config.family)

    def one_replicate(r: int, est, loss, lam):
        state = initial_state(init_config, r)
        for i, batch in enumerate(generate_batches(config, r)):
            rep = select_penalty(_zero_state(config), batch, sel_plain)
            refit = family.fit(batch.X, batch.y, rep.chosen_lambda, np.zeros(config.p))
            est[0, i], loss[0, i] = _record(beta, cols, refit)
            lam[0, i] = rep.chosen_lambda

            rep = select_penalty(state, batch, sel_chain)
            state = family.update(state, batch, rep.chosen_lambda)
            coef = state.current.as_array(batch.covariates)
            est[1, i], loss[1, i] = _record(beta, cols, coef)
            lam[1, i] = rep.chosen_lambda

    return _run_replicates(config, ("regular", "updated"), one_replicate)


def run_study_mixed_vs_updated(config: ScenarioConfig):
    """Pooled mixed-model refits vs. two sequential chains (zero / truth init).

    The pooled refit stacks batches 1..t and re-estimates the variance
    ratio each time, decomposing each batch once as it arrives
    (``_PooledRefit``); it only produces a value once the stacked data
    identify the model (t * n > p). Chain penalties come from constrained
    cross-validation unless the scenario forces constraints off.
    """
    if config.family != "linear":
        raise ValidationError("the pooled mixed baseline handles the linear family only")
    beta = resolve_beta(config)
    names = covariate_names(config.p)
    cols = np.array(tracked_positions(config)) - 1
    sel_chain = config.selection(constrained_default=True)
    ratio_grid = default_xi_grid(config.mixed_ratio_grid_points)
    family = get_family(config.family)

    def one_replicate(r: int, est, loss, lam):
        zero_state = _zero_state(config)
        truth_state = replace(zero_state,
                              init_target=CoefficientVector.from_array(names, beta),
                              init_note="truth")
        states = [zero_state, truth_state]
        pooled = _PooledRefit(ratio_grid)
        for i, batch in enumerate(generate_batches(config, r)):
            pooled.add(batch)
            if (i + 1) * config.n > config.p:
                try:
                    mfit = pooled.fit()
                except (SingularMatrixError, EstimationError):
                    pass
                else:
                    est[0, i], loss[0, i] = _record(beta, cols, mfit.fixed_effects)
            for j in (0, 1):
                rep = select_penalty(states[j], batch, sel_chain)
                states[j] = family.update(states[j], batch, rep.chosen_lambda)
                coef = states[j].current.as_array(names)
                est[j + 1, i], loss[j + 1, i] = _record(beta, cols, coef)
                lam[j + 1, i] = rep.chosen_lambda

    return _run_replicates(config, ("mixed", "updated-zero-init", "updated-truth-init"),
                           one_replicate)


@dataclass
class ConsistencyReport:
    """Single-trajectory behaviour under a deterministic penalty rule."""

    t_values: np.ndarray
    losses: np.ndarray
    lambdas: np.ndarray
    condition_met: bool
    ratio: float
    trend_ok: bool | None


def check_consistency_trajectory(config: ScenarioConfig,
                                 lambda_rule: Callable[[Batch], float] | None = None
                                 ) -> ConsistencyReport:
    """Run replicate 0's chain and report how the estimation error evolves.

    The default penalty rule is 2.2 times the squared largest singular
    value of the batch design, which keeps each step's shrinkage factor
    bounded away from 1. ``condition_met`` records whether the rule used
    stayed at or above twice the squared largest singular value at every
    step; only then is the error trend asserted-worthy, and ``trend_ok``
    says whether the last error is below 0.2 times the first. It is None
    otherwise (diagnostic mode for deliberately bad rules).
    """
    if lambda_rule is None:
        def lambda_rule(batch: Batch) -> float:
            top = np.linalg.norm(batch.X, 2)
            return 2.2 * top * top
    beta = resolve_beta(config)
    state = initial_state(config, 0)
    T = config.n_batches
    losses = np.empty(T)
    lambdas = np.empty(T)
    condition_met = True
    for i, batch in enumerate(generate_batches(config, 0)):
        lam = float(lambda_rule(batch))
        top = np.linalg.norm(batch.X, 2)
        if lam < 2.0 * top * top:
            condition_met = False
        state = get_family(config.family).update(state, batch, lam)
        coef = state.current.as_array(covariate_names(config.p))
        losses[i] = float(np.linalg.norm(coef - beta))
        lambdas[i] = lam
    ratio = float(losses[-1] / losses[0]) if losses[0] > 0 else 0.0
    trend_ok = (ratio < 0.2) if condition_met else None
    return ConsistencyReport(t_values=np.arange(1, T + 1), losses=losses,
                             lambdas=lambdas, condition_met=condition_met,
                             ratio=ratio, trend_ok=trend_ok)


@dataclass
class MomentCheckReport:
    """Monte Carlo agreement with the exact moment recursions."""

    exact: MomentReport
    mc_mean: np.ndarray
    mc_cov: np.ndarray
    max_mean_z: float
    max_cov_z: float
    n_mc: int


def check_moment_formulas(designs: Sequence[np.ndarray], lams: Sequence[float],
                          coef, target, noise_var: float, n_mc: int = 20000,
                          seed: int = 0) -> MomentCheckReport:
    """Simulate the chain n_mc times and standardize against the exact moments.

    Returns the largest mean and covariance discrepancies in standard
    error units; values of a few are consistent with exact formulas.
    """
    coef = np.asarray(coef, dtype=float)
    target = np.asarray(target, dtype=float)
    exact = exact_moments_general(designs, lams, coef, target, noise_var)
    p = coef.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    sd = np.sqrt(float(noise_var))
    B = np.tile(target, (n_mc, 1))
    for X_t, lam_t in zip(designs, lams):
        X_t = np.asarray(X_t, dtype=float)
        factor = _penalized_normal_factor(X_t.T @ X_t, float(lam_t))
        signal = X_t @ coef
        eps = sd * rng.standard_normal((n_mc, X_t.shape[0]))
        rhs = (signal + eps) @ X_t + lam_t * B
        B = cho_solve(factor, rhs.T).T
    mc_mean = B.mean(axis=0)
    mc_cov = np.atleast_2d(np.cov(B, rowvar=False, ddof=1))
    sd_mean = np.sqrt(np.diag(exact.covariance) / n_mc)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_z = np.abs(mc_mean - exact.mean) / sd_mean
    mean_z[~np.isfinite(mean_z)] = 0.0
    v = exact.covariance
    se_cov = np.sqrt((np.outer(np.diag(v), np.diag(v)) + v ** 2) / max(n_mc - 1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cov_z = np.abs(mc_cov - v) / se_cov
    cov_z[~np.isfinite(cov_z)] = 0.0
    return MomentCheckReport(exact=exact, mc_mean=mc_mean, mc_cov=mc_cov,
                             max_mean_z=float(mean_z.max() if p else 0.0),
                             max_cov_z=float(cov_z.max()), n_mc=n_mc)
