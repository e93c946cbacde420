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

Each study fixes how its chains start (``initial_state``): the regular
study from a zero-target ridge fit of a sacrificed t = 0 batch, the mixed
study from zeros and from the generating coefficients, one chain each.
Both return per-replicate trajectories of a few tracked coordinates plus
squared-error losses, summarized by quantile bands.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import EstimationError, SingularMatrixError, ValidationError
from .model_core import (FAMILIES, Batch, CoefficientVector, EstimatorState, _MAX_ELEMENTS,
                         _Record, _check_index, _check_real, _is_index, _real_array,
                         start_state)
from .penalty_tuning import (
    DEFAULT_GRID_MAX,
    DEFAULT_GRID_MIN,
    DEFAULT_GRID_POINTS,
    PenaltySearchConfig,
    _zero_target_fit,
    default_grid,
    fit_first_batch,
    get_family,
    select_penalty,
    selection_elements,
)
from .baselines import DEFAULT_XI_GRID_POINTS, _PooledRefit, default_xi_grid
from .parallel import parallel_map

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
]

_BASE_TRACKED = (1, 21, 51, 71, 101)
# The levels of a trajectory's quantile bands: a 90% band and its median.
QUANTILES = (0.05, 0.5, 0.95)


_STUDIES = ("regular-vs-updated", "mixed-vs-updated")


def _field(name: str) -> str:
    return f"scenario field {name!r}"


def _require(ok: bool, name: str, rule: str, value) -> None:
    if not ok:
        raise ValidationError(f"{_field(name)} must be {rule}, got {value!r}")


class ScenarioConfig(_Record):
    """Parameters of one simulation scenario.

    ``beta_rule`` is either ``"ramp"`` (generating coefficients follow a
    centered ramp over [-2.5, 2.5]: beta_j = (j - (p-1)/2) * 5 / (p-1)
    for j = 0..p-1, which at p = 101 is (j - 50)/20) or an explicit
    vector of length p. ``batch_effect_var`` adds a fresh Gaussian
    disturbance to the coefficients of every batch; ``empty_every`` makes
    every k-th batch carry no signal at all. ``constrained=None`` defers
    to each study's own convention.

    Each field is checked here, and a message names the field that breaks
    its rule. Values are stored as given (a NumPy scalar as its Python
    value, ``beta_rule`` entries as floats, ``tracked`` entries as ints),
    so a sidecar writes them back unchanged.
    """

    _fields = ("study", "family", "p", "n", "n_batches", "n_replicates", "beta_rule",
               "noise_var", "batch_effect_var", "empty_every", "orthonormal", "seed",
               "k_folds", "constrained", "grid_min", "grid_max", "grid_points",
               "mixed_ratio_grid_points", "tracked")

    def __init__(self, study: str = "regular-vs-updated", family: str = "linear",
                 p: int = 101, n: int = 25, n_batches: int = 25, n_replicates: int = 100,
                 beta_rule: str | tuple[float, ...] = "ramp", noise_var: float = 0.04,
                 batch_effect_var: float = 0.0, empty_every: int | None = None,
                 orthonormal: bool = False, seed: int = 0, k_folds: int | None = None,
                 constrained: bool | None = None, grid_min: float = DEFAULT_GRID_MIN,
                 grid_max: float = DEFAULT_GRID_MAX, grid_points: int = DEFAULT_GRID_POINTS,
                 mixed_ratio_grid_points: int = DEFAULT_XI_GRID_POINTS,
                 tracked: tuple[int, ...] | None = None) -> None:
        given = locals()
        v = {name: given[name].item() if isinstance(given[name], np.generic) else given[name]
             for name in self._fields}
        for name, allowed in (("study", _STUDIES), ("family", FAMILIES)):
            _require(isinstance(v[name], str) and v[name] in allowed, name,
                     f"one of {allowed}", v[name])
        _require(v["study"] != "mixed-vs-updated" or v["family"] == "linear", "family",
                 "'linear' in a mixed-vs-updated study", v["family"])
        for name in ("p", "n", "n_batches", "n_replicates", "grid_points",
                     "mixed_ratio_grid_points"):  # n >= 2: a fold plan needs two rows
            _check_index(v[name], 2 if name == "n" else 1, _field(name), _MAX_ELEMENTS)
        p, n, T, k = v["p"], v["n"], v["n_batches"], v["k_folds"]
        if k is not None:
            _check_index(k, 2, _field("k_folds"), n)
        # The regular study's first-batch fit always selects by leave-one-out.
        loo = v["study"] == "regular-vs-updated" or k in (None, n)
        sizes = [("p", "a Gram matrix", p * p),
                 ("n", "a batch's design", n * p),
                 ("n_batches", "a replicate's batches", T * n * p),
                 ("n_replicates", "a strategy's trajectories", v["n_replicates"] * T),
                 ("grid_points", "a selection's largest array",
                  selection_elements(v["family"], p, n, v["grid_points"], loo))]
        if v["study"] == "mixed-vs-updated":  # the one study that builds the ratio grid
            sizes.append(("mixed_ratio_grid_points", "the pooled refit's sums",
                          v["mixed_ratio_grid_points"] * p * p))
        for name, array, elements in sizes:
            _require(elements <= _MAX_ELEMENTS, name,
                     f"at most what keeps {array} within {_MAX_ELEMENTS} elements "
                     f"({elements} asked)", v[name])
        _check_index(v["seed"], 0, _field("seed"))
        if v["empty_every"] is not None:
            _check_index(v["empty_every"], 2, _field("empty_every"))
        for name in ("noise_var", "batch_effect_var"):
            _check_real(v[name], _field(name), ">= 0")
        _check_real(v["grid_min"], _field("grid_min"), "> 0")
        _check_real(v["grid_max"], _field("grid_max"))
        _require(v["grid_max"] > v["grid_min"], "grid_max",
                 f"above grid_min={v['grid_min']!r}", v["grid_max"])
        _require(isinstance(v["orthonormal"], bool), "orthonormal", "true or false",
                 v["orthonormal"])
        _require(v["constrained"] is None or isinstance(v["constrained"], bool), "constrained",
                 "true, false or null", v["constrained"])
        _require(not v["orthonormal"] or v["n"] >= v["p"], "orthonormal",
                 f"false when n < p (n={v['n']}, p={v['p']})", v["orthonormal"])
        rule = v["beta_rule"]
        _require(rule == "ramp" if isinstance(rule, str) else
                 isinstance(rule, (list, tuple, np.ndarray)) and len(rule) == v["p"],
                 "beta_rule", f"'ramp' or a list of p={v['p']} finite numbers", rule)
        if not isinstance(rule, str):
            v["beta_rule"] = tuple(_real_array(rule, _field("beta_rule"), 1).tolist())
        tracked = v["tracked"]
        if tracked is not None:
            _require(isinstance(tracked, (list, tuple, np.ndarray)) and len(tracked) > 0
                     and all(_is_index(pos) and 1 <= pos <= v["p"] for pos in tracked),
                     "tracked", f"null or a non-empty list of positions in 1..p={v['p']}",
                     tracked)
            v["tracked"] = tuple(int(pos) for pos in tracked)
        self.__dict__.update(v)

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
        doc = {name: getattr(self, name) for name in self._fields}
        for name in ("beta_rule", "tracked"):
            if isinstance(doc[name], tuple):
                doc[name] = list(doc[name])
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioConfig":
        """Build a config from a parsed JSON object; the constructor checks the values."""
        if not isinstance(doc, dict):
            raise ValidationError("a scenario must be a JSON object")
        unknown = set(doc) - set(ScenarioConfig._fields)
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


class TrajectoryResult(_Record):
    """Per-replicate trajectories of one estimation strategy.

    ``estimates`` is (replicates, batches, tracked coordinates);
    ``losses`` holds squared-error losses ||estimate - beta||^2 and
    ``lambdas`` the chosen penalties, NaN where a strategy has no value
    at that t (e.g. the pooled refit before it is identified, or
    penalties of a strategy that has none).
    """

    _fields = ("name", "t_values", "tracked", "estimates", "losses", "lambdas")

    def __init__(self, name: str, t_values: np.ndarray, tracked: tuple[int, ...],
                 estimates: np.ndarray, losses: np.ndarray, lambdas: np.ndarray) -> None:
        R, T, C = estimates.shape
        if t_values.shape != (T,) or losses.shape != (R, T) \
                or lambdas.shape != (R, T) or len(tracked) != C:
            raise ValidationError("trajectory arrays have inconsistent shapes")
        with np.errstate(invalid="ignore"):
            if np.any(losses[np.isfinite(losses)] < 0):
                raise ValidationError("losses must be >= 0")
        self.__dict__.update(name=name, t_values=t_values, tracked=tracked,
                             estimates=estimates, losses=losses, lambdas=lambdas)

    def quantile_bands(self) -> np.ndarray:
        """(3, T, C) coordinate quantiles at the ``QUANTILES`` levels across
        replicates, NaNs ignored.

        Equal to ``np.nanquantile(self.estimates, QUANTILES, axis=0)`` (see
        ``_nan_quantiles``); a (t, coordinate) with no value gives NaN,
        without a warning.
        """
        return _nan_quantiles(self.estimates, np.array(QUANTILES))

    def mean_loss(self) -> np.ndarray:
        """(T,) mean squared-error loss across replicates (NaN-aware)."""
        out = np.full(self.t_values.shape, np.nan)
        for i in range(out.shape[0]):
            col = self.losses[:, i]
            if np.any(np.isfinite(col)):
                out[i] = np.nanmean(col)
        return out


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


def initial_state(config: ScenarioConfig, replicate: int, start: str) -> EstimatorState:
    """Chain starting point for one replicate.

    ``start`` is ``zero-target`` or ``truth-target``, zeros or the
    generating coefficients, or ``ridge-on-first-batch``: that sacrifices
    the replicate's t = 0 batch to a zero-target fit of the scenario's
    family (penalty by leave-one-out cross-validation) and uses that fit as
    the initial target; the sacrificed batch is folded into the state's
    past data so later constraint evaluations see it as history.
    """
    names = covariate_names(config.p)
    if start == "zero-target":
        return start_state(config.family, names)
    if start == "truth-target":
        return start_state(config.family, names,
                           CoefficientVector.from_array(names, resolve_beta(config)), "truth")
    if start == "ridge-on-first-batch":
        sel0 = PenaltySearchConfig(k_folds=None, constrained=False, grid=config.grid(),
                                   seed=config.seed)
        return fit_first_batch(generate_batch(config, replicate, 0), sel0)[0]
    raise ValidationError(f"unknown chain start {start!r}")


def _record(beta: np.ndarray, cols: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, float]:
    diff = coef - beta
    return coef[cols], float(diff @ diff)


def run_study_regular_vs_updated(config: ScenarioConfig):
    """Chain with memory vs. from-scratch ridge refits, replicate by replicate.

    Each replicate initializes the chain by a zero-target ridge fit of its
    own sacrificed t = 0 batch (leave-one-out penalty), then both
    strategies see the same batches t = 1..T. The regular strategy
    re-selects a penalty and refits the family's model toward zero on
    every batch alone, the fit ``fit_first_batch`` makes; both selections
    are unconstrained unless the scenario forces constraints on.
    """
    beta = resolve_beta(config)
    cols = np.array(tracked_positions(config)) - 1
    sel = config.selection()
    family = get_family(config.family)

    def one_replicate(r: int, est, loss, lam):
        state = initial_state(config, r, "ridge-on-first-batch")
        for i, batch in enumerate(generate_batches(config, r)):
            refit, rep = _zero_target_fit(batch, sel)
            est[0, i], loss[0, i] = _record(beta, cols, refit)
            lam[0, i] = rep.chosen_lambda

            rep = select_penalty(state, batch, sel)
            state = family.update(state, batch, rep.chosen_lambda)
            coef = state.current.as_array(batch.covariates)
            est[1, i], loss[1, i] = _record(beta, cols, coef)
            lam[1, i] = rep.chosen_lambda

    return _run_replicates(config, ("regular", "updated"), one_replicate)


def run_study_mixed_vs_updated(config: ScenarioConfig):
    """Pooled mixed-model refits vs. two sequential chains (zero / truth init).

    The pooled refit of batches 1..t re-estimates the variance ratio each
    time from one spectrum per batch, taken as it arrives (``_PooledRefit``),
    and has a value once the pooled rows identify the model (t * n > p); the
    scenario holds this study to the linear family. Chain penalties come
    from cross-validation, constrained unless the scenario says otherwise.
    """
    beta = resolve_beta(config)
    names = covariate_names(config.p)
    cols = np.array(tracked_positions(config)) - 1
    sel_chain = config.selection(constrained_default=True)
    ratio_grid = default_xi_grid(config.mixed_ratio_grid_points)
    family = get_family(config.family)

    def one_replicate(r: int, est, loss, lam):
        states = [initial_state(config, r, start) for start in ("zero-target", "truth-target")]
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
