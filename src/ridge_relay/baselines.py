"""Reference estimators the sequential update is compared against.

The main baseline refits on all retained batches at once under a mixed
model: stacking batches 1..t as (Y, X) with a per-batch random deviation
of the coefficients, the marginal covariance of Y is block diagonal with
blocks

    Omega_tau = I + xi * X_tau X_tau',

where xi is the ratio of the deviation variance to the noise variance.
The fixed effects solve the generalized least squares equations

    [sum_tau X_tau' Omega_tau^{-1} X_tau] b = sum_tau X_tau' Omega_tau^{-1} y_tau.

Each block satisfies X' Omega^{-1} = (I_p + xi X'X)^{-1} X' (the
Woodbury identity), so every solve runs in p-space. Each block's X'X is
diagonalized once, through the block's thin SVD, after which every ratio
costs only diagonal scalings; the fixed effects, their exact moments and
the profile likelihood all come from these spectra. ``estimate_xi``
picks xi by maximizing the Gaussian likelihood profiled over the noise
variance, using the determinant identity det(I_n + xi XX') =
det(I_p + xi X'X).

The mixed-vs-updated study refits the pooled model after every batch
through ``_PooledRefit``, which keeps one spectrum per batch and no
rows. It adds each arriving block's Woodbury terms to running sums over
the ratio grid, as ``estimate_xi`` does from zeros in the same block
order, and both finish in one ``_profile_fit``, so the refit after
batch t equals ``estimate_xi`` on the stack of batches 1..t to the bit.

A state-space variant in which the coefficients themselves drift from
batch to batch by a random walk leads to the same maximum likelihood
fixed-effects estimator as this model, so it gets no separate solver.

``plain_ridge`` is the zero-target ridge refit on a single batch, the
no-memory baseline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._numerics import cho_factor, cho_solve
from .errors import EstimationError, SingularMatrixError, ValidationError
from .model_core import Batch, _MAX_ELEMENTS, _Record, _real_array, _check_index, _check_real
from .linear_estimator import MomentReport, fit_targeted_ridge

__all__ = [
    "StackedData",
    "stack_batches",
    "MixedFit",
    "mixed_fixed_effects",
    "mixed_moments",
    "estimate_xi",
    "DEFAULT_XI_GRID_POINTS",
    "default_xi_grid",
    "plain_ridge",
]


class StackedData(_Record):
    """Batches 1..t stacked for a pooled refit, block structure kept.

    ``batch_boundaries`` holds the half-open row range of each batch
    inside the stack, in batch order and covering every row exactly once.
    """

    _fields = ("y_stack", "x_stack", "batch_boundaries")

    def __init__(self, y_stack: np.ndarray, x_stack: np.ndarray,
                 batch_boundaries: tuple[tuple[int, int], ...]) -> None:
        X = _real_array(x_stack, "x_stack", 2)
        y = _real_array(y_stack, "y_stack")
        if y.shape != (X.shape[0],):
            raise ValidationError(
                f"y_stack has shape {y.shape} for {X.shape[0]} stacked rows")
        bounds = tuple((int(a), int(b)) for a, b in batch_boundaries)
        if not bounds:
            raise ValidationError("stacked data needs at least one batch")
        expect = 0
        for start, stop in bounds:
            if start != expect or stop <= start:
                raise ValidationError(
                    "batch boundaries must be consecutive non-empty row ranges")
            expect = stop
        if expect != X.shape[0]:
            raise ValidationError("batch boundaries must cover every stacked row")
        self.__dict__.update(y_stack=y, x_stack=X, batch_boundaries=bounds)

    @property
    def n(self) -> int:
        return self.y_stack.shape[0]

    @property
    def p(self) -> int:
        return self.x_stack.shape[1]

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self.x_stack[a:b] for a, b in self.batch_boundaries)

    def y_blocks(self) -> list[np.ndarray]:
        return [self.y_stack[a:b] for a, b in self.batch_boundaries]


def _check_stackable(batch: Batch, names: tuple[str, ...]) -> None:
    if batch.family != "linear":
        raise ValidationError("the mixed baseline handles the linear family only")
    if batch.covariates != names:
        raise ValidationError("all stacked batches must share one covariate layout")


def stack_batches(batches: Sequence[Batch]) -> StackedData:
    """Stack linear batches that share one covariate layout."""
    if not batches:
        raise ValidationError("need at least one batch")
    for b in batches:
        _check_stackable(b, batches[0].covariates)
    bounds = []
    start = 0
    for b in batches:
        bounds.append((start, start + b.n))
        start += b.n
    return StackedData(y_stack=np.concatenate([b.y for b in batches]),
                       x_stack=np.vstack([b.X for b in batches]),
                       batch_boundaries=tuple(bounds))


class MixedFit(_Record):
    """Mixed-model refit at the likelihood-chosen variance ratio.

    ``xi`` is the ratio of the per-batch coefficient-deviation variance
    ``sigma_gamma_sq`` to the noise variance ``sigma_eps_sq``.
    """

    _fields = ("fixed_effects", "xi", "sigma_eps_sq", "sigma_gamma_sq", "profile_loglik")

    def __init__(self, fixed_effects: np.ndarray, xi: float, sigma_eps_sq: float,
                 sigma_gamma_sq: float, profile_loglik: float) -> None:
        self.__dict__.update(fixed_effects=fixed_effects, xi=xi, sigma_eps_sq=sigma_eps_sq,
                             sigma_gamma_sq=sigma_gamma_sq, profile_loglik=profile_loglik)


def _block_spectrum(X: np.ndarray, y: np.ndarray) -> tuple:
    """(s, V, c, off) of the thin SVD X = U diag(s) V', with c = U'y and
    off = ||y - U c||^2: all a pooled fit reads from the block. The null
    directions of a block with fewer rows than covariates are left out
    exactly. c is kept as U'y, since a zero column gives an s near 1e-17.
    """
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    c = U.T @ y
    rest = y - U @ c
    return s, Vt.T, c, float(rest @ rest)


def _block_spectra(data: StackedData) -> list:
    """``_block_spectrum`` of every block, in block order."""
    return [_block_spectrum(X, y) for X, y in zip(data.blocks, data.y_blocks())]


def _woodbury_zeros(p: int, xis: np.ndarray):
    """Empty (C, b, logdet) sums for ``_woodbury_add``."""
    return (np.zeros((xis.shape[0], p, p)), np.zeros((xis.shape[0], p)),
            np.zeros(xis.shape[0]))


def _woodbury_add(sums, spectrum, xis: np.ndarray) -> None:
    """Add one block's X'Omega^{-1}X, X'Omega^{-1}y and log det Omega, for
    every ratio, to the running sums (C, b, logdet) in place: with d = s^2
    they are V diag(d / (1 + xi d)) V', V (s c / (1 + xi d)) and
    sum log(1 + xi d), diagonal scalings of the block's one eigenbasis.
    Every 1 + xi d is at least 1, as d >= 0 and xi >= 0.
    """
    C, b, logdet = sums
    s, V, c, _ = spectrum
    d = s * s
    inner = 1.0 + np.outer(xis, d)
    logdet += np.log(inner).sum(axis=1)
    C += (V * (d / inner)[:, None, :]) @ V.T
    b += (s * c / inner) @ V.T


def _woodbury_grid(spectra, xis: np.ndarray):
    """(C, b, logdet) summed over the blocks in order, stacked over ``xis``."""
    sums = _woodbury_zeros(spectra[0][1].shape[0], xis)
    for spectrum in spectra:
        _woodbury_add(sums, spectrum, xis)
    return sums


def _solve_spd(C: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    factor = cho_factor(0.5 * (C + C.T), what)
    if not _pivots_ok(factor.lower[None])[0]:
        raise SingularMatrixError(f"{what} is numerically singular")
    return cho_solve(factor, rhs)


def _pivots_ok(lower: np.ndarray) -> np.ndarray:
    """Per stacked Cholesky factor, whether its smallest pivot exceeds
    1e-10 times its largest."""
    pivots = np.abs(np.diagonal(lower, axis1=1, axis2=2))
    return pivots.min(axis=1, initial=np.inf) > 1e-10 * np.maximum(
        pivots.max(axis=1, initial=0.0), 1e-300)


def _solve_spd_stack(C: np.ndarray, b: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``_solve_spd`` on each of the stacked systems ``C[i] x = b[i]``.

    Returns the solutions and a mask that is False where a system failed
    (its row of solutions is then zero). One Cholesky factorization and
    one solve serve the whole stack; if either fails, each system is
    solved on its own, so every failing one is still found. A non-finite
    entry either fails the factorization or leaves a NaN or infinite
    pivot, which fails the pivot check.
    """
    out = np.zeros(b.shape)
    sym = 0.5 * (C + np.swapaxes(C, 1, 2))
    try:
        ok = _pivots_ok(np.linalg.cholesky(sym))
        out[ok] = np.linalg.solve(sym[ok], b[ok][:, :, None])[:, :, 0]
        return out, ok
    except np.linalg.LinAlgError:
        pass
    ok = np.ones(b.shape[0], dtype=bool)
    for i in range(b.shape[0]):
        try:
            out[i] = _solve_spd(C[i], b[i], what)
        except SingularMatrixError:
            ok[i] = False
    return out, ok


def mixed_fixed_effects(data: StackedData, xi: float) -> np.ndarray:
    """GLS fixed effects at a known variance ratio ``xi``.

    The block systems are solved in p-space from each block's
    eigenpairs, the same route ``estimate_xi`` takes at every ratio.
    """
    xi = _check_real(xi, "variance ratio", ">= 0")
    if data.n < data.p:
        raise SingularMatrixError(
            f"{data.n} stacked rows cannot identify {data.p} fixed effects")
    C, b, _ = _woodbury_grid(_block_spectra(data), np.array([xi]))
    return _solve_spd(C[0], b[0], "the GLS normal matrix")


def mixed_moments(data: StackedData, xi: float, sigma_eps_sq: float,
                  sigma_gamma_sq: float, coef) -> MomentReport:
    """Exact sampling moments of the GLS fixed effects.

    The generating model has coefficient vector ``coef``, noise variance
    ``sigma_eps_sq`` and per-batch coefficient-deviation variance
    ``sigma_gamma_sq``; the estimator runs at ``xi``, which need not
    equal their quotient, so the covariance is the two-sided sandwich
    rather than the oracle form. The mean is evaluated from the
    unsimplified weighting-matrix product, which collapses to ``coef``
    whenever the normal matrix is invertible.

    Per block, with H = (I + xi X'X)^{-1} and X'X = V diag(d) V', the
    normal matrix gains H X'X = V diag(d / (1 + xi d)) V' and the middle
    of the sandwich gains sigma_eps_sq H X'X H + sigma_gamma_sq (H X'X)^2
    = V diag(d (sigma_eps_sq + sigma_gamma_sq d) / (1 + xi d)^2) V'.
    """
    xi = _check_real(xi, "variance ratio", ">= 0")
    sigma_eps_sq = _check_real(sigma_eps_sq, "noise variance", ">= 0")
    sigma_gamma_sq = _check_real(sigma_gamma_sq, "deviation variance", ">= 0")
    coef = _real_array(coef, "coef")
    if coef.shape != (data.p,):
        raise ValidationError(f"coef must have length {data.p}")
    p = data.p
    C = np.zeros((p, p))
    M = np.zeros((p, p))
    for s, V, _, _ in _block_spectra(data):
        d = s * s
        inner = 1.0 + xi * d
        C += (V * (d / inner)) @ V.T
        M += (V * (d * (sigma_eps_sq + sigma_gamma_sq * d) / inner ** 2)) @ V.T
    mean = _solve_spd(C, C @ coef, "the GLS normal matrix")
    inv_C = _solve_spd(C, np.eye(p), "the GLS normal matrix")
    cov = inv_C @ M @ inv_C
    return MomentReport(mean=mean, covariance=0.5 * (cov + cov.T),
                        noise_var=sigma_eps_sq)


DEFAULT_XI_GRID_POINTS = 25


def default_xi_grid(points: int = DEFAULT_XI_GRID_POINTS) -> tuple[float, ...]:
    """``points`` (an index up to ``_MAX_ELEMENTS``) log-spaced ratios for ``estimate_xi``."""
    _check_index(points, 1, "points", _MAX_ELEMENTS)
    return tuple(np.geomspace(1e-4, 1e4, points).tolist())


def _ratio_grid(grid: Sequence[float] | None) -> np.ndarray:
    xis = _real_array(default_xi_grid() if grid is None else grid, "variance ratios", 1,
                      copy=True, bound=">= 0")
    if not xis.size:
        raise ValidationError("the ratio grid must be non-empty")
    return xis


def _profile_fit(n: int, p: int, xis: np.ndarray, spectra, sums) -> MixedFit:
    """The likelihood-best ``MixedFit`` over ``xis`` of ``n`` rows and
    ``p`` fixed effects, from the blocks' spectra and summed (C, b, logdet).

    One stacked solve gives the fixed effects at every ratio, each with
    its pivot check. The noise variance is q(xi)/n, where the GLS
    quadratic form q = sum_blocks [off + sum_i h_i^2 / (1 + xi s_i^2)],
    h = c - s * (V' beta), sums non-negative terms. Ratios whose solve
    fails are skipped; if all do, this raises.
    """
    if n < p:
        raise EstimationError(f"{n} stacked rows cannot identify {p} fixed effects")
    C, b, logdet = sums
    betas, ok = _solve_spd_stack(C, b, "the GLS normal matrix")
    quad = np.zeros(xis.shape[0])
    for s, V, c, off in spectra:
        h = c[:, None] - s[:, None] * (V.T @ betas.T)
        quad += off + (h * h / (1.0 + np.outer(s * s, xis))).sum(axis=0)
    best: MixedFit | None = None
    failures = 0
    for i, xi in enumerate(xis.tolist()):
        if not ok[i] or quad[i] <= 0:
            failures += 1
            continue
        sigma_sq = float(quad[i]) / n
        loglik = -0.5 * (n * np.log(2.0 * np.pi * sigma_sq) + float(logdet[i]) + n)
        if best is None or loglik > best.profile_loglik:
            best = MixedFit(fixed_effects=betas[i], xi=xi,
                            sigma_eps_sq=sigma_sq, sigma_gamma_sq=xi * sigma_sq,
                            profile_loglik=float(loglik))
    if best is None:
        raise EstimationError(
            f"the mixed-model fit failed at all {failures} grid ratios")
    return best


def estimate_xi(data: StackedData, grid: Sequence[float] | None = None) -> MixedFit:
    """Choose the variance ratio by profiled Gaussian maximum likelihood.

    Each block is decomposed once; the fixed effects, noise variance and
    profile likelihood at every grid ratio come from those spectra alone
    (``_profile_fit``). Grid points where the solve fails are skipped; if
    all fail this raises.
    """
    xis = _ratio_grid(grid)
    spectra = _block_spectra(data)
    return _profile_fit(data.n, data.p, xis, spectra, _woodbury_grid(spectra, xis))


class _PooledRefit:
    """``estimate_xi`` on a stream of linear batches that grows one at a time.

    Each batch is kept as its block spectrum alone, its Woodbury terms
    added to running sums in arrival order; ``fit`` then equals
    ``estimate_xi(stack_batches(batches so far), grid)`` to the bit, as
    both run ``_profile_fit``, with no batch stacked or checked again.
    """

    def __init__(self, grid: Sequence[float] | None = None) -> None:
        self.xis = _ratio_grid(grid)
        self._names: tuple[str, ...] = ()
        self._rows = 0
        self._spectra: list[tuple[np.ndarray, np.ndarray, np.ndarray, float]] = []
        self._sums = None

    def add(self, batch: Batch) -> None:
        """Take the next batch: one thin SVD, its terms added to the sums."""
        _check_stackable(batch, self._names or batch.covariates)
        spectrum = _block_spectrum(batch.X, batch.y)
        if not self._names:
            self._names, self._sums = batch.covariates, _woodbury_zeros(batch.p, self.xis)
        _woodbury_add(self._sums, spectrum, self.xis)
        self._rows += batch.n
        self._spectra.append(spectrum)

    def fit(self) -> MixedFit:
        """The refit on every batch added so far."""
        if not self._names:
            raise ValidationError("need at least one batch")
        return _profile_fit(self._rows, len(self._names), self.xis, self._spectra, self._sums)


def plain_ridge(X, y, lam: float) -> np.ndarray:
    """Zero-target ridge coefficients on a single batch: the no-memory baseline."""
    X = _real_array(X, "X", 2)
    return fit_targeted_ridge(X, y, lam, np.zeros(X.shape[1]))
