"""Tests for the comparator estimators: stacked mixed-model GLS with its
exact moments, the variance-ratio profiler, and plain ridge.

The GLS solver is checked against a fully dense construction of the
weighting matrix, the moment formulas against Monte Carlo simulation of
the generating mixed model, and the profiler against data simulated at
known variance ratios and, as a property over generated stacks, against
a direct block oracle that factors every n_tau-sized block
Omega = I + xi X X' at every ratio. The per-batch carried refit of a
growing stream is checked against the profiler at every prefix, to the
bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import optimize

from ridge_relay import (
    Batch,
    EstimationError,
    MixedFit,
    SingularMatrixError,
    StackedData,
    ValidationError,
    default_xi_grid,
    estimate_xi,
    fit_targeted_ridge,
    mixed_fixed_effects,
    mixed_moments,
    plain_ridge,
    stack_batches,
)
from ridge_relay._numerics import cho_factor, cho_solve
from ridge_relay import baselines
from ridge_relay.baselines import (
    _PooledRefit, _block_spectra, _solve_spd, _solve_spd_stack, _woodbury_grid)


def random_batches(rng, t, n, p, coef, noise_sd=1.0, effect_sd=0.0):
    names = tuple(f"x{j}" for j in range(p))
    batches = []
    for idx in range(1, t + 1):
        X = rng.standard_normal((n, p))
        slope = coef + effect_sd * rng.standard_normal(p)
        y = X @ slope + noise_sd * rng.standard_normal(n)
        batches.append(Batch(t=idx, X=X, y=y, covariates=names))
    return batches


def z_block(data):
    """Dense random-effect design: batch tau's rows hit coefficient block tau."""
    p = data.p
    Z = np.zeros((data.n, data.n_batches * p))
    for tau, (a, b) in enumerate(data.batch_boundaries):
        Z[a:b, tau * p:(tau + 1) * p] = data.x_stack[a:b]
    return Z


def dense_gls(data, xi):
    """GLS fixed effects via an explicit dense weighting-matrix inverse."""
    Z = z_block(data)
    omega = xi * (Z @ Z.T) + np.eye(data.n)
    w = np.linalg.inv(omega)
    xtw = data.x_stack.T @ w
    return np.linalg.solve(xtw @ data.x_stack, xtw @ data.y_stack)


def direct_blocks(data, xi):
    """X'Omega^{-1}X and X'Omega^{-1}y from each n_tau block, plus log det Omega."""
    C = np.zeros((data.p, data.p))
    b = np.zeros(data.p)
    logdet = 0.0
    for X, y in zip(data.blocks, data.y_blocks()):
        sign, ld = np.linalg.slogdet(np.eye(data.p) + xi * (X.T @ X))
        if sign <= 0:
            raise SingularMatrixError("I + xi X'X has non-positive determinant")
        logdet += ld
        omega = np.eye(X.shape[0]) + xi * (X @ X.T)
        S = cho_solve(cho_factor(omega, "a marginal covariance block"), X)
        C += X.T @ S
        b += S.T @ y
    return C, b, logdet


def direct_fixed_effects(data, xi):
    C, b, _ = direct_blocks(data, xi)
    return _solve_spd(C, b, "the GLS normal matrix")


def direct_profile_point(data, xi):
    """(fixed effects, GLS quadratic form, log det Omega) at one ratio, or None."""
    try:
        C, b, logdet = direct_blocks(data, xi)
        beta = _solve_spd(C, b, "the GLS normal matrix")
        quad = 0.0
        for X, y in zip(data.blocks, data.y_blocks()):
            r = y - X @ beta
            gram_r = X.T @ r
            inner = np.eye(data.p) + xi * (X.T @ X)
            quad += float(r @ r) - xi * float(gram_r @ cho_solve(
                cho_factor(inner, "I + xi X'X"), gram_r))
    except SingularMatrixError:
        return None
    return beta, quad, logdet


def direct_estimate_xi(data, grid):
    """(ratio, fixed effects) maximizing the profile likelihood over ``grid``,
    every point evaluated by the direct block oracle; ties keep the first."""
    best = None
    for xi in grid:
        point = direct_profile_point(data, xi)
        if point is None or point[1] <= 0:
            continue
        beta, quad, logdet = point
        sigma_sq = quad / data.n
        loglik = -0.5 * (data.n * np.log(2.0 * np.pi * sigma_sq) + logdet + data.n)
        if best is None or loglik > best[0]:
            best = (loglik, xi, beta)
    return best[1], best[2]


class TestStackedData:
    def test_block_diagonal_layout(self):
        rng = np.random.default_rng(101)
        batches = random_batches(rng, 3, 4, 2, np.zeros(2))
        data = stack_batches(batches)
        Z = z_block(data)
        assert Z.shape == (12, 6)
        for tau, (start, stop) in enumerate(data.batch_boundaries):
            block = Z[start:stop, 2 * tau:2 * (tau + 1)]
            np.testing.assert_array_equal(block, batches[tau].X)
            outside = Z[start:stop].copy()
            outside[:, 2 * tau:2 * (tau + 1)] = 0.0
            assert np.all(outside == 0.0)

    def test_stacking_preserves_rows_in_order(self):
        rng = np.random.default_rng(102)
        batches = random_batches(rng, 2, 3, 2, np.ones(2))
        data = stack_batches(batches)
        np.testing.assert_array_equal(data.x_stack, np.vstack([b.X for b in batches]))
        np.testing.assert_array_equal(data.y_stack,
                                      np.concatenate([b.y for b in batches]))
        assert data.n == 6 and data.p == 2 and data.n_batches == 2

    def test_boundaries_must_tile_the_rows(self):
        rng = np.random.default_rng(103)
        with pytest.raises(ValidationError):
            StackedData(y_stack=rng.standard_normal(4),
                        x_stack=rng.standard_normal((4, 1)),
                        batch_boundaries=((0, 2), (3, 4)))
        with pytest.raises(ValidationError):
            StackedData(y_stack=rng.standard_normal(4),
                        x_stack=rng.standard_normal((4, 1)),
                        batch_boundaries=((0, 2), (2, 2), (2, 4)))

    def test_mixed_family_stacking_rejected(self):
        a = Batch(t=1, X=np.ones((2, 1)), y=np.ones(2), covariates=("a",))
        b = Batch(t=2, X=np.ones((2, 1)), y=np.array([0.0, 1.0]),
                  covariates=("a",), family="logistic")
        with pytest.raises(ValidationError):
            stack_batches([a, b])


class TestMixedFixedEffects:
    def test_zero_ratio_is_pooled_least_squares(self):
        rng = np.random.default_rng(104)
        data = stack_batches(random_batches(rng, 3, 6, 2, np.array([1.0, -1.0])))
        pooled = np.linalg.lstsq(data.x_stack, data.y_stack, rcond=None)[0]
        np.testing.assert_allclose(mixed_fixed_effects(data, 0.0), pooled,
                                   atol=1e-10)

    def test_single_orthonormal_batch_by_hand(self):
        """One batch with orthonormal columns: the correlation induced by
        the batch effect cancels and the estimator is X'y for every ratio."""
        rng = np.random.default_rng(105)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        y = rng.standard_normal(5)
        batch = Batch(t=1, X=Q, y=y, covariates=("a", "b"))
        data = stack_batches([batch])
        for xi in (0.5, 1.0, 7.0):
            np.testing.assert_allclose(mixed_fixed_effects(data, xi), Q.T @ y,
                                       atol=1e-10)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(106)
        for trial in range(5):
            t = int(rng.integers(2, 5))
            n = int(rng.integers(4, 9))
            p = int(rng.integers(1, 4))
            data = stack_batches(random_batches(rng, t, n, p,
                                                rng.standard_normal(p),
                                                effect_sd=0.5))
            xi = float(rng.choice([0.1, 1.0, 10.0]))
            oracle = dense_gls(data, xi)
            np.testing.assert_allclose(mixed_fixed_effects(data, xi), oracle,
                                       atol=1e-8)

    def test_solver_paths_agree(self):
        """The per-block spectral solve and the direct block oracle give the
        same estimator on tall, square and wide batches."""
        rng = np.random.default_rng(107)
        for t, n, p in ((2, 10, 2), (4, 3, 3), (3, 5, 4)):
            data = stack_batches(random_batches(rng, t, n, p,
                                                rng.standard_normal(p),
                                                effect_sd=1.0))
            np.testing.assert_allclose(mixed_fixed_effects(data, 2.0),
                                       direct_fixed_effects(data, 2.0), atol=1e-8)

    def test_underdetermined_stack_raises(self):
        rng = np.random.default_rng(108)
        X = rng.standard_normal((2, 3))
        batch = Batch(t=1, X=X, y=rng.standard_normal(2),
                      covariates=("a", "b", "c"))
        with pytest.raises(SingularMatrixError):
            mixed_fixed_effects(stack_batches([batch]), 1.0)

    def test_negative_ratio_rejected(self):
        rng = np.random.default_rng(109)
        data = stack_batches(random_batches(rng, 2, 5, 2, np.zeros(2)))
        with pytest.raises(ValidationError):
            mixed_fixed_effects(data, -0.5)


class TestMixedMoments:
    def test_mean_equals_generating_coefficients(self):
        rng = np.random.default_rng(111)
        for _ in range(8):
            t = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            coef = rng.standard_normal(p)
            data = stack_batches(random_batches(rng, t, 8, p, coef))
            xi = float(rng.choice([0.0, 0.3, 5.0]))
            report = mixed_moments(data, xi, 1.0, 0.7, coef)
            np.testing.assert_allclose(report.mean, coef, atol=1e-10)

    def test_no_batch_effects_at_zero_ratio_gives_ols_variance(self):
        rng = np.random.default_rng(112)
        coef = np.array([1.0, 2.0])
        data = stack_batches(random_batches(rng, 3, 7, 2, coef))
        sigma_eps = 1.9
        report = mixed_moments(data, 0.0, sigma_eps, 0.0, coef)
        ols_cov = sigma_eps * np.linalg.inv(data.x_stack.T @ data.x_stack)
        np.testing.assert_allclose(report.covariance, ols_cov, atol=1e-10)

    def test_monte_carlo_agreement_at_matched_ratio(self):
        """Simulating the mixed model and applying an independently built
        dense estimator map reproduces the covariance formula."""
        rng = np.random.default_rng(113)
        t, n, p = 3, 8, 2
        coef = np.array([1.0, -0.5])
        sigma_eps_sq, sigma_gamma_sq = 1.0, 0.5
        xi = sigma_gamma_sq / sigma_eps_sq
        data = stack_batches(random_batches(rng, t, n, p, coef))
        report = mixed_moments(data, xi, sigma_eps_sq, sigma_gamma_sq, coef)

        Z = z_block(data)
        omega = xi * (Z @ Z.T) + np.eye(data.n)
        w = np.linalg.inv(omega)
        xtw = data.x_stack.T @ w
        est_map = np.linalg.solve(xtw @ data.x_stack, xtw)

        reps = 20000
        gammas = np.sqrt(sigma_gamma_sq) * rng.standard_normal((reps, t * p))
        noise = np.sqrt(sigma_eps_sq) * rng.standard_normal((reps, data.n))
        responses = data.x_stack @ coef + gammas @ Z.T + noise
        draws = responses @ est_map.T

        cov = report.covariance
        se_mean = np.sqrt(np.diag(cov) / reps)
        assert np.max(np.abs(draws.mean(axis=0) - report.mean) / se_mean) < 3.0
        sample_cov = np.cov(draws, rowvar=False)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2)
                         / (reps - 1))
        assert np.max(np.abs(sample_cov - cov) / se_cov) < 3.0

    def test_monte_carlo_agreement_at_mismatched_ratio(self):
        """The sandwich form stays exact when the estimator's ratio differs
        from the generating one."""
        rng = np.random.default_rng(114)
        t, n, p = 2, 9, 2
        coef = np.array([0.5, 1.5])
        sigma_eps_sq, sigma_gamma_sq = 1.0, 2.0
        xi = 0.1
        data = stack_batches(random_batches(rng, t, n, p, coef))
        report = mixed_moments(data, xi, sigma_eps_sq, sigma_gamma_sq, coef)

        Z = z_block(data)
        omega = xi * (Z @ Z.T) + np.eye(data.n)
        w = np.linalg.inv(omega)
        xtw = data.x_stack.T @ w
        est_map = np.linalg.solve(xtw @ data.x_stack, xtw)

        reps = 8000
        gammas = np.sqrt(sigma_gamma_sq) * rng.standard_normal((reps, t * p))
        noise = np.sqrt(sigma_eps_sq) * rng.standard_normal((reps, data.n))
        draws = (data.x_stack @ coef + gammas @ Z.T + noise) @ est_map.T

        cov = report.covariance
        sample_cov = np.cov(draws, rowvar=False)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2)
                         / (reps - 1))
        assert np.max(np.abs(sample_cov - cov) / se_cov) < 4.0

    def test_covariance_matches_dense_sandwich(self):
        """Exactly est_map Cov(y) est_map' with Cov(y) = s_eps I + s_gamma ZZ', on
        tall, square and wide batches, at ratios other than the generating one."""
        rng = np.random.default_rng(110)
        for t, n, p in ((2, 10, 2), (4, 3, 3), (3, 2, 4)):
            data = stack_batches(random_batches(rng, t, n, p, np.zeros(p)))
            Z = z_block(data)
            cov_y = 0.7 * np.eye(data.n) + 1.3 * (Z @ Z.T)
            for xi in (0.1, 2.0):
                xtw = data.x_stack.T @ np.linalg.inv(xi * (Z @ Z.T) + np.eye(data.n))
                est_map = np.linalg.solve(xtw @ data.x_stack, xtw)
                report = mixed_moments(data, xi, 0.7, 1.3, np.zeros(p))
                np.testing.assert_allclose(report.covariance,
                                           est_map @ cov_y @ est_map.T, atol=1e-9)

    def test_moment_validation(self):
        rng = np.random.default_rng(115)
        data = stack_batches(random_batches(rng, 2, 5, 2, np.zeros(2)))
        with pytest.raises(ValidationError):
            mixed_moments(data, 1.0, -1.0, 0.0, np.zeros(2))
        with pytest.raises(ValidationError):
            mixed_moments(data, 1.0, 1.0, 0.0, np.zeros(3))


class TestEstimateXi:
    def test_single_grid_point_is_returned(self):
        rng = np.random.default_rng(116)
        data = stack_batches(random_batches(rng, 3, 10, 2, np.ones(2)))
        fit = estimate_xi(data, grid=(0.7,))
        assert isinstance(fit, MixedFit)
        assert fit.xi == 0.7
        assert fit.sigma_eps_sq > 0
        np.testing.assert_allclose(fit.sigma_gamma_sq, 0.7 * fit.sigma_eps_sq,
                                   rtol=1e-12)
        np.testing.assert_allclose(fit.fixed_effects,
                                   mixed_fixed_effects(data, 0.7), atol=1e-12)

    def test_no_batch_effects_pick_the_smallest_ratios(self):
        """Without real batch effects the profiled likelihood should favor
        the bottom of the ratio grid nearly always."""
        rng = np.random.default_rng(117)
        grid = default_xi_grid(9)
        hits = 0
        reps = 100
        for _ in range(reps):
            coef = rng.standard_normal(2)
            data = stack_batches(random_batches(rng, 6, 30, 2, coef,
                                                noise_sd=1.0, effect_sd=0.0))
            fit = estimate_xi(data, grid=grid)
            hits += fit.xi <= grid[2]
        assert hits >= 90

    def test_strong_batch_effects_push_the_ratio_up(self):
        rng = np.random.default_rng(118)
        grid = default_xi_grid(9)
        hits = 0
        reps = 100
        for _ in range(reps):
            coef = rng.standard_normal(2)
            data = stack_batches(random_batches(rng, 4, 30, 2, coef,
                                                noise_sd=1.0, effect_sd=5.0))
            fit = estimate_xi(data, grid=grid)
            hits += fit.xi > 1.0
        assert hits >= 90

    def test_default_grid_spans_the_documented_range(self):
        grid = default_xi_grid()
        assert len(grid) == 25
        np.testing.assert_allclose(grid[0], 1e-4)
        np.testing.assert_allclose(grid[-1], 1e4)


class TestStackedSolve:
    """``estimate_xi`` solves every ratio's GLS system with one stacked
    factorization and solve; the per-ratio ``_solve_spd`` is its oracle."""

    def normal_equations(self):
        rng = np.random.default_rng(119)
        data = stack_batches(random_batches(rng, 10, 25, 4, rng.standard_normal(4),
                                            effect_sd=0.5))
        C, b, _ = _woodbury_grid(_block_spectra(data), np.array(default_xi_grid()))
        return C, b

    def test_matches_the_per_ratio_solves_to_the_bit(self):
        C, b = self.normal_equations()
        got, ok = _solve_spd_stack(C, b, "the GLS normal matrix")
        assert ok.all()
        want = np.array([_solve_spd(C[i], b[i], "the GLS normal matrix")
                         for i in range(C.shape[0])])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("failure", ["not positive definite", "tiny pivot",
                                         "non-finite entry"])
    def test_a_failing_ratio_is_skipped_and_the_rest_solved(self, failure):
        C, b = self.normal_equations()
        if failure == "not positive definite":
            C[3] = -np.eye(C.shape[1])
        elif failure == "tiny pivot":
            C[3] = np.diag([1.0, 1.0, 1.0, 1e-30])
        else:
            C[3, 0, 0] = np.nan
        got, ok = _solve_spd_stack(C, b, "the GLS normal matrix")
        assert ok.tolist() == [i != 3 for i in range(C.shape[0])]
        with pytest.raises(SingularMatrixError):
            _solve_spd(C[3], b[3], "the GLS normal matrix")
        assert not got[3].any()
        for i in np.flatnonzero(ok):
            assert np.array_equal(got[i], _solve_spd(C[i], b[i], "the GLS normal matrix"))


@st.composite
def stacked_studies(draw):
    """Stacks of 1-5 batches with 1-5 covariates and uneven batch sizes,
    including batches with fewer rows than covariates, at batch-effect
    scales from none to dominant."""
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    if sum(sizes) < p + 2:
        sizes[-1] += p + 2 - sum(sizes)
    effect_sd = draw(st.sampled_from([0.0, 0.3, 1.0, 5.0]))
    rng = np.random.default_rng(seed)
    names = tuple(f"x{j}" for j in range(p))
    coef = rng.standard_normal(p)
    batches = []
    for t, n in enumerate(sizes, start=1):
        X = rng.standard_normal((n, p))
        y = X @ (coef + effect_sd * rng.standard_normal(p)) + rng.standard_normal(n)
        batches.append(Batch(t=t, X=X, y=y, covariates=names))
    return stack_batches(batches)


class TestEstimateXiRoutes:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stacked_studies())
    def test_woodbury_route_matches_direct_route(self, data):
        fit = estimate_xi(data)
        xi, fixed_effects = direct_estimate_xi(data, default_xi_grid())
        assert fit.xi == xi
        scale = np.linalg.norm(fixed_effects)
        assert np.linalg.norm(fit.fixed_effects - fixed_effects) <= 1e-10 * scale


def outcome(fit):
    """What a refit gave: its fields, or the class and text of its error."""
    try:
        got = fit()
    except EstimationError as exc:
        return type(exc), str(exc)
    return (got.fixed_effects.tobytes(), got.xi, got.sigma_eps_sq, got.sigma_gamma_sq,
            got.profile_loglik)


class TestPooledRefit:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_prefix_equals_estimate_xi_to_the_bit(self, seed):
        rng = np.random.default_rng(seed)
        batches = random_batches(rng, t=7, n=2, p=5, coef=rng.standard_normal(5),
                                 effect_sd=[0.0, 0.3, 1.0, 5.0][seed])
        grid = default_xi_grid(9)
        pooled = _PooledRefit(grid)
        for t in range(1, len(batches) + 1):
            pooled.add(batches[t - 1])
            got = outcome(pooled.fit)
            assert got == outcome(lambda: estimate_xi(stack_batches(batches[:t]), grid))
            if t * 2 < 5:  # fewer stacked rows than fixed effects
                assert got[0] is EstimationError and "cannot identify" in got[1]
            else:
                assert isinstance(got[1], float)

    def test_a_prefix_that_fails_at_every_ratio(self):
        # Zero responses give a zero GLS quadratic form at every ratio, so
        # the first two prefixes fail everywhere; the third batch has signal.
        rng = np.random.default_rng(5)
        batches = [Batch(t=t, X=rng.standard_normal((3, 2)),
                         y=rng.standard_normal(3) if t == 3 else np.zeros(3),
                         covariates=("a", "b")) for t in (1, 2, 3)]
        pooled = _PooledRefit()
        for t, batch in enumerate(batches, start=1):
            pooled.add(batch)
            got = outcome(pooled.fit)
            assert got == outcome(lambda: estimate_xi(stack_batches(batches[:t])))
            if t < 3:
                assert got[0] is EstimationError and "failed at all" in got[1]
            else:
                assert isinstance(got[1], float)

    def test_each_batch_is_decomposed_once(self, monkeypatch):
        calls = []
        spectrum = baselines._block_spectrum
        monkeypatch.setattr(baselines, "_block_spectrum",
                            lambda X, y: calls.append(X.shape) or spectrum(X, y))
        rng = np.random.default_rng(2)
        pooled = _PooledRefit(default_xi_grid(5))
        for batch in random_batches(rng, t=6, n=3, p=2, coef=np.ones(2)):
            pooled.add(batch)
            pooled.fit()
        assert len(calls) == 6

    def test_rejects_what_stack_batches_rejects(self):
        pooled = _PooledRefit()
        with pytest.raises(ValidationError):
            pooled.fit()
        X = np.eye(3)[:, :2]
        with pytest.raises(ValidationError):
            pooled.add(Batch(t=1, X=X, y=np.array([0.0, 1.0, 1.0]), covariates=("a", "b"),
                             family="logistic"))
        pooled.add(Batch(t=1, X=X, y=np.ones(3), covariates=("a", "b")))
        with pytest.raises(ValidationError):
            pooled.add(Batch(t=2, X=X, y=np.ones(3), covariates=("b", "a")))


class TestPlainRidge:
    def test_equals_zero_target_fit(self):
        rng = np.random.default_rng(119)
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        np.testing.assert_array_equal(plain_ridge(X, y, 1.7),
                                      fit_targeted_ridge(X, y, 1.7, np.zeros(3)))

    def test_infinite_penalty_returns_zero(self):
        rng = np.random.default_rng(120)
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8) + 5.0
        np.testing.assert_allclose(plain_ridge(X, y, 1e12), np.zeros(2),
                                   atol=1e-9)

    def test_matches_brute_force_minimizer(self):
        rng = np.random.default_rng(121)
        X = rng.standard_normal((9, 3))
        y = rng.standard_normal(9)
        lam = 0.6

        def objective(beta):
            resid = y - X @ beta
            return resid @ resid + lam * (beta @ beta)

        reference = optimize.minimize(objective, np.zeros(3), method="BFGS",
                                      options={"gtol": 1e-12}).x
        np.testing.assert_allclose(plain_ridge(X, y, lam), reference,
                                   atol=1e-6)
