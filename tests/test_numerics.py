"""Tests for the NumPy stand-ins of the SciPy routines the package used.

SciPy stays a test dependency: it is the oracle the Cholesky solve and
the logistic function are checked against.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ridge_relay._numerics import cho_factor, cho_solve, expit
from ridge_relay.errors import SingularMatrixError

EPS = np.finfo(float).eps
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of doubles between a and b, both finite and of one sign."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@st.composite
def spd_systems(draw):
    """A random SPD matrix of known condition number, with a right-hand side."""
    p = draw(st.integers(1, 30))
    cond = 10.0 ** draw(st.floats(0.0, 10.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    columns = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eig = scale * np.geomspace(1.0, cond, p)
    a = (q * eig) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(p if columns is None else (p, columns))
    return a, b, cond


class TestChoFactor:
    def test_factor_reproduces_the_matrix(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 6))
        a = x.T @ x + np.eye(6)
        factor = cho_factor(a)
        np.testing.assert_array_equal(np.triu(factor.lower, 1), 0.0)
        np.testing.assert_allclose(factor.lower @ factor.lower.T, a, rtol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrices_raise(self, bad):
        a = np.eye(3)
        a[1, 1] = bad
        with pytest.raises(SingularMatrixError, match="non-finite"):
            cho_factor(a)
        full = np.full((3, 3), bad)
        with pytest.raises(SingularMatrixError, match="non-finite"):
            cho_factor(full, "the test matrix")

    def test_indefinite_and_singular_matrices_raise(self):
        with pytest.raises(SingularMatrixError, match="the test matrix"):
            cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), "the test matrix")
        with pytest.raises(SingularMatrixError):
            cho_factor(np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            cho_factor(-np.eye(4))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(spd_systems())
    def test_solve_matches_scipy(self, system):
        a, b, cond = system
        got = cho_solve(cho_factor(a), b)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
        assert got.shape == ref.shape
        tol = 8.0 * a.shape[0] * cond * EPS
        assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


class TestExpit:
    def test_exact_values(self):
        x = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf])
        np.testing.assert_array_equal(expit(x), [0.5, 0.5, 1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(expit(x), scipy.special.expit(x))
        assert np.isnan(expit(np.array([np.nan]))[0])

    def test_never_overflows(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            expit(np.array([-1e308, -800.0, -40.0, 0.0, 40.0, 800.0, 1e308]))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(arrays(np.float64, st.integers(1, 50),
                  elements=st.one_of(st.floats(-40.0, 40.0),
                                     st.floats(-1e4, 1e4),
                                     st.floats(allow_nan=False))))
    def test_matches_scipy_within_four_ulp(self, x):
        ref = scipy.special.expit(x)
        got = expit(x)
        normal = ref >= np.finfo(float).tiny
        assert np.all(ulp_distance(got[normal], ref[normal]) <= 4)
        assert np.all(got[~normal] <= np.finfo(float).tiny)


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, ridge_relay.cli_io; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
