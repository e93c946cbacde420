"""The update step equals the reference step of ``step_reference.py`` to the bit.

The package's step returns the batch's own design when its covariates are
the registry's, and the newest estimate itself when it covers the
registry in order; every other batch goes through the general alignment
and target assembly. Each chain below mixes both: batches over the
registry in order, batches that grow the registry, batches that carry
only some covariates, and batches whose columns come in another order.
Every estimate, the past data and every record must match the reference
exactly, bit patterns included, so a zero's sign counts.
"""

import numpy as np
import pytest

from ridge_relay import Batch, CoefficientVector, start_state, update, update_logistic
from step_reference import reference_update

# Covariates of each batch of a chain, in column order.
CHAINS = {
    "same names": [("a", "b", "c")] * 4,
    "registry grows": [("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d"), ("a", "b", "c", "d")],
    "some covariates": [("a", "b", "c", "d"), ("b", "c"), ("a", "d"), ("a", "b", "c", "d"),
                        ("c",)],
    "reordered": [("a", "b", "c"), ("c", "a", "b"), ("b", "c", "a", "d"), ("a", "b", "c", "d")],
}
STEPS = {"linear": update, "logistic": update_logistic}
LAMS = (10.0, 0.5, 3.0, 1e-3, 25.0)


def bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def assert_same_bits(state, ref):
    assert state.registry == ref.registry
    assert state.history == ref.history
    for rec, ref_rec in zip(state.history, ref.history):
        names = ref_rec.estimate.names()
        assert rec.estimate.names() == names
        a = rec.estimate.as_array(names)
        b = np.array([ref_rec.estimate[n] for n in names])
        assert np.array_equal(a, b) and bits(a) == bits(b)
    for field in ref.past._fields:
        a, b = getattr(state.past, field), getattr(ref.past, field)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b) and bits(a) == bits(b)
        else:
            assert a == b
    assert (state.family, state.init_target, state.init_note) == (
        ref.family, ref.init_target, ref.init_note)


def batches(family, covariate_sets, seed):
    rng = np.random.default_rng(seed)
    out = []
    for t, names in enumerate(covariate_sets, start=1):
        n = 12 if family == "linear" else 40
        X = rng.standard_normal((n, len(names)))
        eta = X @ rng.standard_normal(len(names))
        if family == "linear":
            y = eta + 0.3 * rng.standard_normal(n)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        out.append(Batch(t=t, X=X, y=y, covariates=names, family=family))
    return out


@pytest.mark.parametrize("family", list(STEPS))
@pytest.mark.parametrize("chain", list(CHAINS))
@pytest.mark.parametrize("start", ["zeros", "partial target"])
def test_a_chain_equals_the_reference_step_to_the_bit(family, chain, start):
    data = batches(family, CHAINS[chain], seed=len(chain) + 7 * len(start))
    first = data[0].covariates
    # A start target over some names leaves the rest to the zero backstop.
    target = None if start == "zeros" else CoefficientVector({first[-1]: 0.75})
    state = ref = start_state(family, first, target)
    for batch, lam in zip(data, LAMS):
        state = STEPS[family](state, batch, lam)
        ref = reference_update(ref, batch, lam)
        assert_same_bits(state, ref)


def test_an_estimate_of_exact_zeros_keeps_its_signs():
    """A covariate the batch lacks, shrunk toward a zero target, comes out
    exactly 0; the step and the reference agree on the sign of that zero."""
    data = batches("linear", [("a",), ("a", "b"), ("b",)], seed=3)
    state = ref = start_state("linear", ("a", "b"))
    for batch in data:
        state, ref = update(state, batch, 2.0), reference_update(ref, batch, 2.0)
        assert_same_bits(state, ref)
    assert state.history[0].estimate["b"] == 0.0
