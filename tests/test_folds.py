"""The in-package fold shuffle against NumPy, and the imports a CLI process makes.

``Pcg64(seed).permutation`` must give what
``np.random.default_rng(seed).permutation`` gives, to the last index, so
that folds dealt without ``numpy.random`` are the folds NumPy dealt.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from ridge_relay import get_family, make_folds
from ridge_relay._pcg64 import Pcg64

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BIG_SEEDS = (2**32 - 1, 2**32, 2**64 + 3, 2**100 + 12345)
# Successive draws from one generator: odd sizes leave half a 64-bit draw
# for the next permutation, as a stratified deal does.
RUN_SIZES = (1, 2, 7, 50, 101, 3)


class TestPermutation:
    @pytest.mark.parametrize("seed", (0, 1, 2**32 - 1, 2**64 + 3))
    def test_raw_draws_match_numpy(self, seed):
        ours = Pcg64(seed)
        raw = np.random.default_rng(seed).bit_generator.random_raw(20).tolist()
        assert [ours._next64() for _ in range(20)] == raw

    @pytest.mark.parametrize("seeds", [range(0, 500), range(500, 1000), BIG_SEEDS],
                             ids=["0-499", "500-999", "large"])
    def test_successive_permutations_match_numpy(self, seeds):
        for seed in seeds:
            ours, numpy_rng = Pcg64(seed), np.random.default_rng(seed)
            for n in RUN_SIZES:
                assert ours.permutation(n) == numpy_rng.permutation(n).tolist(), (seed, n)

    @pytest.mark.parametrize("seed", (0, 17) + BIG_SEEDS[2:])
    def test_every_size_up_to_300_matches_numpy(self, seed):
        for n in range(1, 301):
            expected = np.random.default_rng(seed).permutation(n).tolist()
            assert Pcg64(seed).permutation(n) == expected, n

    def test_empty_and_single(self):
        assert Pcg64(3).permutation(0) == []
        assert Pcg64(3).permutation(1) == [0]


def numpy_folds(n, k, seed, strata):
    """The deal ``make_folds`` made through ``numpy.random``."""
    strata = np.zeros(n) if strata is None else np.asarray(strata)
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(strata == label) for label in sorted(set(strata.tolist()))]
    dealt = np.concatenate([rows[rng.permutation(rows.size)] for rows in groups])
    assignments = np.empty(n, dtype=int)
    assignments[dealt] = np.arange(dealt.size) % k + 1
    return assignments


@pytest.mark.parametrize("family", ["linear", "logistic"])
def test_make_folds_equals_the_numpy_deal(family):
    """The strata a selection passes: none for the linear family, the 0/1
    response for the logistic one."""
    rng = np.random.default_rng(4)
    fam = get_family(family)
    for seed in (0, 1, 5, 2**31 + 7, 2**64 + 3):
        for n, k in ((10, 5), (37, 3), (100, 5), (257, 10)):
            y = fam.sample(rng, rng.standard_normal(n), 1.0)
            strata = y if fam.stratified else None
            np.testing.assert_array_equal(make_folds(n, k, seed, strata).assignments,
                                          numpy_folds(n, k, seed, strata))


# ---------------------------------------------------------------------------
# what a CLI process imports

PROBE = ("import sys\n"
         "from ridge_relay.cli_io import main\n"
         "code = main(sys.argv[1:])\n"
         "print(code, 'numpy.random' in sys.modules)\n")


def run_probe(*argv):
    """Exit code of one CLI command run in a fresh process, and whether
    ``numpy.random`` was loaded by its end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    code, loaded = proc.stdout.split()[-2:]
    return int(code), loaded == "True"


def write_batch(path, family, seed, n=40):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = get_family(family).sample(rng, X @ np.array([1.0, -0.5]), 0.25)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,y\n")
        for (a, b), response in zip(X.tolist(), y.tolist()):
            fh.write(f"{a!r},{b!r},{response!r}\n")
    return str(path)


@pytest.fixture(scope="module", params=["linear", "logistic"])
def chain(request, tmp_path_factory):
    """A family's state initialized from one batch (``init --data`` with K
    folds, probed), and a second batch."""
    family = request.param
    tmp = tmp_path_factory.mktemp(family)
    state = str(tmp / "m.json")
    first = write_batch(tmp / "b1.csv", family, 1)
    second = write_batch(tmp / "b2.csv", family, 2)
    init = run_probe("init", "--state", state, "--family", family, "--data", first,
                     "--response", "y", "--k-folds", "5")
    return state, second, init


def test_init_from_data_loads_no_numpy_random(chain):
    assert chain[2] == (0, False)


def test_update_with_k_folds_loads_no_numpy_random(chain):
    state, data, _ = chain
    assert run_probe("update", "--state", state, "--data", data, "--response", "y",
                     "--k-folds", "5") == (0, False)


def test_select_lambda_loads_no_numpy_random(chain):
    state, data, _ = chain
    assert run_probe("select-lambda", "--state", state, "--data", data,
                     "--response", "y") == (0, False)


def test_predict_and_export_load_no_numpy_random(chain):
    state, data, _ = chain
    assert run_probe("predict", "--state", state, "--data", data, "--response", "y") == (0, False)
    assert run_probe("export", "--state", state) == (0, False)
