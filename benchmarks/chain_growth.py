"""Wall time of a sequential update as the history grows.

    PYTHONPATH=src python3 benchmarks/chain_growth.py

Prints one JSON document. For each family a chain is grown in process
through the public ``update`` (linear, at the stream-linear sizes p = 20,
n = 50) or ``update_logistic`` (stream-logistic sizes p = 10, n = 100),
with the fixed penalty the benchmark's pre-grow uses. Two figures per
history length T, each the median over repeats, in milliseconds:

* ``update_ms``: one update of a state that holds T records;
* ``chain_ms``: growing the chain from no record to T records.

A cost that does not grow with the history keeps ``update_ms`` flat in T
and ``chain_ms`` linear in T. NumPy is the only requirement.
"""

from __future__ import annotations

import json
import statistics
import time
import timeit

import numpy as np

from ridge_relay import (Batch, CoefficientVector, CovariateRegistry, EstimatorState,
                         update, update_logistic)

REPEATS = 5
UPDATES_PER_REPEAT = 20
LAM = 10.0
CHAINS = {
    "linear": {"step": update, "p": 20, "n": 50, "lengths": (10, 100, 400)},
    "logistic": {"step": update_logistic, "p": 10, "n": 100, "lengths": (10, 100)},
}


def batches(family: str, p: int, n: int, count: int, seed: int = 0) -> list[Batch]:
    rng = np.random.default_rng(seed)
    names = tuple(f"x{j:02d}" for j in range(1, p + 1))
    beta = rng.standard_normal(p) / np.sqrt(p)
    out = []
    for t in range(1, count + 1):
        X = rng.standard_normal((n, p))
        eta = X @ beta
        if family == "linear":
            y = eta + rng.standard_normal(n)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        out.append(Batch(t=t, X=X, y=y, covariates=names, family=family))
    return out


def blank_state(family: str, names) -> EstimatorState:
    return EstimatorState(family=family, registry=CovariateRegistry(names),
                          init_target=CoefficientVector({n: 0.0 for n in names}))


def grow(family: str, step, data: list[Batch], lengths) -> tuple[dict, dict]:
    """States at each length in ``lengths``, and the wall time to reach each."""
    state = blank_state(family, data[0].covariates)
    states, reached = {}, {}
    start = time.perf_counter()
    for batch in data[:max(lengths)]:
        state = step(state, batch, LAM)
        if state.t in lengths:
            reached[state.t] = (time.perf_counter() - start) * 1e3
            states[state.t] = state
    return states, reached


def measure(family: str, step, p: int, n: int, lengths) -> dict:
    data = batches(family, p, n, max(lengths) + 1)
    chain_runs = []
    for _ in range(REPEATS):
        states, reached = grow(family, step, data, lengths)
        chain_runs.append(reached)
    update_ms = {}
    for T in lengths:
        state, batch = states[T], data[T]
        runs = timeit.repeat(lambda: step(state, batch, LAM),
                             number=UPDATES_PER_REPEAT, repeat=REPEATS)
        update_ms[str(T)] = round(statistics.median(runs) / UPDATES_PER_REPEAT * 1e3, 4)
    chain_ms = {str(T): round(statistics.median(run[T] for run in chain_runs), 3)
                for T in lengths}
    return {"p": p, "n": n, "lam": LAM, "update_ms": update_ms, "chain_ms": chain_ms}


def main() -> None:
    doc = {"repeats": REPEATS, "updates_per_repeat": UPDATES_PER_REPEAT,
           "statistic": "median ms"}
    for family, spec in CHAINS.items():
        doc[family] = measure(family, spec["step"], spec["p"], spec["n"], spec["lengths"])
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
