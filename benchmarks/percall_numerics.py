"""Per-call cost of the package's NumPy solve and logistic function against SciPy's.

    PYTHONPATH=src python3 benchmarks/percall_numerics.py

Prints one JSON document: the median over repeats of the time per call,
in microseconds, for a positive definite solve at p = 10 and 20 (the
stream workloads' logistic and linear sizes) and for the logistic
function on 100 values (a batch). SciPy is needed to run it.
"""

from __future__ import annotations

import json
import statistics
import timeit

import numpy as np
import scipy.linalg
import scipy.special

from ridge_relay._numerics import cho_factor, cho_solve, expit

REPEATS = 7


def per_call_us(fn, number: int) -> float:
    runs = timeit.repeat(fn, number=number, repeat=REPEATS)
    return round(statistics.median(runs) / number * 1e6, 2)


def main() -> None:
    rng = np.random.default_rng(0)
    doc = {"repeats": REPEATS, "statistic": "median us per call"}
    for p in (10, 20):
        x = rng.standard_normal((50, p))
        a = x.T @ x + np.eye(p)
        b = rng.standard_normal(p)
        doc[f"spd_solve_p{p}"] = {
            "scipy_cho_factor_cho_solve": per_call_us(
                lambda: scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b),
                2000),
            "ridge_relay_cho_factor_cho_solve": per_call_us(
                lambda: cho_solve(cho_factor(a), b), 2000),
            "numpy_cholesky": per_call_us(lambda: np.linalg.cholesky(a), 2000),
            "numpy_solve": per_call_us(lambda: np.linalg.solve(a, b), 2000),
        }
    eta = 3.0 * rng.standard_normal(100)
    doc["expit_100_values"] = {
        "scipy": per_call_us(lambda: scipy.special.expit(eta), 20000),
        "ridge_relay": per_call_us(lambda: expit(eta), 20000),
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
