"""Wall time of a sequential update as the history grows.

    PYTHONPATH=src python3 benchmarks/chain_growth.py

Prints one JSON document. For each family a chain is grown in process
through the public ``update`` (linear, at the stream-linear sizes p = 20,
n = 50) or ``update_logistic`` (stream-logistic sizes p = 10, n = 100),
with the fixed penalty the benchmark's pre-grow uses. Seven figures per
history length T:

* ``update_ms``: one update of a state that holds T records (median over
  repeats, milliseconds);
* ``select_ms``: ``select_penalty`` of that state for the next batch,
  with the CLI's defaults: 5 folds, the historic-fit constraint and the
  50-point default grid (median over repeats, milliseconds);
* ``chain_ms``: growing the chain from no record to T records (median
  over repeats, milliseconds);
* ``state_mb``: the size of that state's file as ``write_state`` writes
  it (10^6 bytes, as the benchmark's ``state_mb``);
* ``log_mb``: the size of the history log ``write_state`` writes beside
  it (0 for a checkout that writes none);
* ``read_ms``: ``read_state`` of that file (median, milliseconds);
* ``write_ms``: the ``write_state`` an update of it makes: the state
  read back from the file, one batch further on, written over the file
  and its log. Before each run the file is rewritten and fsynced and
  the log cut back to its length, which an update only appends to
  (median, milliseconds).

A cost that does not grow with the history keeps ``update_ms``,
``select_ms``, ``read_ms`` and ``write_ms`` flat in T and ``chain_ms``
linear in T. A linear state keeps a triangular factor, so only its
records grow with T, and those only in the log; a logistic state keeps
every past row, and its historic constraint sums over all of them.

``linear_width`` adds the width axis: ``update_ms`` of a linear state
that holds T = 10 records, for p = 20, 200 and 1000 covariates (n = 50),
where the (p + 1) x (p + 1) factor's fold dominates.

``linear_layouts`` times the linear chain (p = 20, n = 50) to T = 100
for four layouts of the batches' covariates against the registry:
``registry`` (every batch carries the registry's names in its order, as
every perfbench workload's batches do), ``reordered`` (the names
reversed), ``partial`` (batch t lacks one covariate, a different one
from batch to batch) and ``growing`` (the registry starts with one name
and gains one every 5 batches, to 20). Only ``registry`` batches skip
the alignment and target assembly an update otherwise runs. NumPy is the
only requirement.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
import timeit

import numpy as np

from ridge_relay import (Batch, PenaltySearchConfig, default_grid, select_penalty,
                         start_state, update, update_logistic)
from ridge_relay.cli_io import read_state, write_state

REPEATS = 5
UPDATES_PER_REPEAT = 20
SELECTS_PER_REPEAT = 4
# The selection ``ridge-relay update`` runs when no selection flag is given.
CLI_SELECTION = PenaltySearchConfig(k_folds=5, constrained=True, grid=default_grid(), seed=0)
# The history log beside a state file (``cli_io.LOG_SUFFIX``), named here
# so that the script also runs against a checkout that writes none.
LOG_SUFFIX = ".history"
LAM = 10.0
CHAINS = {
    "linear": {"step": update, "p": 20, "n": 50, "lengths": (10, 100, 400, 1000)},
    "logistic": {"step": update_logistic, "p": 10, "n": 100, "lengths": (10, 100)},
}
WIDTHS = (20, 200, 1000)
WIDTH_LENGTH = 10
LAYOUTS = ("registry", "reordered", "partial", "growing")
LAYOUT_LENGTH = 100


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


def grow(family: str, step, data: list[Batch], lengths,
         names=None) -> tuple[dict, dict]:
    """States at each length in ``lengths``, and the wall time to reach each;
    the registry starts with ``names`` (default: the first batch's)."""
    state = start_state(family, data[0].covariates if names is None else names)
    states, reached = {}, {}
    start = time.perf_counter()
    for batch in data[:max(lengths)]:
        state = step(state, batch, LAM)
        if state.t in lengths:
            reached[state.t] = (time.perf_counter() - start) * 1e3
            states[state.t] = state
    return states, reached


def file_costs(step, state, batch) -> dict:
    """``state_mb``, ``log_mb``, ``read_ms`` and ``write_ms`` of ``state``
    (see the module docstring); ``batch`` is the next one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        log = path + LOG_SUFFIX
        write_state(state, path)
        with open(path, "rb") as fh:
            saved = fh.read()
        log_size = os.path.getsize(log) if os.path.exists(log) else 0
        reads = timeit.repeat(lambda: read_state(path), number=UPDATES_PER_REPEAT,
                              repeat=REPEATS)
        following = step(read_state(path), batch, LAM)
        writes = []
        for _ in range(REPEATS * UPDATES_PER_REPEAT):
            with open(path, "wb") as fh:
                fh.write(saved)
                os.fsync(fh.fileno())  # so the timed write's fsyncs do not flush the restore
            if log_size:
                os.truncate(log, log_size)
            start = time.perf_counter()
            write_state(following, path)
            writes.append(time.perf_counter() - start)
        return {"state_mb": round(len(saved) / 1e6, 4),
                "log_mb": round(log_size / 1e6, 4),
                "read_ms": round(statistics.median(reads) / UPDATES_PER_REPEAT * 1e3, 4),
                "write_ms": round(statistics.median(writes) * 1e3, 4)}


def update_ms(step, state, batch) -> float:
    """Median wall time of one ``step`` of ``state`` by ``batch``, in milliseconds."""
    runs = timeit.repeat(lambda: step(state, batch, LAM),
                         number=UPDATES_PER_REPEAT, repeat=REPEATS)
    return round(statistics.median(runs) / UPDATES_PER_REPEAT * 1e3, 4)


def select_ms(state, batch) -> float:
    """Median wall time of one ``select_penalty`` of ``state`` for ``batch``
    under ``CLI_SELECTION``, in milliseconds."""
    runs = timeit.repeat(lambda: select_penalty(state, batch, CLI_SELECTION),
                         number=SELECTS_PER_REPEAT, repeat=REPEATS)
    return round(statistics.median(runs) / SELECTS_PER_REPEAT * 1e3, 4)


def measure(family: str, step, p: int, n: int, lengths) -> dict:
    data = batches(family, p, n, max(lengths) + 1)
    chain_runs = []
    for _ in range(REPEATS):
        states, reached = grow(family, step, data, lengths)
        chain_runs.append(reached)
    update = {str(T): update_ms(step, states[T], data[T]) for T in lengths}
    select = {str(T): select_ms(states[T], data[T]) for T in lengths}
    chain_ms = {str(T): round(statistics.median(run[T] for run in chain_runs), 3)
                for T in lengths}
    files = {T: file_costs(step, states[T], data[T]) for T in lengths}
    out = {"p": p, "n": n, "lam": LAM, "update_ms": update, "select_ms": select,
           "chain_ms": chain_ms}
    for figure in ("state_mb", "log_mb", "read_ms", "write_ms"):
        out[figure] = {str(T): files[T][figure] for T in lengths}
    return out


def measure_widths(n: int = 50) -> dict:
    """Linear ``update_ms`` at T = ``WIDTH_LENGTH`` for each p in ``WIDTHS``."""
    out = {}
    for p in WIDTHS:
        data = batches("linear", p, n, WIDTH_LENGTH + 1)
        states, _ = grow("linear", update, data, (WIDTH_LENGTH,))
        out[str(p)] = update_ms(update, states[WIDTH_LENGTH], data[WIDTH_LENGTH])
    return {"n": n, "T": WIDTH_LENGTH, "lam": LAM, "update_ms": out}


def laid_out(batch: Batch, layout: str) -> Batch:
    """``batch`` with its covariates laid out as ``layout`` says (``LAYOUTS``)."""
    p, t = batch.p, batch.t
    cols = list(range(p))
    if layout == "reordered":
        cols.reverse()
    elif layout == "partial":
        cols.remove(t % p)
    elif layout == "growing":
        cols = cols[:min(p, 1 + t // 5)]
    return Batch(t=t, X=batch.X[:, cols], y=batch.y,
                 covariates=tuple(batch.covariates[j] for j in cols))


def measure_layouts(p: int = 20, n: int = 50) -> dict:
    """Linear ``chain_ms`` to T = ``LAYOUT_LENGTH`` for each layout in ``LAYOUTS``."""
    data = batches("linear", p, n, LAYOUT_LENGTH)
    out = {}
    for layout in LAYOUTS:
        laid = [laid_out(batch, layout) for batch in data]
        names = laid[0].covariates if layout == "growing" else data[0].covariates
        runs = [grow("linear", update, laid, (LAYOUT_LENGTH,), names)[1][LAYOUT_LENGTH]
                for _ in range(REPEATS)]
        out[layout] = round(statistics.median(runs), 3)
    return {"p": p, "n": n, "T": LAYOUT_LENGTH, "lam": LAM, "chain_ms": out}


def main() -> None:
    doc = {"repeats": REPEATS, "updates_per_repeat": UPDATES_PER_REPEAT,
           "selects_per_repeat": SELECTS_PER_REPEAT,
           "statistic": "median ms (update_ms, select_ms, chain_ms)"}
    for family, spec in CHAINS.items():
        doc[family] = measure(family, spec["step"], spec["p"], spec["n"], spec["lengths"])
    doc["linear_width"] = measure_widths()
    doc["linear_layouts"] = measure_layouts()
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
