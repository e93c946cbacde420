"""Fixed cost of a ridge-relay process, from spawn to exit.

    python3 benchmarks/process_cost.py [--quick]

Spawns six commands in alternation, one process at a time, and prints
one JSON document with the median and quartiles of each command's wall
time from spawn to exit and, next to them, of the child's CPU time (user
plus system) in milliseconds and of its peak resident size
(``ru_maxrss``) in MB of 2^20 bytes, both from ``os.wait4``:

* ``pass``: ``python -c pass``, the interpreter alone;
* ``import``: ``import ridge_relay.cli_io``, which loads NumPy and the
  whole package, then exits;
* ``import+freeze``: the same import followed by ``gc.freeze()``, which
  is what every command does first, so the exit skips collecting the
  import-time heap;
* ``import+random``: ``import ridge_relay.cli_io, numpy.random``, the
  import a study process makes before it draws a batch;
* ``export``: ``python -m ridge_relay export`` of a small linear state;
* ``simulate``: ``python -m ridge_relay simulate`` of a tiny study, the
  benchmark's ``study-mixed`` layout with one replicate of two batches.

``import`` minus ``import+freeze`` is what the freeze saves a process;
``import+random`` minus ``import`` is what loading ``numpy.random``
costs; ``export`` and ``simulate`` minus ``import+freeze`` are the work
of a small command. CPU time above wall time is work done on more than
one thread, such as a BLAS thread pool's start-up. A child spawned from
a process starts its peak resident size at that process's, so this tool
imports only the standard library and writes the state in a child of
its own; ``pass`` reads no lower than this tool's own size. Every
process runs the package under ``src/`` of this checkout, with the
environment this tool was started with (so ``PYTHONDONTWRITEBYTECODE``,
if set, makes each process compile the package from source). One
unrecorded round runs first. ``--quick`` runs 3 rounds instead of 21,
enough to see that every command runs. NumPy is the only requirement.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

ROUNDS = 21
QUICK_ROUNDS = 3
# perfbench's study-mixed scenario, cut to one replicate of two batches
TINY_STUDY = {"study": "mixed-vs-updated", "family": "linear", "p": 11, "n": 25,
              "n_batches": 2, "n_replicates": 1, "noise_var": 1.0, "empty_every": 10,
              "k_folds": None, "constrained": True, "seed": 0}


def small_state(path: str, p: int = 5, n: int = 20, updates: int = 3) -> None:
    """A linear state over ``p`` covariates after ``updates`` updates at a
    fixed penalty. Run in a child (``--write-state``), so that this tool
    stays small."""
    import numpy as np

    from ridge_relay import Batch, start_state, update
    from ridge_relay.cli_io import write_state

    names = tuple(f"x{j}" for j in range(1, p + 1))
    state = start_state("linear", names)
    grid = np.arange(n * p, dtype=float).reshape(n, p)
    for t in range(1, updates + 1):
        X = np.sin(grid * t)
        state = update(state, Batch(t=t, X=X, y=X.sum(axis=1), covariates=names), 1.0)
    write_state(state, path)


def commands(workdir: str) -> dict[str, list[str]]:
    python = sys.executable
    ridge_relay = [python, "-m", "ridge_relay"]
    return {
        "pass": [python, "-c", "pass"],
        "import": [python, "-c", "import ridge_relay.cli_io"],
        "import+freeze": [python, "-c", "import gc, ridge_relay.cli_io; gc.freeze()"],
        "import+random": [python, "-c", "import ridge_relay.cli_io, numpy.random"],
        "export": ridge_relay + ["export", "--state", os.path.join(workdir, "state.json")],
        "simulate": ridge_relay + ["simulate", "--scenario",
                                   os.path.join(workdir, "scenario.json"),
                                   "--out", os.path.join(workdir, "out")],
    }


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, float, float]:
    """Wall and CPU milliseconds and peak resident MB of one run of
    ``argv``, from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = (time.perf_counter() - start) * 1000.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, (usage.ru_utime + usage.ru_stime) * 1000.0, usage.ru_maxrss / 1024.0


def summary(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 2), "q1": round(q1, 2),
            "q3": round(q3, 2)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_ROUNDS} rounds instead of {ROUNDS}")
    parser.add_argument("--write-state", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.write_state:
        small_state(args.write_state)
        return
    rounds = QUICK_ROUNDS if args.quick else ROUNDS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory(prefix="process-cost-") as workdir:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--write-state",
                        os.path.join(workdir, "state.json")], env=env, check=True)
        with open(os.path.join(workdir, "scenario.json"), "w", encoding="utf-8") as fh:
            json.dump(TINY_STUDY, fh)
        cmds = commands(workdir)
        runs: dict[str, list[tuple[float, float, float]]] = {name: [] for name in cmds}
        for round_ in range(rounds + 1):
            for name, argv in cmds.items():
                run = spawn(argv, env)
                if round_:
                    runs[name].append(run)
    doc = {"rounds": rounds, "python": sys.version.split()[0],
           "statistic": "median and quartiles of ms from spawn to exit (wall), of the "
                        "child's user plus system ms (cpu) and of its peak resident MB "
                        "(rss_mb)"}
    for name, values in runs.items():
        wall, cpu, rss = zip(*values)
        doc[name] = {**summary(list(wall)), "cpu": summary(list(cpu)),
                     "rss_mb": summary(list(rss))}
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
