"""Fixed cost of a ridge-relay process, from spawn to exit.

    python3 benchmarks/process_cost.py [--quick]

Spawns four commands in alternation, one process at a time, and prints
one JSON document with the median and quartiles of each command's wall
time from spawn to exit and, next to them, of the child's CPU time (user
plus system, from ``os.wait4``), in milliseconds:

* ``pass``: ``python -c pass``, the interpreter alone;
* ``import``: ``import ridge_relay.cli_io``, which loads NumPy and the
  whole package, then exits;
* ``import+freeze``: the same import followed by ``gc.freeze()``, which
  is what every command does first, so the exit skips collecting the
  import-time heap;
* ``export``: ``python -m ridge_relay export`` of a small linear state.

``import`` minus ``import+freeze`` is what the freeze saves a process;
``export`` minus ``import+freeze`` is the work of a small command. CPU
time above wall time is work done on more than one thread, such as a
BLAS thread pool's start-up. Every
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
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from ridge_relay import Batch, start_state, update  # noqa: E402
from ridge_relay.cli_io import write_state  # noqa: E402

ROUNDS = 21
QUICK_ROUNDS = 3


def small_state(path: str, p: int = 5, n: int = 20, updates: int = 3) -> None:
    """A linear state over ``p`` covariates after ``updates`` updates at a fixed penalty."""
    names = tuple(f"x{j}" for j in range(1, p + 1))
    state = start_state("linear", names)
    grid = np.arange(n * p, dtype=float).reshape(n, p)
    for t in range(1, updates + 1):
        X = np.sin(grid * t)
        state = update(state, Batch(t=t, X=X, y=X.sum(axis=1), covariates=names), 1.0)
    write_state(state, path)


def commands(state_path: str) -> dict[str, list[str]]:
    python = sys.executable
    return {
        "pass": [python, "-c", "pass"],
        "import": [python, "-c", "import ridge_relay.cli_io"],
        "import+freeze": [python, "-c", "import gc, ridge_relay.cli_io; gc.freeze()"],
        "export": [python, "-m", "ridge_relay", "export", "--state", state_path],
    }


def spawn_ms(argv: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Wall and CPU milliseconds of one run of ``argv``, from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = (time.perf_counter() - start) * 1000.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, (usage.ru_utime + usage.ru_stime) * 1000.0


def summary(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 2), "q1": round(q1, 2),
            "q3": round(q3, 2)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_ROUNDS} rounds instead of {ROUNDS}")
    rounds = QUICK_ROUNDS if parser.parse_args().quick else ROUNDS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory(prefix="process-cost-") as workdir:
        state_path = os.path.join(workdir, "state.json")
        small_state(state_path)
        cmds = commands(state_path)
        times: dict[str, list[tuple[float, float]]] = {name: [] for name in cmds}
        for round_ in range(rounds + 1):
            for name, argv in cmds.items():
                ms = spawn_ms(argv, env)
                if round_:
                    times[name].append(ms)
    doc = {"rounds": rounds, "python": sys.version.split()[0],
           "statistic": "ms from spawn to exit: median and quartiles of wall time, "
                        "and under cpu of the child's user plus system time"}
    for name, values in times.items():
        wall, cpu = zip(*values)
        doc[name] = {**summary(list(wall)), "cpu": summary(list(cpu))}
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
