"""Check that every benchmark workload gives its committed answers at every seed.

    python3 benchmarks/same_answers.py [--seeds 0-19] [--workload NAME ...]

For each workload and seed this sets up the inputs as a benchmark run
does and runs one cycle of operations untraced, in a temporary directory:
every arriving batch of a stream, or one ``simulate`` of the study. The
benchmark's own checks compare each output with the reference committed
under ``perfbench/reference``: chosen penalties, fallback flags and
feasible counts exactly, predictions and study tables to rtol 1e-7. A
seed without a reference, or any output that differs or fails, fails the
check. It prints one line per workload and seed, exits 1 on any failure,
and writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

from run import WORKLOADS, make_run  # noqa: E402


def problems(name: str, seed: int) -> list[str]:
    """What went wrong in one cycle of ``name`` at ``seed``; empty if nothing."""
    with tempfile.TemporaryDirectory(prefix=f"same-answers-{name}-{seed}-") as workdir:
        run = make_run(name, seed, 0.0, False, ROOT, workdir)
        if run.reference is None:
            return ["no committed reference for this seed"]
        run.setup(repeats=1)
        run.operate(min_operations=run.stream.cycle if run.stream is not None else 1)
        return [o.problem or f"exit code {o.code}" for o in run.outcomes() if not o.ok]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, as 0-19")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    failed = checked = 0
    for name in args.workload or WORKLOADS:
        for seed in seeds:
            start = time.perf_counter()
            found = problems(name, seed)
            checked += 1
            failed += bool(found)
            verdict = "FAIL: " + "; ".join(found) if found else "same"
            print(f"{name} seed {seed}: {verdict} ({time.perf_counter() - start:.1f} s)",
                  flush=True)
    print(f"{checked - failed} of {checked} workload/seed pairs give the committed answers")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
