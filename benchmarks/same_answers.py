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

Each line also carries a sha256 of every file the cycle wrote: after each
program process, every file under the temporary directory (the state,
the study tables, the captured stdout and stderr), by relative path, with
the directory's own path replaced by a fixed placeholder. The lines hold
no timing (the elapsed time goes to stderr), so a ``diff`` of the output
of two checkouts shows whether a change moved any byte.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

from run import WORKLOADS, make_run  # noqa: E402


def add_files(digest, workdir: str) -> None:
    """Feed every file under ``workdir`` to ``digest``: its relative path and
    its bytes, with ``workdir`` itself replaced by a placeholder."""
    marker = workdir.encode()
    for folder, dirs, files in os.walk(workdir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                data = fh.read().replace(marker, b"<workdir>")
            digest.update(os.path.relpath(path, workdir).encode() + b"\0")
            digest.update(len(data).to_bytes(8, "big") + data)


def problems(name: str, seed: int) -> tuple[list[str], str]:
    """What went wrong in one cycle of ``name`` at ``seed`` (empty if
    nothing), and the sha256 of the files the cycle wrote."""
    with tempfile.TemporaryDirectory(prefix=f"same-answers-{name}-{seed}-") as workdir:
        run = make_run(name, seed, 0.0, False, ROOT, workdir)
        if run.reference is None:
            return ["no committed reference for this seed"], "-"
        run.setup(repeats=1)
        digest = hashlib.sha256()
        launch = run.program.run

        def run_and_hash(*args, **kwargs):
            outcome = launch(*args, **kwargs)
            add_files(digest, workdir)
            return outcome

        run.program.run = run_and_hash
        run.operate(min_operations=run.stream.cycle if run.stream is not None else 1)
        found = [o.problem or f"exit code {o.code}" for o in run.outcomes() if not o.ok]
        return found, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, as 0-19")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    failed = checked = 0
    start = time.perf_counter()
    for name in args.workload or WORKLOADS:
        for seed in seeds:
            found, digest = problems(name, seed)
            checked += 1
            failed += bool(found)
            verdict = "FAIL: " + "; ".join(found) if found else "same"
            print(f"{name} seed {seed}: {verdict} sha256 {digest}", flush=True)
    print(f"{checked - failed} of {checked} workload/seed pairs give the committed answers")
    print(f"checked in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
