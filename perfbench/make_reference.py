"""Record the program's outputs as the benchmark's correctness reference.

    python3 perfbench/make_reference.py [--seeds 0-19] [--workload NAME ...]

Run from the root of a checkout. For each workload and seed this sets up
the inputs as a benchmark run does and runs one cycle of operations
untraced: every arriving batch of a stream (chosen penalty, fallback flag,
feasible count and the predictions) or one ``simulate`` of the study (its
CSV tables). The outputs must already pass the invariant checks. They are
written to ``perfbench/reference/<workload>.json``, keyed by seed, one
seed per line. Runs at those seeds then compare against them; other
seeds check invariants only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import workloads as wl
from run import ROOT, WORKLOADS, Run, make_run, source_digest


def reference_from(run: Run) -> dict:
    """The reference a run's first cycle of observations defines."""
    if run.stream is None:
        return {name: run.observations[0].record[name] for name in wl.STUDY_FILES}
    cycle = run.observations[:run.stream.cycle]
    ref = {"updates": [{key: obs.record[key] for key in ("lam", "fallback_used", "n_feasible")}
                       for obs in cycle]}
    if run.stream.predict:
        ref["predictions"] = [obs.record["predictions"] for obs in cycle]
    return ref


def cycle_length(run: Run) -> int:
    return run.stream.cycle if run.stream is not None else 1


def record(name: str, seed: int, workdir: str) -> dict:
    run = make_run(name, seed, 0.0, False, ROOT, workdir)
    run.reference = None
    run.setup(repeats=1)
    run.operate(min_operations=cycle_length(run))
    problems = [o.problem for o in run.outcomes() if not o.ok]
    if problems:
        raise SystemExit(f"{name} seed {seed}: {problems[0]}")
    return reference_from(run)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, as 0-19")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or WORKLOADS:
        doc = {"source": {"src_sha256": source_digest(ROOT),
                          "tolerance": {"rtol": wl.RTOL, "atol": wl.ATOL}}}
        for seed in seeds:
            workdir = os.path.join(ROOT, ".perfbench_run", f"reference-{name}-{seed}")
            os.makedirs(workdir, exist_ok=True)
            try:
                doc[str(seed)] = record(name, seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
                try:
                    os.rmdir(os.path.dirname(workdir))
                except OSError:
                    pass  # another run still uses it
            print(f"{name} seed {seed} recorded", flush=True)
        path = os.path.join(wl.REFERENCE_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(doc[key], separators=(',', ':'))}"
                for key in sorted(doc)) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
