"""Run every workload once and print each one's metrics by name with unit.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs as its own
``perfbench/run.py`` process, one after another; outputs are checked
against the reference where one is recorded for the seed. Exits 1 if a
workload fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, RUN, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print("\n".join(lines[:-2]))
        print(f"reference checked: {detail['reference']}  attempted={result['attempted']}"
              f"  failed={result['failed']}  correct={result['correct']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
