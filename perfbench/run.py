"""ridge-relay benchmark: operator streams and a simulation study.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ``src/`` of
that checkout. ``NAME`` is one of ``stream-linear``, ``stream-logistic`` and
``study-mixed`` (see ``README.md`` beside this file). The run sets up its
inputs from the seed several times and keeps the last set-up, then runs
the workload's commands in a closed loop for ``S`` seconds, one program
process at a time, and checks every output. Further timed set-ups run
between the commands.

With ``--trace 0`` the programs run untraced and the result carries the
end-to-end metrics; with ``--trace 1`` every other operation runs traced
and the result carries the per-layer metrics and the tracing overhead.
The last line of standard output is the result as one JSON object; the
line before it holds every metric by name with unit, the sample counts
and the environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wl
from layers import ACCOUNTING_CHECKED, per_layer_metrics, should_move
from trace_report import LayerTotals

WORKLOADS = ("stream-linear", "stream-logistic", "study-mixed")
SETUP_REPEATS = 3
# Share of the operating time given to further timed set-ups between
# operations. The machine's speed drifts over tens of seconds, so set-ups
# sampled across the run see the same drift as the operations.
SETUP_SHARE = 0.1
MIN_OPERATIONS = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def timing(values_s: list[float], scale: float = 1000.0) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    values = [v * scale for v in values_s]
    out = {"value": statistics.median(values), "samples": len(values),
           "series": [round(v, 3) for v in values]}
    for q in TAIL_PERCENTILES:
        if len(values) * (1.0 - q / 100.0) >= 10:
            out["tail"] = {"percentile": q, "value": float(np.percentile(values, q))}
            break
    return out


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _command_output(cmd: list[str], cwd: str) -> str | None:
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: str, workdir: str, program: wl.Program) -> dict:
    """Enough to tell whether two runs were like for like."""
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ridge_relay_threads": program.env.get("RIDGE_RELAY_THREADS"),
        "ridge_relay_threads_in_caller": os.environ.get("RIDGE_RELAY_THREADS"),
        # What worker_count() gives with RIDGE_RELAY_THREADS unset.
        "program_worker_threads": os.cpu_count() or 1,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **{var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _command_output(["git", "rev-parse", "HEAD"], root),
        "src_sha256": source_digest(root),
        "filesystem": _command_output(["stat", "-f", "-c", "%T", workdir], workdir),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, root: str,
                 workdir: str, stream: wl.StreamSpec | None = None,
                 scenario: dict | None = None, reference: dict | None = None) -> None:
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.root, self.workdir = root, workdir
        self.stream = stream
        self.scenario = scenario
        self.reference = reference
        self.program = wl.Program(root, workdir)
        self.setup_s: list[float] = []
        self.observations: list = []
        self.totals = LayerTotals()
        self.accounted_s: dict[int, float] = {}  # by operation index
        self.data_dir = ""

    def set_up(self, directory: str) -> None:
        """One timed set-up from scratch in ``directory``.

        It generates the inputs, pre-grows the state (streams) and writes
        the files; no program process runs in it.
        """
        start = time.perf_counter()
        if self.stream is not None:
            wl.stream_setup(self.stream, self.seed, directory)
        else:
            wl.study_setup(self.scenario, directory)
        self.setup_s.append(time.perf_counter() - start)

    def setup(self, repeats: int = SETUP_REPEATS) -> None:
        """Set up ``repeats`` times; the last set-up is kept for the operations.

        An untimed program process (``--help``) then warms the caches before
        the operations are timed.
        """
        for i in range(repeats):
            directory = os.path.join(self.workdir, f"setup-{i}")
            self.set_up(directory)
            if self.data_dir:
                shutil.rmtree(self.data_dir)
            self.data_dir = directory
        warm = self.program.run(["--help"])
        if warm.code != 0:
            raise RuntimeError(f"warm-up failed: {warm.problem}")

    def sample_setups(self, budget_s: float) -> None:
        """Timed set-ups into a scratch directory until ``budget_s`` has passed."""
        end = time.perf_counter() + budget_s
        directory = os.path.join(self.workdir, "setup-sample")
        while True:
            self.set_up(directory)
            shutil.rmtree(directory)
            if time.perf_counter() >= end:
                return

    def operate(self, min_operations: int = MIN_OPERATIONS) -> None:
        """Closed loop: operations back to back until ``seconds`` have passed.

        Between operations, set-ups are timed for about ``SETUP_SHARE`` of
        the time passed.
        """
        began = time.perf_counter()
        deadline = began + self.seconds
        sampling_s = 0.0
        k = 0
        while k < min_operations or time.perf_counter() < deadline:
            traced = self.trace and k % 2 == 0
            if self.stream is not None:
                obs = wl.stream_operation(self.stream, self.program, self.data_dir, k,
                                          traced)
                wl.stream_check(self.stream, obs, k, self.reference)
            else:
                obs = wl.study_operation(self.scenario, self.program, self.data_dir, k,
                                         traced)
                wl.study_check(self.scenario, obs, self.reference)
            self.observations.append(obs)
            self.fold_traces(obs)
            k += 1
            now = time.perf_counter()
            owed = SETUP_SHARE * (now - began) - sampling_s
            if owed > 0:
                self.sample_setups(owed)
                sampling_s += time.perf_counter() - now

    def fold_traces(self, obs) -> None:
        """Add the operation's trace documents to the totals, then drop them."""
        main = obs.update if self.stream is not None else obs.simulate
        for outcome in self.outcomes([obs]):
            if outcome.trace is None:
                continue
            figures = self.totals.add(outcome.trace)
            outcome.trace = None
            if outcome is main:
                self.accounted_s[len(self.observations) - 1] = figures["accounted_ns"] / 1e9

    # -- results ------------------------------------------------------------

    def outcomes(self, observations: list | None = None) -> list[wl.Outcome]:
        out = []
        for obs in self.observations if observations is None else observations:
            if self.stream is not None:
                out.append(obs.update)
                if obs.predict is not None:
                    out.append(obs.predict)
            else:
                out.append(obs.simulate)
        return out

    def main_outcomes(self, traced: bool) -> list[wl.Outcome]:
        """The workload's main command (update or simulate), traced or not."""
        mains = [obs.update if self.stream is not None else obs.simulate
                 for obs in self.observations]
        return [o for o in mains if o.traced == traced]

    def end_to_end(self) -> dict[str, dict]:
        """Every end-to-end metric this workload defines, with units and samples."""
        outcomes = self.outcomes()
        failed = sum(1 for o in outcomes if not o.ok)
        mains = self.main_outcomes(traced=False)
        metrics = {
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s",
                        "samples": len(self.setup_s)},
            "peak_rss_mb": {"value": max(o.rss_mb for o in outcomes), "unit": "MB"},
            "error_rate": {"value": failed / len(outcomes), "unit": "ratio",
                           "attempted": len(outcomes), "failed": failed},
        }
        if self.stream is not None:
            metrics["update_ms_p50"] = dict(timing([o.wall_s for o in mains]), unit="ms")
            predicts = [obs.predict for obs in self.observations
                        if obs.predict is not None and not obs.predict.traced]
            if predicts:
                metrics["predict_ms_p50"] = dict(timing([o.wall_s for o in predicts]),
                                                 unit="ms")
            state = os.path.join(self.data_dir, "state.json")
            metrics["state_mb"] = {"value": os.path.getsize(state) / 1e6, "unit": "MB"}
            metrics["study_updates_per_s"] = {
                "value": len(mains) / sum(o.wall_s for o in mains), "unit": "1/s",
                "note": "one update per process"}
        else:
            updates = wl.chain_updates(self.scenario)
            metrics["study_updates_per_s"] = {
                "value": updates * len(mains) / sum(o.wall_s for o in mains),
                "unit": "1/s", "processes": len(mains)}
            metrics["update_ms_p50"] = dict(
                timing([o.wall_s / updates for o in mains]), unit="ms",
                note="simulate wall time per chain update")
        return metrics

    def layers(self) -> dict[str, float]:
        """Per-layer metrics per traced operation, with the tracing overhead.

        Overhead and accounted share are medians over pairs of a traced main
        command and the untraced one run right after it, so that the
        machine's drift over the run cancels.
        """
        mains = [obs.update if self.stream is not None else obs.simulate
                 for obs in self.observations]
        pairs = [(mains[k].wall_s, mains[k + 1].wall_s, self.accounted_s[k])
                 for k in range(0, len(mains) - 1, 2) if k in self.accounted_s]
        overhead = statistics.median(t / u for t, u, _ in pairs) - 1.0
        accounted = statistics.median(a / u for _, u, a in pairs)
        return self.totals.metrics(len(self.main_outcomes(traced=True)), overhead, accounted)


def make_run(name: str, seed: int, seconds: float, trace: bool, root: str,
             workdir: str) -> Run:
    reference = wl.load_reference(name, seed)
    if name == "study-mixed":
        return Run(name, seed, seconds, trace, root, workdir,
                   scenario=wl.study_scenario(seed), reference=reference)
    return Run(name, seed, seconds, trace, root, workdir, stream=wl.STREAMS[name],
               reference=reference)


def execute(run: Run) -> dict:
    """Set up, operate and summarize; returns the detail document."""
    run.setup()
    run.operate()
    outcomes = run.outcomes()
    detail = {
        "workload": run.name, "seed": run.seed, "seconds": run.seconds,
        "trace": int(run.trace), "operations": len(run.observations),
        "reference": run.reference is not None,
        "problems": [o.problem for o in outcomes if not o.ok][:5],
        "end_to_end": run.end_to_end(),
    }
    if run.trace:
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        detail["per_layer"] = {}
        for name, value in run.layers().items():
            moves, where = should_move(name)
            detail["per_layer"][name] = {"value": value, "unit": units[name],
                                         "should_move": list(moves), "on": list(where)}
        if run.name in ACCOUNTING_CHECKED:
            gap = detail["per_layer"]["trace.accounting_gap"]["value"]
            overhead = detail["per_layer"]["trace.overhead_share"]["value"]
            detail["accounting_check"] = {"gap": gap, "overhead_share": overhead,
                                          "holds": gap <= overhead}
    detail["environment"] = environment(run.root, run.workdir, run.program)
    return detail


def result_line(detail: dict, gated: list[str]) -> dict:
    errors = detail["end_to_end"]["error_rate"]
    table = detail["per_layer" if detail["trace"] else "end_to_end"]
    metrics = {name: {"value": table[name]["value"], "unit": table[name]["unit"]}
               for name in gated}
    return {"correct": errors["failed"] == 0, "attempted": errors["attempted"],
            "failed": errors["failed"], "metrics": metrics}


def print_table(detail: dict) -> None:
    rows = dict(detail["end_to_end"])
    if detail["trace"]:
        rows.update(detail["per_layer"])
    for name, metric in rows.items():
        extra = ""
        if "samples" in metric:
            extra = f"  n={metric['samples']}"
            if "tail" in metric:
                tail = metric["tail"]
                extra += f"  p{tail['percentile']:g}={tail['value']:.4f}"
        print(f"{name:48s} {metric['value']:16.6f} {metric['unit']}{extra}")
    check = detail.get("accounting_check")
    if check is not None:
        verdict = "holds" if check["holds"] else "FAILS"
        print(f"accounting check {verdict}: gap {check['gap']:.4f}"
              f" vs tracing overhead {check['overhead_share']:.4f}")


ROOT = os.getcwd()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ridge_relay", "__init__.py")):
        sys.stderr.write(f"no ridge_relay package under {src}; run from a checkout root\n")
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workdir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = make_run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
                       workdir)
        detail = execute(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    print_table(detail)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result_line(detail, gated)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
