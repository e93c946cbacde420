"""The three workloads: two operator streams and one study.

One closed-loop client runs one program process at a time and starts the
next only after the previous one has exited. Every input comes from the
workload seed. ``RIDGE_RELAY_THREADS`` is removed from the programs'
environment, as a user runs the tool without it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER = os.path.join(HERE, "driver.py")
REFERENCE_DIR = os.path.join(HERE, "reference")

# The CLI's documented default penalty grid; every chosen lambda lies on it.
GRID = tuple(np.geomspace(1e-4, 1e6, 50).tolist())
# Tolerances for numeric outputs checked against a reference. Chosen
# penalties, fallback flags and feasible counts must match exactly.
RTOL, ATOL = 1e-7, 1e-9
PROCESS_TIMEOUT_S = 120.0
# Per coordinate and batch, the stream coefficients' direction drifts by
# this much; the pre-grown batches are folded in with this fixed penalty.
STREAM_DRIFT = 0.02
PREGROW_LAM = 10.0


@dataclass
class Outcome:
    """One program process, timed from spawn to exit."""

    argv: list[str]
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    traced: bool
    trace: dict | None = None
    problem: str | None = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.problem is None


class Program:
    """Starts ridge-relay through ``driver.py`` with the checkout's ``src``."""

    def __init__(self, root: str, workdir: str) -> None:
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("RIDGE_RELAY_THREADS", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = workdir
        self.env = env
        self.trace_files = 0

    def run(self, argv: list[str], trace: bool = False) -> Outcome:
        """Run one command; traced, the outcome carries the trace document."""
        cmd = [sys.executable, DRIVER]
        trace_path = None
        if trace:
            self.trace_files += 1
            trace_path = os.path.join(self.workdir, f"trace-{self.trace_files}.json")
            cmd += ["--trace-out", trace_path]
        cmd += ["--"] + argv
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        outcome = Outcome(argv=argv, code=proc.returncode, wall_s=wall,
                          rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout, stderr=stderr,
                          traced=trace)
        if outcome.code != 0:
            outcome.problem = f"exit code {outcome.code}: {stderr.strip()[-300:]}"
        if trace_path is not None:
            if os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    outcome.trace = json.load(fh)
                os.unlink(trace_path)
            elif outcome.problem is None:
                outcome.problem = "traced run wrote no trace"
        return outcome


def load_reference(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFERENCE_DIR, workload + ".json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


# ---------------------------------------------------------------------------
# operator streams


@dataclass(frozen=True)
class StreamSpec:
    """An operator feeding one batch per ``update`` process into a grown state.

    The state is pre-grown to ``pregrow`` retained batches with the fixed
    penalty ``PREGROW_LAM``, through the public API. Arriving batches
    replay in cycles of ``cycle``: the state is restored to its pre-grown
    copy at the start of each cycle, so every timed update sees a history
    of ``pregrow`` to ``pregrow + cycle - 1`` batches however fast the
    program runs. The self-check shortens the cycle to fit its tiny runs.

    The coefficient vector has norm ``signal`` and its direction drifts by
    ``STREAM_DRIFT`` per coordinate and batch, so the chosen penalty moves
    with the data. A fixed norm keeps the work of a logistic fit, which
    grows with the signal, about the same from seed to seed.
    """

    family: str
    p: int
    n: int
    pregrow: int
    predict: bool
    signal: float
    cycle: int = 5


STREAMS = {
    "stream-linear": StreamSpec(family="linear", p=20, n=50, pregrow=100, predict=True,
                                signal=4.0),
    "stream-logistic": StreamSpec(family="logistic", p=10, n=100, pregrow=10,
                                  predict=False, signal=1.5),
}


def stream_batches(spec: StreamSpec, seed: int, count: int):
    """``count`` (X, y) batches from the seed; the same seed, the same batches."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.p, spec.n]))
    direction = rng.standard_normal(spec.p)
    out = []
    for _ in range(count):
        direction = direction / np.linalg.norm(direction)
        direction = direction + rng.normal(0.0, STREAM_DRIFT, spec.p)
        X = rng.standard_normal((spec.n, spec.p))
        eta = (spec.signal / np.linalg.norm(direction)) * (X @ direction)
        if spec.family == "linear":
            y = eta + rng.standard_normal(spec.n)
        else:
            y = (rng.random(spec.n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        out.append((X, y))
    return out


def covariate_names(p: int) -> tuple[str, ...]:
    return tuple(f"x{j:02d}" for j in range(1, p + 1))


def write_batch_csv(path: str, names, X, y) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["y"])
        for row, response in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(response))])


def stream_setup(spec: StreamSpec, seed: int, directory: str) -> None:
    """Pre-grown state plus the arriving batches' CSVs, in ``directory``."""
    from ridge_relay import (Batch, CoefficientVector, CovariateRegistry,
                             EstimatorState, update, update_logistic)
    from ridge_relay.cli_io import write_state

    os.makedirs(directory, exist_ok=True)
    names = covariate_names(spec.p)
    batches = stream_batches(spec, seed, spec.pregrow + spec.cycle)
    state = EstimatorState(family=spec.family, registry=CovariateRegistry(names),
                           init_target=CoefficientVector({n: 0.0 for n in names}))
    step = update if spec.family == "linear" else update_logistic
    for t, (X, y) in enumerate(batches[:spec.pregrow], start=1):
        batch = Batch(t=t, X=X, y=y, covariates=names, family=spec.family)
        state = step(state, batch, PREGROW_LAM)
    write_state(state, os.path.join(directory, "pregrown.json"))
    for j, (X, y) in enumerate(batches[spec.pregrow:]):
        write_batch_csv(os.path.join(directory, f"batch-{j}.csv"), names, X, y)


@dataclass
class StreamObservation:
    """What one arriving batch produced: update outcome and optional predict."""

    update: Outcome
    predict: Outcome | None = None
    record: dict = field(default_factory=dict)


def stream_operation(spec: StreamSpec, program: Program, directory: str, k: int,
                     trace: bool) -> StreamObservation:
    """Fold the k-th arriving batch in (``update``), then ``predict`` on it."""
    j = k % spec.cycle
    state = os.path.join(directory, "state.json")
    if j == 0:
        shutil.copyfile(os.path.join(directory, "pregrown.json"), state)
    data = os.path.join(directory, f"batch-{j}.csv")
    upd = program.run(["update", "--state", state, "--data", data, "--response", "y"],
                      trace)
    obs = StreamObservation(update=upd)
    if upd.code == 0:
        try:
            out = json.loads(upd.stdout)
            obs.record = {"t": out["t"], "lam": out["lam"],
                          "fallback_used": out["fallback_used"],
                          "n_feasible": out["n_feasible"]}
        except (ValueError, KeyError) as exc:
            upd.problem = f"unreadable update output: {exc!r}"
    if spec.predict:
        pred = program.run(["predict", "--state", state, "--data", data,
                            "--response", "y"], trace)
        obs.predict = pred
        if pred.code == 0:
            try:
                obs.record["predictions"] = [float(v) for v in pred.stdout.split()]
            except ValueError as exc:
                pred.problem = f"unreadable predictions: {exc!r}"
    return obs


def stream_check(spec: StreamSpec, obs: StreamObservation, k: int,
                 reference: dict | None) -> None:
    """Mark the observation's outcomes failed where outputs are wrong."""
    j = k % spec.cycle
    rec = obs.record
    if obs.update.ok:
        expected_t = spec.pregrow + j + 1
        if rec["t"] != expected_t:
            obs.update.problem = f"state at t={rec['t']}, expected {expected_t}"
        elif reference is not None:
            want = reference["updates"][j]
            got = {key: rec[key] for key in want}
            if got != want:
                obs.update.problem = f"update {j}: got {got}, reference {want}"
        elif rec["lam"] not in GRID:
            obs.update.problem = f"chosen lambda {rec['lam']!r} is not on the grid"
    if obs.predict is not None and obs.predict.ok:
        values = rec.get("predictions", [])
        if len(values) != spec.n or not all(math.isfinite(v) for v in values):
            obs.predict.problem = f"expected {spec.n} finite predictions"
        elif reference is not None:
            want = reference["predictions"][j]
            if not all(_close(a, b) for a, b in zip(values, want)):
                obs.predict.problem = f"predictions {j} differ from the reference"


# ---------------------------------------------------------------------------
# simulation study

# The criterion-06 regime A layout: mixed-vs-updated, p=11, n=25, 10 batches,
# leave-one-out, constrained, every tenth batch pure noise.
STUDY_SCENARIO = {
    "study": "mixed-vs-updated", "family": "linear", "p": 11, "n": 25,
    "n_batches": 10, "n_replicates": 2, "noise_var": 1.0, "empty_every": 10,
    "k_folds": None, "constrained": True,
}
STUDY_FILES = ("mse_curves", "quantile_trajectories")


def study_scenario(seed: int, scenario: dict | None = None) -> dict:
    return dict(scenario or STUDY_SCENARIO, seed=seed)


def chain_updates(scenario: dict) -> int:
    """Chain updates one ``simulate`` completes: replicates x batches x 2 chains."""
    return scenario["n_replicates"] * scenario["n_batches"] * 2


def study_setup(scenario: dict, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)


@dataclass
class StudyObservation:
    simulate: Outcome
    record: dict = field(default_factory=dict)


def study_operation(scenario: dict, program: Program, directory: str, k: int,
                    trace: bool) -> StudyObservation:
    out_dir = os.path.join(directory, f"out-{k}")
    sim = program.run(["simulate", "--scenario", os.path.join(directory, "scenario.json"),
                       "--out", out_dir], trace)
    obs = StudyObservation(simulate=sim)
    if sim.code == 0:
        study = scenario["study"]
        try:
            for name in STUDY_FILES:
                with open(os.path.join(out_dir, f"{study}_{name}.csv"),
                          encoding="utf-8", newline="") as fh:
                    obs.record[name] = list(csv.reader(fh))
        except OSError as exc:
            sim.problem = f"missing study output: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return obs


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return _close(float(got), float(want))
    except ValueError:
        return False


def study_check(scenario: dict, obs: StudyObservation, reference: dict | None) -> None:
    sim = obs.simulate
    if not sim.ok:
        return
    mse = obs.record["mse_curves"]
    if mse[:1] != [["series", "t", "mean_squared_error"]] or \
            len(mse) != 1 + 3 * scenario["n_batches"]:
        sim.problem = "mse_curves has an unexpected layout"
        return
    for name in STUDY_FILES:
        rows = obs.record[name]
        for row in rows[1:]:
            for cell in row[1:]:
                try:
                    finite = not cell or math.isfinite(float(cell))
                except ValueError:
                    finite = False
                if not finite:
                    sim.problem = f"{name} holds a non-numeric value {cell!r}"
                    return
        if reference is not None:
            want = reference[name]
            if len(rows) != len(want) or not all(
                    len(r) == len(w) and all(_cells_match(a, b) for a, b in zip(r, w))
                    for r, w in zip(rows, want)):
                sim.problem = f"{name} differs from the reference"
                return
