"""Self-check of the benchmark at tiny size.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; takes about a minute. It checks
that:

- ``BENCHMARK.json`` lists exactly the per-layer metrics ``layers.py``
  defines, with the same units;
- every workload, at tiny size, traced and untraced, prints every metric of
  ``BENCHMARK.json`` with its unit, and runs without a failed operation;
- the tracer wraps the functions imported by name into other modules;
- the accounted time of a trace counts self time that overlaps on pool
  threads once and leaves out the layers it does not account;
- a reference recorded from a run is met by the next run, and the same
  reference with one value tampered with counts a failed operation.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import workloads as wl
from layers import per_layer_metrics
from make_reference import cycle_length, reference_from
from run import ROOT, Run, execute, result_line
from trace_report import LayerTotals

# Two operations cover a tiny stream's cycle, so a run's observations
# define a whole reference.
TINY_STREAMS = {
    "stream-linear": wl.StreamSpec(family="linear", p=4, n=20, pregrow=3, predict=True,
                                   signal=2.0, cycle=2),
    "stream-logistic": wl.StreamSpec(family="logistic", p=3, n=40, pregrow=2, predict=False,
                                     signal=1.0, cycle=2),
}
TINY_SCENARIO = dict(wl.STUDY_SCENARIO, p=3, n=10, n_batches=3, grid_points=8,
                     mixed_ratio_grid_points=5)
IMPORT_SITES = {
    "linear_estimator.fit_targeted_ridge": "ridge_relay.penalty_tuning.fit_targeted_ridge",
    "logistic_estimator.irls_fit": "ridge_relay.penalty_tuning.irls_fit",
    "model_core.align_batch": "ridge_relay.penalty_tuning.align_batch",
    "linear_estimator.update": "ridge_relay.cli_io.update",
    "penalty_tuning.select_penalty": "ridge_relay.sim_harness.select_penalty",
    "baselines.estimate_xi": "ridge_relay.sim_harness.estimate_xi",
}


def tiny_run(name: str, trace: bool, workdir: str, reference: dict | None = None) -> Run:
    """A run at tiny size in a fresh directory under ``workdir``; two operations."""
    stream = TINY_STREAMS.get(name)
    scenario = None if stream else wl.study_scenario(0, TINY_SCENARIO)
    directory = os.path.join(workdir, f"run-{len(os.listdir(workdir))}")
    os.makedirs(directory)
    return Run(name, 0, 0.0, trace, ROOT, directory, stream=stream, scenario=scenario,
               reference=reference)


def tamper(reference: dict) -> dict:
    """The reference with one chosen penalty, or one study cell, changed."""
    bad = copy.deepcopy(reference)
    if "updates" in bad:
        lam = bad["updates"][0]["lam"]
        bad["updates"][0]["lam"] = wl.GRID[0] if lam != wl.GRID[0] else wl.GRID[1]
    else:
        row = next(r for r in bad["mse_curves"][1:] if r[-1])
        row[-1] = repr(float(row[-1]) * 1.01 + 1.0)
    return bad


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            self.failures.append(what)


def check_metrics(checks: Checks, spec: dict, name: str, workdir: str) -> dict | None:
    """Both trace modes print every metric; returns the untraced run's reference."""
    reference = None
    for trace in (False, True):
        run = tiny_run(name, trace, workdir)
        detail = execute(run)
        wanted = spec["per_layer" if trace else "end_to_end"]
        line = json.loads(json.dumps(result_line(detail, [m["name"] for m in wanted])))
        missing = [m["name"] for m in wanted
                   if line["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
        checks.expect(not missing and set(line["metrics"]) == {m["name"] for m in wanted},
                      f"{name} trace={int(trace)}: every metric printed with its unit"
                      + (f" (missing {missing[:3]})" if missing else ""))
        checks.expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                      f"{name} trace={int(trace)}: no failed operation {detail['problems']}")
        if not trace:
            reference = reference_from(run)
    return reference


def check_reference(checks: Checks, name: str, reference: dict, workdir: str) -> None:
    for ref, should_fail in ((reference, False), (tamper(reference), True)):
        run = tiny_run(name, False, workdir, ref)
        run.setup(repeats=1)
        run.operate(min_operations=cycle_length(run))
        failed = sum(1 for o in run.outcomes() if not o.ok)
        what = "tampered reference counts a failed operation" if should_fail \
            else "recorded reference is met"
        checks.expect((failed >= 1) if should_fail else (failed == 0), f"{name}: {what}")


def check_import_sites(checks: Checks) -> None:
    import spantrace

    rec = spantrace.Recorder()
    spantrace.install(rec)
    for span, site in IMPORT_SITES.items():
        checks.expect(site in rec.sites.get(span, []), f"tracer wraps {site}")


def check_accounting(checks: Checks) -> None:
    """A hand-made trace: ``main`` calls ``select_penalty``, which runs two
    ``cv_score`` spans side by side on pool threads (each around a fit) and
    then ``align_batch``. Accounted: import 10, ``main`` 20, ``select_penalty``
    20 and the overlapping ``cv_score`` self time 20 once."""
    names = ["cli_io.main", "penalty_tuning.select_penalty", "penalty_tuning.cv_score",
             "linear_estimator.fit_targeted_ridge", "model_core.align_batch"]
    spans = [[1, None, 0, 0, 0, 100], [2, 1, 1, 0, 10, 90],
             [3, 2, 2, 1, 20, 60], [4, 3, 3, 1, 30, 50],
             [5, 2, 2, 2, 20, 60], [6, 5, 3, 2, 30, 50], [7, 2, 4, 0, 60, 80]]
    doc = {"names": names, "spans": spans, "counters": {}, "import_ns": 10,
           "process": [0, 100]}
    got = LayerTotals().add(doc)["accounted_ns"]
    checks.expect(got == 70, f"accounted time of a hand-made trace is 70 (got {got})")


def main() -> int:
    checks = Checks()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    checks.expect(listed == per_layer_metrics(),
                  "BENCHMARK.json per_layer matches layers.per_layer_metrics()")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for name in ("stream-linear", "stream-logistic", "study-mixed"):
        workdir = os.path.join(ROOT, ".perfbench_run", f"selfcheck-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            reference = check_metrics(checks, spec, name, workdir)
            if reference is not None:
                check_reference(checks, name, reference, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass  # another run still uses it
    check_import_sites(checks)
    check_accounting(checks)
    print(f"{len(checks.failures)} check(s) failed" if checks.failures else "all checks hold")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
