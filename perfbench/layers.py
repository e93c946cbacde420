"""The traced layers of ridge-relay and the per-layer metrics built from them.

A layer is a package module. Each public function listed in ``TRACED`` is
wrapped from outside the package (see ``spantrace.py``) and yields four
metrics, each normalized per operation of the workload:

``<module>.<function>.ms``          busy time summed over threads
``<module>.<function>.self_ms``     busy time minus the part its child spans cover
``<module>.<function>.self_share``  self time as a share of the parent span's wall time
``<module>.<function>.calls``       number of calls

``COUNTERS`` are derived from returned values, raised exceptions and file
sizes, never from changes to the program. ``SHOULD_MOVE`` records, before
any optimisation is measured, which end-to-end metric each layer should
move and on which workload.
"""

from __future__ import annotations

TRACED: dict[str, tuple[str, ...]] = {
    "cli_io": ("main", "read_state", "doc_to_state", "write_state", "state_to_doc",
               "read_batch_csv", "read_covariate_csv", "write_plot_dataset"),
    "model_core": ("align_batch", "assemble_target"),
    "penalty_tuning": ("select_penalty", "cv_score", "constraint_terms"),
    "linear_estimator": ("fit_targeted_ridge", "update"),
    "logistic_estimator": ("irls_fit", "update_logistic"),
    "baselines": ("estimate_xi", "stack_batches"),
    "sim_harness": ("run_study_mixed_vs_updated", "generate_batches"),
    "parallel": ("parallel_map",),
}

SPAN_SUFFIXES = (("ms", "ms"), ("self_ms", "ms"), ("self_share", "ratio"), ("calls", "count"))

# name -> (unit, better)
COUNTERS: dict[str, tuple[str, str]] = {
    "process.import_ms": ("ms", "lower"),
    "cli_io.state_bytes_written": ("bytes", "lower"),
    "penalty_tuning.fits_per_candidate": ("ratio", "lower"),
    "penalty_tuning.candidates_infinite": ("count", "lower"),
    "penalty_tuning.fallbacks": ("count", "lower"),
    "logistic_estimator.irls_iterations": ("count", "lower"),
    "logistic_estimator.irls_failures": ("count", "lower"),
    "baselines.estimate_xi.failures": ("count", "lower"),
    "parallel.planned_workers_max": ("count", "lower"),
    "parallel.queue_wait_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.accounted_share": ("ratio", "higher"),
    "trace.accounting_gap": ("ratio", "lower"),
}

# Import plus the self times of these layers should account for the wall
# time of the main command on ``ACCOUNTING_CHECKED``, within the tracing
# overhead (see ``trace_report``).
ACCOUNTED_LAYERS = ("cli_io", "penalty_tuning")
ACCOUNTING_CHECKED = ("stream-linear",)

STREAM_WORKLOADS = ("stream-linear", "stream-logistic")

# layer prefix -> (end-to-end metrics it should move, workloads where it runs)
SHOULD_MOVE: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "process.import_ms": (("update_ms_p50", "predict_ms_p50"),
                          STREAM_WORKLOADS + ("study-mixed",)),
    "cli_io.write_plot_dataset": (("study_updates_per_s",), ("study-mixed",)),
    "cli_io": (("update_ms_p50", "predict_ms_p50", "state_mb", "peak_rss_mb"), STREAM_WORKLOADS),
    "model_core": (("update_ms_p50", "study_updates_per_s"),
                   ("stream-linear", "study-mixed")),
    "penalty_tuning": (("study_updates_per_s", "update_ms_p50"),
                       ("study-mixed",) + STREAM_WORKLOADS),
    "linear_estimator": (("study_updates_per_s", "update_ms_p50"),
                         ("study-mixed", "stream-linear")),
    "logistic_estimator": (("update_ms_p50",), ("stream-logistic",)),
    "baselines": (("study_updates_per_s",), ("study-mixed",)),
    "sim_harness": (("study_updates_per_s",), ("study-mixed",)),
    "parallel": (("study_updates_per_s", "update_ms_p50"),
                 ("study-mixed",) + STREAM_WORKLOADS),
    "trace": ((), STREAM_WORKLOADS + ("study-mixed",)),
}


def span_names() -> list[str]:
    return [f"{module}.{func}" for module, funcs in TRACED.items() for func in funcs]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [(f"{span}.{suffix}", unit, "lower")
           for span in span_names() for suffix, unit in SPAN_SUFFIXES]
    out.extend((name, unit, better) for name, (unit, better) in COUNTERS.items())
    return out


def should_move(metric: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Longest ``SHOULD_MOVE`` prefix that covers ``metric``."""
    best = ""
    for prefix in SHOULD_MOVE:
        if (metric == prefix or metric.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return SHOULD_MOVE[best]
