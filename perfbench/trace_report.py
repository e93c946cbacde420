"""Per-layer metrics from the trace files the driver writes.

Self time of a span is its duration minus the part of its interval that
its child spans cover, children on pool threads included, so parallel
children never drive it below zero. A layer's self share is its summed
self time over the summed wall time of the distinct spans that called it.
Busy time (``.ms``) sums durations over threads but counts a span nested
inside a span of the same name only once (``parallel_map`` inside
``parallel_map``). A root span's parent is
the driver process itself, from interpreter start-up of the driver to the
end of ``main``.

The accounted time of a process is its import time plus the wall time
during which some span of ``layers.ACCOUNTED_LAYERS`` runs its own code
(outside its child spans). Self times of spans that overlap on pool
threads are counted once there, so it never exceeds the process's wall
time.
"""

from __future__ import annotations

from collections import defaultdict

from layers import ACCOUNTED_LAYERS, SPAN_SUFFIXES, span_names


def _clipped_union(start: int, end: int,
                   intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The union of ``intervals`` within [start, end], as sorted disjoint intervals."""
    out: list[tuple[int, int]] = []
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    return sum(b - a for a, b in _clipped_union(start, end, intervals))


def _gaps(start: int, end: int, intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The parts of [start, end] that no interval covers."""
    out, reach = [], start
    for a, b in _clipped_union(start, end, intervals):
        if a > reach:
            out.append((reach, a))
        reach = b
    if end > reach:
        out.append((reach, end))
    return out


class LayerTotals:
    """Sums over the traced processes of one run."""

    def __init__(self) -> None:
        self.busy = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.parent_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.fits_in_selection = 0
        self.import_ns = 0
        self.processes = 0

    def add(self, doc: dict) -> dict:
        """Fold one trace document in; returns that process's own figures."""
        names = doc["names"]
        spans = {s[0]: s for s in doc["spans"]}
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for sid, parent, _, _, start, end in spans.values():
            if parent is not None:
                children[parent].append((start, end))
        proc_start, proc_end = doc["process"]
        fit_names = {"linear_estimator.fit_targeted_ridge", "logistic_estimator.irls_fit"}
        own_pieces: list[tuple[int, int]] = []
        parents_seen: dict[str, set] = defaultdict(set)
        for sid, parent, index, _, start, end in spans.values():
            name = names[index]
            dur = end - start
            kids = children.get(sid, [])
            self.calls[name] += 1
            self.self_ns[name] += dur - _covered(start, end, kids)
            if name.split(".")[0] in ACCOUNTED_LAYERS:
                own_pieces.extend(_gaps(start, end, kids))
            if parent not in parents_seen[name]:
                parents_seen[name].add(parent)
                p = spans.get(parent)
                self.parent_ns[name] += (p[5] - p[4]) if p else proc_end - proc_start
            ancestors = []
            up = parent
            while up is not None:
                ancestors.append(names[spans[up][2]])
                up = spans[up][1]
            if name not in ancestors:
                self.busy[name] += dur
            if name in fit_names and "penalty_tuning.select_penalty" in ancestors:
                self.fits_in_selection += 1
        for key, value in doc["counters"].items():
            if key == "parallel.planned_workers_max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        self.import_ns += doc["import_ns"]
        self.processes += 1
        return {"accounted_ns": doc["import_ns"] + _covered(proc_start, proc_end, own_pieces)}

    def metrics(self, operations: int, overhead_share: float,
                accounted_share: float) -> dict[str, float]:
        """Per-layer metrics per operation, named as in ``layers``."""
        ops = max(operations, 1)
        out: dict[str, float] = {}
        for name in span_names():
            values = {
                "ms": self.busy[name] / 1e6 / ops,
                "self_ms": self.self_ns[name] / 1e6 / ops,
                "self_share": (self.self_ns[name] / self.parent_ns[name]
                               if self.parent_ns[name] else 0.0),
                "calls": self.calls[name] / ops,
            }
            for suffix, _ in SPAN_SUFFIXES:
                out[f"{name}.{suffix}"] = values[suffix]
        c = self.counters
        candidates = c["penalty_tuning.candidates"]
        out.update({
            "process.import_ms": self.import_ns / 1e6 / max(self.processes, 1),
            "cli_io.state_bytes_written": c["cli_io.state_bytes_written"] / ops,
            "penalty_tuning.fits_per_candidate": (self.fits_in_selection / candidates
                                                  if candidates else 0.0),
            "penalty_tuning.candidates_infinite": c["penalty_tuning.candidates_infinite"] / ops,
            "penalty_tuning.fallbacks": c["penalty_tuning.fallbacks"] / ops,
            "logistic_estimator.irls_iterations": c["logistic_estimator.irls_iterations"] / ops,
            "logistic_estimator.irls_failures": c["logistic_estimator.irls_fit.failures"] / ops,
            "baselines.estimate_xi.failures": c["baselines.estimate_xi.failures"] / ops,
            "parallel.planned_workers_max": c["parallel.planned_workers_max"],
            "parallel.queue_wait_ms": c["parallel.queue_wait_ns"] / 1e6 / ops,
            "trace.overhead_share": overhead_share,
            "trace.accounted_share": accounted_share,
            "trace.accounting_gap": abs(1.0 - accounted_share),
        })
        return out
