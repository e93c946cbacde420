"""Span and counter recorder wrapped around ridge-relay's public functions.

Nothing under ``src/`` changes: ``install`` replaces each function named
in ``layers.TRACED`` by a wrapper in every ``ridge_relay`` module namespace
that holds it, so calls through a name imported into another module
(``penalty_tuning.fit_targeted_ridge``, ``cli_io.select_penalty``, ...) are
recorded too. A span is (id, parent id, name, thread, start ns, end ns).
The current span lives in a context variable; ``parallel_map``'s wrapper
hands it to the pool threads, which ``ThreadPoolExecutor`` does not do, so
spans on worker threads keep the calling span as parent. Spans stay in
memory until ``Recorder.dump``.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import math
import os
import sys
import threading
import time

from layers import TRACED

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int | None, int, int, int, int]] = []
        self.counters: dict[str, float] = {}
        self.sites: dict[str, list[str]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(recorder, result, args, kwargs)``
        derives counters from what it returned."""
        index = len(self.names)
        self.names.append(name)
        spans, ids = self.spans, self._ids
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _current.get()
            sid = next(ids)
            token = _current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(name + ".failures", 1)
                raise
            finally:
                end = clock()
                _current.reset(token)
                spans.append((sid, parent, index, ident(), start, end))
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra, names=self.names, spans=self.spans,
                   counters=self.counters, sites=self.sites)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _after_irls_fit(rec: Recorder, fit, args, kwargs) -> None:
    rec.add("logistic_estimator.irls_iterations", fit.iterations)


def _after_select_penalty(rec: Recorder, report, args, kwargs) -> None:
    rec.add("penalty_tuning.candidates", len(report.cv_curve))
    rec.add("penalty_tuning.candidates_infinite",
            sum(1 for c in report.cv_curve if not math.isfinite(c.score)))
    rec.add("penalty_tuning.fallbacks", int(report.fallback_used))


def _after_write_state(rec: Recorder, result, args, kwargs) -> None:
    path = kwargs["path"] if "path" in kwargs else args[1]
    rec.add("cli_io.state_bytes_written", os.path.getsize(path))


AFTER = {
    "logistic_estimator.irls_fit": _after_irls_fit,
    "penalty_tuning.select_penalty": _after_select_penalty,
    "cli_io.write_state": _after_write_state,
}


def _traced_parallel_map(rec: Recorder, original, worker_count):
    """``parallel_map`` whose items run under the calling span on any thread.

    The planned worker count is computed as ``parallel_map`` computes it;
    no thread is started to measure it.
    """
    clock = time.perf_counter_ns

    def parallel_map(func, items):
        seq = list(items)
        planned = min(worker_count(), len(seq)) if seq else 1
        rec.peak("parallel.planned_workers_max", planned)
        parent = _current.get()
        called = clock()

        def run(item):
            if planned > 1:
                rec.add("parallel.queue_wait_ns", clock() - called)
            token = _current.set(parent)
            try:
                return func(item)
            finally:
                _current.reset(token)

        return original(run, seq)

    return parallel_map


def install(rec: Recorder) -> None:
    """Wrap every traced function at every ``ridge_relay`` import site."""
    import ridge_relay.cli_io  # noqa: F401  (pulls in every traced module)

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "ridge_relay" or name.startswith("ridge_relay.")}
    worker_count = modules["ridge_relay.parallel"].worker_count
    for module, funcs in TRACED.items():
        home = modules[f"ridge_relay.{module}"]
        for func in funcs:
            name = f"{module}.{func}"
            original = getattr(home, func)
            impl = original
            if name == "parallel.parallel_map":
                impl = _traced_parallel_map(rec, original, worker_count)
            wrapper = rec.wrap(name, impl, AFTER.get(name))
            sites = rec.sites.setdefault(name, [])
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        sites.append(f"{mod_name}.{attr}")
            sites.sort()
