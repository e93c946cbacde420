"""Small helper for optional thread-based parallelism.

The simulation studies run their replicates through ``parallel_map``;
that is the only pool in the package. Penalty selection and the fits
below it run on the calling thread, so pools never nest and a study
holds at most one pool of ``worker_count()`` threads.

The environment variable ``RIDGE_RELAY_THREADS`` caps the pool's worker
threads. Unset means ``os.cpu_count()``; a value of ``1`` disables the
pool and runs the plain sequential loop, which keeps profiling and
debugging simple. Results always come back in input order, so parallel
and sequential execution are interchangeable.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ValidationError

__all__ = ["worker_count", "parallel_map"]

_ENV_VAR = "RIDGE_RELAY_THREADS"

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Number of worker threads allowed by the environment."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"{_ENV_VAR} must be >= 1, got {value}")
    return value


def parallel_map(func: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply ``func`` to every item, in order, using at most ``worker_count`` threads."""
    seq: Sequence[T] = list(items)
    workers = min(worker_count(), len(seq)) if seq else 1
    if workers <= 1:
        return [func(item) for item in seq]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, seq))
