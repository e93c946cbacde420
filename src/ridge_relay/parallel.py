"""The replicate loop of the simulation studies.

The studies run their replicates through ``parallel_map``, which applies
a function to every item in order on the calling thread. Replicate
threads were slower than this loop in every measurement, so the package
opens no thread pool; ``worker_count`` is always 1. Both names stay
because the benchmark's tracer wraps ``parallel_map`` and reads
``worker_count``.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

__all__ = ["worker_count", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Number of threads replicates run on: always 1, the calling thread."""
    return 1


def parallel_map(func: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply ``func`` to every item, in order, on the calling thread."""
    return [func(item) for item in items]
