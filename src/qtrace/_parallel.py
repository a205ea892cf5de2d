"""Deterministic chunked map over an index range.

The chunk layout depends only on (n_items, chunk_size), and results are
merged in chunk order, so a reduction over the returned list always adds the
same partial sums in the same order.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def chunk_ranges(n_items: int, chunk_size: int) -> list[tuple[int, int]]:
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [(lo, min(lo + chunk_size, n_items)) for lo in range(0, n_items, chunk_size)]


def run_chunked(
    worker: Callable[[int, int], T],
    n_items: int,
    chunk_size: int,
    workers: int = 1,
) -> list[T]:
    """Evaluate worker(lo, hi) over fixed chunks, in chunk order.

    ``workers`` is ignored: every chunk runs in this process.  The parameter
    stays because the benchmark tracer (``perfbench/tracer.py``) binds it and
    passes ``workers=2`` as its pool start-up probe.
    """
    return [worker(lo, hi) for lo, hi in chunk_ranges(n_items, chunk_size)]

