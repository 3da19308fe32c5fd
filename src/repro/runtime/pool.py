"""Worker-pool plumbing for the link farm.

One helper, :func:`parallel_map`, is the one-shot fan-out, and it has one
caller: :meth:`repro.runtime.farm.LinkFarm.run`.  It applies a picklable function to a list of picklable work items
across a process or thread pool, **preserving input order** in the results.
Order preservation is what turns a pool into a deterministic scheduler —
callers put independence into the work items (forked RNG streams, no shared
state) and get scheduling-invariant output back by construction.  Two
would-be callers loop inline instead, because a pool lost to the plain loop
there: pad-material generation (at every fleet size measured, 12-400 links)
and the blocks of one engine.

``workers=1`` (or a single item) runs inline with no pool at all, so the
same call sites serve both the parallel and the degenerate case, and a
single-worker run is byte-identical to a many-worker run rather than merely
equivalent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Supported pool backends.  ``"process"`` sidesteps the GIL and is the
#: default for CPU-bound link runs; ``"thread"`` avoids pickling and process
#: start-up and is useful for small batches and tests.
BACKENDS = ("process", "thread")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request (``None`` means one per CPU)."""
    if workers is None:
        return max(os.cpu_count() or 1, 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    backend: str = "process",
) -> List[R]:
    """``[fn(item) for item in items]`` across a worker pool, order preserved.

    With the ``"process"`` backend both ``fn`` and every item must be
    picklable (``fn`` must be a module-level function).  Exceptions raised in
    a worker propagate to the caller.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    count = resolve_workers(workers)
    items = list(items)
    if count <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    executor_cls = ProcessPoolExecutor if backend == "process" else ThreadPoolExecutor
    with executor_cls(max_workers=min(count, len(items))) as pool:
        return list(pool.map(fn, items))
