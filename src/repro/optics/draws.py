"""Stream-exact, chunked forms of the per-slot draws that dominate a batch.

The pinned key-material digests fix which numbers every ``numpy`` generator
hands out and in which order, so a draw can only be made cheaper by computing
*the same values from the same stream positions* another way.  The kernels
here do that for the draws taken for every trigger slot on the slot→key path;
each returns what the ``Generator`` call it replaces returns and leaves the
generator's full state (``state``, ``inc``, ``has_uint32``, ``uinteger``) where
that call leaves it.  ``tests/test_optics_differential.py`` holds the numpy
behaviour they rely on with canaries and every kernel to the ``Generator`` call.

**Chunks.**  Every kernel draws in chunks of :data:`CHUNK` values, so no draw
holds a batch-sized temporary: a 500 k-slot ``Generator.random`` is 4 MB of
doubles, a chunk of it 512 KiB, reused.  Chunking moves no value: a double is
one 64-bit output wherever a call starts, ``Generator.bytes`` takes whole
32-bit words and every chunk but the last is a multiple of 4 bytes long, and
numpy's Poisson draw keeps no state between pulses.  What a chunk buys is
memory: the worker thread that emits the next batch
(:mod:`repro.lanes.engine`) allocates in its own glibc arena, which keeps
its high-water mark for good, so what it allocates must not grow with the
batch.

:func:`coin_flips` is ``Generator.integers`` over {0, 1} as ``uint8``.  numpy
draws a bounded ``uint8`` by Lemire's method on bytes peeled low-first off
``next_uint32`` words; for the range {0, 1} that reduces to ``byte >> 7``
with no rejection, and ``Generator.bytes(n)`` returns those very bytes from
the same ``ceil(n / 4)`` words.  ``Generator.bytes(0)`` consumes a 32-bit
word where ``integers(size=0)`` consumes nothing, so ``coin_flips`` returns
early on ``n == 0`` (pinned by a canary).

:func:`uniforms_below` and :func:`uniforms_at` are ``Generator.random(n) < p``
and ``Generator.random(n)[slots]``: the channel compares most doubles once
and reads the rest at a few slots.

:func:`poisson_counts` is ``Generator.poisson(lam, n)`` itself, a chunk of
:data:`POISSON_CHUNK` pulses per call, plus the ascending non-empty slots.
Each call runs without the GIL, which is what the sources need: they emit on
a worker beside the thread that carries the batch, where time spent drawing
is hidden but time holding the GIL is not.  (A vectorised replay of numpy's
multiplication method from the ``Generator.random`` doubles takes about half
numpy's time alone at 0.1 photons per pulse, 9 against 18-23 ns a pulse, but
its ~40 small interpreter steps a chunk hold the GIL the carrying thread
needs: a pipelined 5 M-slot link run took 0.269 s with it on the worker and
0.217 s with numpy's loop, median of 12 interleaved rounds on 2 vCPUs.)
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

#: Values per chunk of every kernel (64 Ki: 512 KiB of doubles).  A multiple
#: of 4, so a chunk of ``Generator.bytes`` ends on a 32-bit word.
CHUNK = 1 << 16

#: Pulses per call of :func:`poisson_counts` (an eighth of a chunk: 64 KiB of
#: numpy's ``int64`` counts at a time, against the 1 MiB a 250 k-slot batch's
#: next source arrays take beside it).
POISSON_CHUNK = CHUNK // 8


def _chunks(n: int, chunk: int = CHUNK) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of each chunk of ``range(n)``."""
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def _uniform_chunks(rng: np.random.Generator, n: int) -> Iterator[Tuple[int, np.ndarray]]:
    """``rng.random(n)`` a chunk at a time: ``(start, doubles)``, the doubles
    in one reused buffer, so each is valid until the next is drawn."""
    buffer = np.empty(min(n, CHUNK))
    for start, stop in _chunks(n):
        doubles = buffer[: stop - start]
        rng.random(out=doubles)
        yield start, doubles


def coin_flips(
    rng: np.random.Generator, n: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``rng.integers(low=0, high=2, size=n, dtype=np.uint8)``, values and stream alike.

    Written into ``out`` (a ``uint8`` array of length ``n``, e.g. a frame's
    basis array) when given.
    """
    if n == 0:
        return np.empty(0, dtype=np.uint8) if out is None else out
    flips = np.empty(n, dtype=np.uint8) if out is None else out
    for start, stop in _chunks(n):
        chunk = np.frombuffer(rng.bytes(stop - start), dtype=np.uint8)
        np.right_shift(chunk, 7, out=flips[start:stop])
    return flips


def uniforms_below(rng: np.random.Generator, n: int, threshold: float) -> np.ndarray:
    """``rng.random(n) < threshold``, values and stream alike."""
    below = np.empty(n, dtype=bool)
    for start, doubles in _uniform_chunks(rng, n):
        np.less(doubles, threshold, out=below[start : start + doubles.size])
    return below


def uniforms_at(rng: np.random.Generator, n: int, slots: np.ndarray) -> np.ndarray:
    """``rng.random(n)[slots]`` for ascending ``slots``, values and stream alike."""
    picked = np.empty(slots.size)
    edges = np.searchsorted(slots, np.arange(0, n + CHUNK, CHUNK))
    for (start, doubles), low, high in zip(_uniform_chunks(rng, n), edges, edges[1:]):
        picked[low:high] = doubles[slots[low:high] - start]
    return picked


def poisson_counts(
    rng: np.random.Generator, lam: float, n: int, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``rng.poisson(lam, size=n)``, values and stream alike, plus where it is non-zero.

    Returns ``(counts, slots)``: the dense counts — written into ``out`` (any
    integer array of length ``n``) when given, a new ``uint16`` array
    otherwise — and the ascending indices of the non-empty pulses, gathered
    chunk by chunk so that nothing scans the counts again.
    """
    counts = np.empty(n, dtype=np.uint16) if out is None else out
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    parts = [np.empty(0, dtype=index)]
    for start, stop in _chunks(n, POISSON_CHUNK):
        drawn = rng.poisson(lam, size=stop - start)
        counts[start:stop] = drawn
        parts.append((np.flatnonzero(drawn) + start).astype(index))
    return counts, np.concatenate(parts)
