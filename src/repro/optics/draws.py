"""Stream-exact replays of the two per-slot draws that dominate a batch.

The pinned key-material digests fix which numbers every ``numpy`` generator
hands out and in which order, so a draw can only be made cheaper by computing
*the same values from the same stream positions* another way.  The two kernels
here do that for the draws taken for every trigger slot on the slot→key path;
each returns what the ``Generator`` method it replaces returns and leaves the
generator's full state (``state``, ``inc``, ``has_uint32``, ``uinteger``) where
that method leaves it.  ``tests/test_optics_differential.py`` holds both numpy
algorithms with canaries and both kernels to the ``Generator`` methods.

:func:`coin_flips` is ``Generator.integers`` over {0, 1} as ``uint8``.  numpy
draws a bounded ``uint8`` by Lemire's method on bytes peeled low-first off
``next_uint32`` words; for the range {0, 1} that reduces to ``byte >> 7``
with no rejection, and ``Generator.bytes(n)`` returns those very bytes from
the same ``ceil(n / 4)`` words.

:func:`poisson_counts` is ``Generator.poisson(lam, n)``.  For ``0 < lam < 10``
numpy uses the multiplication method: per pulse, multiply ``next_double``
values into a running product until it falls to ``exp(-lam)``; the count is
the number that kept it above.  ``Generator.random`` returns the same doubles,
so a pulse ends at every ``U <= exp(-lam)`` with no arithmetic (90 % of the
stream at the paper's 0.1 photons per pulse) and only runs of two or more
consecutive ``U > exp(-lam)`` (under 1 % of slots) need the product, taken one
vector step per position in the run, all runs at once.  The cost is therefore
one ``random``, one compare and work on the ~10 % of doubles above the line,
plus one interpreter step per position of the *longest* run.  That is exact
for every ``lam`` in (0, 10) — the differential test runs it there — but only
cheaper than numpy's loop while most doubles end a pulse outright: measured
here at 500k pulses, 9 against 18-23 ns per pulse at ``lam`` 0.1, level at
0.5-0.6, 2x slower at 1, and the longest run grows like ``exp(lam)`` from
there (400x slower at 9.9).  So the replay serves ``lam`` below
:data:`REPLAY_BELOW` and ``Generator.poisson`` itself the rest; the stream is
the same on both sides of that line, which makes it a cost decision only.

Three traps, each pinned by a test:

* ``Generator.bytes(0)`` consumes a 32-bit word where ``integers(size=0)``
  consumes nothing — ``coin_flips`` returns early on ``n == 0``.
* The doubles one call consumes are only known once counted (``n`` plus the
  doubles that did not end a pulse).  Over-drawing and rewinding with
  ``PCG64.advance`` would clear the buffered half-word (``has_uint32`` /
  ``uinteger``) that ``Generator.poisson`` leaves alone, so the kernel never
  over-draws: every pulse still owed needs at least one more double, it draws
  exactly that many, and goes round again for the shortfall.
* ``lam == 0`` (numpy returns zeros and consumes nothing) and ``lam >= 10``
  (numpy switches to the PTRS rejection algorithm) are numpy's own branches on
  the value and not the multiplication method at all; both lie outside
  ``0 < lam < REPLAY_BELOW`` and reach ``Generator.poisson`` unchanged.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

#: Means from which :func:`poisson_counts` leaves the draw to numpy (see the
#: module docstring for the measurement).  The paper's sources run at 0.05-0.1.
REPLAY_BELOW = 0.5

_NO_DOUBLES = np.empty(0, dtype=np.float64)


def coin_flips(
    rng: np.random.Generator, n: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``rng.integers(low=0, high=2, size=n, dtype=np.uint8)``, values and stream alike.

    Written into ``out`` (a ``uint8`` array of length ``n``, e.g. a frame's
    basis array) when given.
    """
    if n == 0:
        return np.empty(0, dtype=np.uint8) if out is None else out
    return np.right_shift(np.frombuffer(rng.bytes(n), dtype=np.uint8), 7, out=out)


def poisson_counts(
    rng: np.random.Generator, lam: float, n: int, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``rng.poisson(lam, size=n)``, values and stream alike, plus where it is non-zero.

    Returns ``(counts, slots)``: the dense counts — written into ``out`` (any
    integer array of length ``n``) when given, a new ``uint16`` array
    otherwise — and the ascending indices of the non-empty pulses, which the
    replay knows without a pass over the counts.
    """
    counts = np.empty(n, dtype=np.uint16) if out is None else out
    if not 0 < lam < REPLAY_BELOW:
        counts[...] = rng.poisson(lam, size=n)
        return counts, np.flatnonzero(counts)
    slots, occupancy = _replay_multiplication_method(rng, math.exp(-lam), n)
    counts[...] = 0
    counts[slots] = occupancy
    return counts, slots


def _replay_multiplication_method(rng: np.random.Generator, enlam: float, n: int):
    """The non-empty pulses of ``n`` multiplication-method draws: ``(slots, counts)``."""
    slot_parts = [np.empty(0, dtype=np.int64)]
    count_parts = [np.empty(0, dtype=np.int64)]
    done = 0
    #: Doubles of the pulse the previous round left unfinished (all above the
    #: line, product still above it); the next round starts with them again.
    tail = _NO_DOUBLES
    while done < n:
        doubles = rng.random(n - done)
        if tail.size:
            doubles = np.concatenate((tail, doubles))
        high = np.flatnonzero(doubles > enlam)
        # A high double counts towards its pulse unless the running product
        # falls to the line at it, which ends the pulse there instead.
        counted = _highs_the_product_survives(doubles, high, enlam)
        position = high[counted]
        # Every double before a counted high either ended a pulse or was
        # counted, so its pulse number is its position less the highs counted
        # before it; the highs of one pulse share that number.
        pulse = position - np.arange(position.size)
        # Highs that every pulse end of this buffer precedes belong to a pulse
        # the buffer does not finish: not counted yet, carried over instead.
        completed = doubles.size - position.size
        cut = int(np.searchsorted(pulse, completed))
        tail = doubles[position[cut]:] if cut < position.size else _NO_DOUBLES
        pulse = pulse[:cut]
        first = np.flatnonzero(pulse[1:] != pulse[:-1]) + 1
        if cut:
            first = np.concatenate(([0], first))
        slot_parts.append(pulse[first] + done)
        count_parts.append(np.diff(first, append=cut))
        done += completed
    return np.concatenate(slot_parts), np.concatenate(count_parts)


def _highs_the_product_survives(doubles: np.ndarray, high: np.ndarray, enlam: float) -> np.ndarray:
    """For each index in ``high`` (ascending positions of ``doubles > enlam``),
    whether the pulse's running product is still above ``enlam`` after it.

    A lone high always is (``1.0 * U == U``).  Runs of consecutive highs are
    walked one position per step, every run at once; where the product falls
    to the line the pulse ends, and the next position starts one afresh.
    """
    counted = np.ones(high.size, dtype=bool)
    follows = np.zeros(high.size + 1, dtype=bool)
    np.equal(high[1:], high[:-1] + 1, out=follows[1:-1])
    # follows[k]: high k - 1 and high k are neighbours.  Where it changes are,
    # alternately, the first and the last high of each run of two or more.
    edge = np.flatnonzero(follows[1:] != follows[:-1])
    if not edge.size:
        return counted
    run_length = edge[1::2] - edge[0::2] + 1
    # Longest run first, so the runs still being walked are always a prefix.
    order = np.argsort(-run_length, kind="stable")
    first = edge[0::2][order]
    start = high[first]
    still_longer = order.size - np.cumsum(np.bincount(run_length))
    product = doubles[start]
    for step in range(1, still_longer.size - 1):
        live = product[: still_longer[step]]
        live *= doubles[start[: live.size] + step]
        ended = np.flatnonzero(live <= enlam)
        counted[first[ended] + step] = False
        live[ended] = 1.0
    return counted
