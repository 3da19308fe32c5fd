"""Test-side draws over a :class:`~repro.util.rng.DeterministicRNG` stream.

The tests build error patterns and fault schedules from a seeded
``DeterministicRNG``; production code draws only ``random``, ``uniform``,
``getrandbits``, ``randint`` and ``exponential`` from it.  These helpers
draw the values the tests' pinned literals were recorded with: ``sample``
is :meth:`random.Random.sample` run on the stream's own ``getrandbits``,
and ``bernoulli`` takes one ``random()`` only when the outcome is not
certain, so a zero or unit rate leaves the stream where it was.
"""

import random

from repro.util.rng import DeterministicRNG


class _Stream(random.Random):
    """:class:`random.Random`'s algorithms over a ``DeterministicRNG``."""

    def __init__(self, rng: DeterministicRNG):
        super().__init__(0)
        self._rng = rng

    def random(self) -> float:
        return self._rng.random()

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)


def bernoulli(rng: DeterministicRNG, probability: float) -> bool:
    """True with ``probability``; draws nothing when it is ≤ 0 or ≥ 1."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return rng.random() < probability


def sample(rng: DeterministicRNG, population, k: int) -> list:
    """``k`` distinct elements of ``population``, without replacement."""
    return _Stream(rng).sample(population, k)
