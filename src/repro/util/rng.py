"""Deterministic randomness for reproducible QKD simulations.

Physics simulations of quantum channels are inherently stochastic (photon
number statistics, detector dark counts, basis choices).  To make experiments
and tests reproducible every component draws randomness from a
``DeterministicRNG`` that is explicitly seeded, and components that need
independent streams derive child generators with :meth:`DeterministicRNG.fork`
rather than sharing one stream (which would make results depend on call order).
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRNG:
    """A seeded random source with the draws the QKD stack needs.

    This wraps :class:`random.Random` (a Mersenne Twister) rather than
    ``numpy`` so that single-draw call sites stay cheap and the dependency
    surface stays small.  It is *not* a cryptographic RNG; within the
    simulation it stands in for both the physical randomness of the quantum
    channel and the local random choices (basis selection, LFSR seeds) that a
    real implementation would take from a hardware RNG.
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self._random_state = None
        self._fork_counter = 0

    @property
    def _random(self) -> random.Random:
        """The backing Mersenne Twister, seeded on first draw.

        Lazy because forking is much more common than drawing: a link
        constructs ~10 labeled forks but most only ever derive further
        children (``fork`` needs just the seed), and per-epoch fleets
        construct links by the hundred.  Seeding is a pure function of
        ``seed``, so laziness cannot perturb any stream.
        """
        state = self._random_state
        if state is None:
            state = self._random_state = random.Random(self.seed)
        return state

    # ------------------------------------------------------------------ #
    # Stream management
    # ------------------------------------------------------------------ #

    def fork(self, label: str = "") -> "DeterministicRNG":
        """Derive an independent child generator.

        The child's seed mixes this generator's seed, a per-parent counter and
        the optional label through a stable hash (BLAKE2b), so forking in a
        fixed order yields the same set of independent streams in every
        process.  (Python's built-in ``hash`` of a string is randomized per
        process by ``PYTHONHASHSEED``, which would silently make every
        "seeded" simulation unreproducible across runs.)
        """
        self._fork_counter += 1
        base = self.seed if self.seed is not None else 0
        material = f"{base}|{self._fork_counter}|{label}".encode()
        child_seed = int.from_bytes(
            hashlib.blake2b(material, digest_size=8).digest(), "big"
        )
        return DeterministicRNG(child_seed)

    def fork_labeled(self, label: str) -> "DeterministicRNG":
        """Derive a child generator from this seed and ``label`` *only*.

        Unlike :meth:`fork`, no per-parent counter enters the derivation, so
        the child stream depends solely on ``(seed, label)`` — forking the
        same label twice yields the same stream, and the order in which
        different labels are forked does not matter.  Fleets use it
        (``fork_labeled(f"link/{prefix}/{i}")``): a link's randomness is a
        pure function of the root seed and its index, so adding, removing
        or reordering links leaves every other link's stream unchanged.

        The key material is framed as ``"<seed>|L|<label>"``; the counter
        variant uses a decimal counter in that position, so the two
        derivations can never collide.
        """
        base = self.seed if self.seed is not None else 0
        material = f"{base}|L|{label}".encode()
        child_seed = int.from_bytes(
            hashlib.blake2b(material, digest_size=8).digest(), "big"
        )
        return DeterministicRNG(child_seed)

    # ------------------------------------------------------------------ #
    # Primitive draws
    # ------------------------------------------------------------------ #

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def getrandbits(self, n: int) -> int:
        """``n`` random bits as an integer (``n`` may be 0)."""
        if n == 0:
            return 0
        return self._random.getrandbits(n)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return self._random.randint(low, high)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def choice(self, options: Sequence[T]) -> T:
        """Pick one element uniformly at random."""
        return self._random.choice(options)

    def shuffle(self, items: List[T]) -> List[T]:
        """Return a shuffled copy of ``items`` (the input is not modified)."""
        shuffled = list(items)
        self._random.shuffle(shuffled)
        return shuffled

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct elements without replacement."""
        return self._random.sample(population, k)

    # ------------------------------------------------------------------ #
    # Distributions used by the photonic simulation
    # ------------------------------------------------------------------ #

    def poisson(self, mean: float) -> int:
        """Poisson-distributed photon number for a weak-coherent pulse.

        Uses Knuth's multiplication method, which is exact and fast for the
        small means (mu ~ 0.1) used in QKD sources.
        """
        if mean < 0:
            raise ValueError("Poisson mean must be non-negative")
        if mean == 0:
            return 0
        import math

        limit = math.exp(-mean)
        count = 0
        product = self._random.random()
        while product > limit:
            count += 1
            product *= self._random.random()
        return count

    def exponential(self, mean: float) -> float:
        """Exponentially distributed waiting time (e.g. between dark counts)."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return self._random.expovariate(1.0 / mean)

    def gauss(self, mean: float, stddev: float) -> float:
        """Gaussian draw (used for timing jitter and phase drift)."""
        return self._random.gauss(mean, stddev)

    def binomial(self, n: int, probability: float) -> int:
        """Number of successes in ``n`` Bernoulli trials."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return sum(1 for _ in range(n) if self.bernoulli(probability))
