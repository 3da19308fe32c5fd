"""Randomness testing of the raw QKD bits (the paper's ``r`` term).

Section 6 lists, among the components of the entropy estimate, "an estimate of
the information Eve might possess due to non-randomness in the raw QKD bits
(detector bias, for example)", and notes that in the fielded system "the
non-randomness measure is only a placeholder at the moment, until randomness
testing is put into the system.  We assume that this testing will produce a
measure in the form of a number of bits by which to shorten the string."

This module supplies that missing piece: a small battery of classical
randomness tests (monobit balance, runs, block frequency, serial
autocorrelation) applied to the sifted bits, converted into exactly the form
the entropy estimator expects — a number of bits by which to shorten the
block.  The conversion is deliberately conservative and simple: each test
estimates how many bits of entropy per bit are *missing* given the observed
statistic, the battery takes the worst case, and the result is rounded up.

A detector whose D1 fires slightly more often than D0 (the paper's own
example) shows up directly in the monobit test; correlated afterpulsing shows
up in the runs and autocorrelation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.mathkit.entropy import binary_entropy
from repro.util.bits import BitString


@dataclass
class RandomnessTestResult:
    """Outcome of one test: a statistic and the entropy defect it implies."""

    name: str
    statistic: float
    #: Estimated missing entropy per bit (0 = perfectly random, 1 = constant).
    entropy_defect_per_bit: float
    passed: bool


@dataclass
class RandomnessReport:
    """The battery's verdict on one block of raw/sifted bits."""

    block_bits: int
    results: List[RandomnessTestResult]

    @property
    def worst_defect_per_bit(self) -> float:
        if not self.results:
            return 0.0
        return max(result.entropy_defect_per_bit for result in self.results)

    @property
    def non_randomness_bits(self) -> int:
        """The ``r`` of the entropy estimate: bits to shorten the block by."""
        return int(math.ceil(self.worst_defect_per_bit * self.block_bits))

class RandomnessTester:
    """A small battery of bias/correlation tests over a bit block."""

    def __init__(self, significance_sigmas: float = 3.0, block_size: int = 128):
        if significance_sigmas <= 0:
            raise ValueError("significance threshold must be positive")
        if block_size <= 1:
            raise ValueError("block size must exceed one bit")
        self.significance_sigmas = significance_sigmas
        self.block_size = block_size

    # ------------------------------------------------------------------ #
    # Individual tests
    # ------------------------------------------------------------------ #

    def monobit(self, bits: BitString) -> RandomnessTestResult:
        """Overall 0/1 balance; a biased detector pair fails here first."""
        n = len(bits)
        if n == 0:
            return RandomnessTestResult("monobit", 0.0, 0.0, True)
        ones_fraction = bits.balance()
        sigma = 0.5 / math.sqrt(n)
        deviation_sigmas = abs(ones_fraction - 0.5) / sigma if sigma else 0.0
        passed = deviation_sigmas <= self.significance_sigmas
        defect = 0.0
        if not passed:
            defect = 1.0 - binary_entropy(min(max(ones_fraction, 1e-12), 1 - 1e-12))
        return RandomnessTestResult("monobit", ones_fraction, defect, passed)

    def runs(self, bits: BitString) -> RandomnessTestResult:
        """Number of runs vs the expectation for an unbiased, uncorrelated source."""
        n = len(bits)
        if n < 2:
            return RandomnessTestResult("runs", 0.0, 0.0, True)
        observed_runs = len(bits.runs())
        p = bits.balance()
        expected = 1 + 2 * n * p * (1 - p)
        variance = max(2 * n * p * (1 - p) * (2 * p * (1 - p) - 1 / n), 1e-12)
        deviation_sigmas = abs(observed_runs - expected) / math.sqrt(variance)
        passed = deviation_sigmas <= self.significance_sigmas
        defect = 0.0
        if not passed:
            # Convert the run-count excess/deficit into a per-bit correlation
            # and from there into a (first-order Markov) entropy defect.
            correlation = max(min(1.0 - observed_runs / max(expected, 1e-12), 0.999), -0.999)
            transition = 0.5 * (1.0 + abs(correlation))
            defect = 1.0 - binary_entropy(min(max(transition, 1e-12), 1 - 1e-12))
        return RandomnessTestResult("runs", float(observed_runs), defect, passed)

    def block_frequency(self, bits: BitString) -> RandomnessTestResult:
        """Per-block balance: catches slow drift in detector bias."""
        blocks = [b for b in bits.chunks(self.block_size) if len(b) == self.block_size]
        if not blocks:
            return RandomnessTestResult("block-frequency", 0.0, 0.0, True)
        fractions = [block.balance() for block in blocks]
        chi_squared = 4.0 * self.block_size * sum((p - 0.5) ** 2 for p in fractions)
        degrees = len(blocks)
        # A chi-square variable with k degrees of freedom has mean k and
        # variance 2k; flag the block when it exceeds the significance band.
        threshold = degrees + self.significance_sigmas * math.sqrt(2.0 * degrees)
        passed = chi_squared <= threshold
        defect = 0.0
        if not passed:
            worst = max(fractions, key=lambda p: abs(p - 0.5))
            per_bit = 1.0 - binary_entropy(min(max(worst, 1e-12), 1 - 1e-12))
            # Only the biased blocks are discounted, not the whole string.
            defect = per_bit * self.block_size / len(bits)
        return RandomnessTestResult("block-frequency", chi_squared, defect, passed)

    def autocorrelation(self, bits: BitString, lag: int = 1) -> RandomnessTestResult:
        """Lag-``lag`` serial correlation: catches afterpulse-style memory."""
        n = len(bits)
        if n <= lag:
            return RandomnessTestResult("autocorrelation", 0.0, 0.0, True)
        matches = sum(1 for i in range(n - lag) if bits[i] == bits[i + lag])
        fraction = matches / (n - lag)
        sigma = 0.5 / math.sqrt(n - lag)
        deviation_sigmas = abs(fraction - 0.5) / sigma if sigma else 0.0
        passed = deviation_sigmas <= self.significance_sigmas
        defect = 0.0
        if not passed:
            defect = 1.0 - binary_entropy(min(max(fraction, 1e-12), 1 - 1e-12))
        return RandomnessTestResult(f"autocorrelation-lag{lag}", fraction, defect, passed)

    # ------------------------------------------------------------------ #

    def assess(self, bits: BitString) -> RandomnessReport:
        """Run the whole battery and produce the ``r`` measure."""
        results = [
            self.monobit(bits),
            self.runs(bits),
            self.block_frequency(bits),
            self.autocorrelation(bits, lag=1),
            self.autocorrelation(bits, lag=2),
        ]
        return RandomnessReport(block_bits=len(bits), results=results)
