"""Tests for the randomness-testing battery (the entropy estimate's r term)."""

import pytest

from repro.core.engine import EngineParameters, QKDProtocolEngine
from repro.core.randomness import RandomnessTester
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


def biased_bits(n: int, ones_fraction: float, seed: int = 1) -> BitString:
    rng = DeterministicRNG(seed)
    return BitString(1 if rng.bernoulli(ones_fraction) else 0 for _ in range(n))


def correlated_bits(n: int, flip_probability: float, seed: int = 2) -> BitString:
    """A Markov chain that tends to repeat the previous bit (afterpulse-like memory)."""
    rng = DeterministicRNG(seed)
    bits = [rng.getrandbits(1)]
    for _ in range(n - 1):
        bits.append(bits[-1] ^ (1 if rng.bernoulli(flip_probability) else 0))
    return BitString(bits)


class TestIndividualTests:
    def test_monobit_passes_random_data(self):
        tester = RandomnessTester()
        result = tester.monobit(BitString.random(4096, DeterministicRNG(3)))
        assert result.passed
        assert result.entropy_defect_per_bit == 0.0

    def test_monobit_catches_detector_bias(self):
        tester = RandomnessTester()
        result = tester.monobit(biased_bits(4096, 0.60))
        assert not result.passed
        assert result.entropy_defect_per_bit > 0.0

    def test_runs_catches_correlation(self):
        tester = RandomnessTester()
        result = tester.runs(correlated_bits(4096, flip_probability=0.2))
        assert not result.passed
        assert result.entropy_defect_per_bit > 0.0

    def test_runs_passes_random_data(self):
        assert RandomnessTester().runs(BitString.random(4096, DeterministicRNG(4))).passed

    def test_autocorrelation_catches_memory(self):
        result = RandomnessTester().autocorrelation(correlated_bits(4096, 0.25), lag=1)
        assert not result.passed

    def test_block_frequency_catches_drift(self):
        # First half strongly biased to 1, second half to 0: globally balanced,
        # but the per-block test sees it.
        half = 2048
        drifting = biased_bits(half, 0.8, seed=5) + biased_bits(half, 0.2, seed=6)
        tester = RandomnessTester()
        assert tester.monobit(drifting).passed  # global balance looks fine
        assert not tester.block_frequency(drifting).passed

    def test_empty_and_tiny_inputs(self):
        tester = RandomnessTester()
        assert tester.monobit(BitString()).passed
        assert tester.runs(BitString([1])).passed
        assert tester.autocorrelation(BitString([1]), lag=1).passed

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RandomnessTester(significance_sigmas=0)
        with pytest.raises(ValueError):
            RandomnessTester(block_size=1)


class TestBattery:
    def test_random_data_yields_zero_r(self):
        report = RandomnessTester().assess(BitString.random(4096, DeterministicRNG(7)))
        assert all(result.passed for result in report.results)
        assert report.non_randomness_bits == 0

    def test_biased_data_yields_positive_r(self):
        report = RandomnessTester().assess(biased_bits(4096, 0.62))
        assert not all(result.passed for result in report.results)
        assert 0 < report.non_randomness_bits <= 4096

    def test_stronger_bias_larger_r(self):
        mild = RandomnessTester().assess(biased_bits(4096, 0.58, seed=8))
        strong = RandomnessTester().assess(biased_bits(4096, 0.75, seed=9))
        assert strong.non_randomness_bits > mild.non_randomness_bits

    def test_report_block_size(self):
        report = RandomnessTester().assess(BitString.random(1000, DeterministicRNG(10)))
        assert report.block_bits == 1000


class TestEngineIntegration:
    def _noisy_pair(self, n, rate, seed):
        rng = DeterministicRNG(seed)
        alice = BitString.random(n, rng)
        errors = rng.sample(range(n), int(round(rate * n)))
        bob = alice.to_list()
        for index in errors:
            bob[index] ^= 1
        return alice, BitString(bob)

    def test_randomness_testing_off_by_default(self):
        engine = QKDProtocolEngine(rng=DeterministicRNG(11))
        assert engine.randomness_tester is None

    def test_random_key_unaffected_by_testing(self):
        alice, bob = self._noisy_pair(2048, 0.05, seed=12)
        baseline = QKDProtocolEngine(EngineParameters(), DeterministicRNG(13)).distill_block(
            alice, bob, transmitted_pulses=400_000
        )
        tested = QKDProtocolEngine(
            EngineParameters(randomness_testing=True), DeterministicRNG(13)
        ).distill_block(alice, bob, transmitted_pulses=400_000)
        assert tested.distilled_bits == baseline.distilled_bits

    def test_biased_key_is_shortened(self):
        """A biased raw key (e.g. unbalanced detectors) distills fewer bits."""
        rng = DeterministicRNG(14)
        alice = BitString(1 if rng.bernoulli(0.65) else 0 for _ in range(2048))
        bob = alice ^ BitString(int(i in (3, 700, 1500)) for i in range(len(alice)))
        baseline = QKDProtocolEngine(EngineParameters(), DeterministicRNG(15)).distill_block(
            alice, bob, transmitted_pulses=400_000
        )
        tested = QKDProtocolEngine(
            EngineParameters(randomness_testing=True), DeterministicRNG(15)
        ).distill_block(alice, bob, transmitted_pulses=400_000)
        assert tested.distilled_bits < baseline.distilled_bits
        assert tested.entropy.inputs.non_randomness > 0
