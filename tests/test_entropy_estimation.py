"""Tests for entropy estimation: defense functions and the resultant-entropy formula."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.entropy_estimation import (
    BennettDefense,
    EntropyEstimator,
    EntropyInputs,
    SlutskyDefense,
    TransparentLeakEstimator,
)
from repro.util.units import multi_photon_probability, non_empty_pulse_probability


def inputs_for(qber: float, sifted: int = 4096, disclosed: int = 1000, **kwargs) -> EntropyInputs:
    return EntropyInputs(
        sifted_bits=sifted,
        error_bits=int(round(qber * sifted)),
        transmitted_pulses=sifted * 300,
        disclosed_parities=disclosed,
        **kwargs,
    )


class TestEntropyInputs:
    def test_validation(self):
        with pytest.raises(ValueError):
            EntropyInputs(sifted_bits=-1, error_bits=0, transmitted_pulses=0, disclosed_parities=0)
        with pytest.raises(ValueError):
            EntropyInputs(sifted_bits=10, error_bits=11, transmitted_pulses=0, disclosed_parities=0)

    def test_error_rate(self):
        assert inputs_for(0.05).error_rate == pytest.approx(0.05, abs=0.001)
        empty = EntropyInputs(sifted_bits=0, error_bits=0, transmitted_pulses=0, disclosed_parities=0)
        assert empty.error_rate == 0.0


class TestBennettDefense:
    def test_zero_errors_zero_information(self):
        estimate = BennettDefense().estimate(inputs_for(0.0))
        assert estimate.information_bits == 0.0
        assert estimate.stddev_bits == 0.0

    def test_linear_in_errors(self):
        low = BennettDefense().estimate(inputs_for(0.02))
        high = BennettDefense().estimate(inputs_for(0.04))
        assert high.information_bits == pytest.approx(2 * low.information_bits, rel=0.05)

    def test_leak_per_error_constant(self):
        assert BennettDefense.LEAK_PER_ERROR == pytest.approx(2 * math.sqrt(2))

    def test_capped_at_sifted_bits(self):
        estimate = BennettDefense().estimate(inputs_for(0.5, sifted=100))
        assert estimate.information_bits <= 100


class TestSlutskyDefense:
    def test_per_bit_boundaries(self):
        assert SlutskyDefense.per_bit_defense(0.0) == pytest.approx(0.0, abs=1e-12)
        assert SlutskyDefense.per_bit_defense(1.0 / 3.0) == pytest.approx(1.0)
        assert SlutskyDefense.per_bit_defense(0.4) == 1.0

    def test_per_bit_monotone(self):
        values = [SlutskyDefense.per_bit_defense(e / 100) for e in range(0, 34)]
        assert values == sorted(values)

    def test_per_bit_rejects_negative(self):
        with pytest.raises(ValueError):
            SlutskyDefense.per_bit_defense(-0.01)

    def test_block_estimate_scales_with_size(self):
        small = SlutskyDefense().estimate(inputs_for(0.06, sifted=1000, disclosed=0))
        large = SlutskyDefense().estimate(inputs_for(0.06, sifted=4000, disclosed=0))
        assert large.information_bits == pytest.approx(4 * small.information_bits, rel=0.05)

    def test_stddev_shrinks_relatively_with_block_size(self):
        small = SlutskyDefense().estimate(inputs_for(0.06, sifted=500, disclosed=0))
        large = SlutskyDefense().estimate(inputs_for(0.06, sifted=8000, disclosed=0))
        assert (small.stddev_bits / 500) > (large.stddev_bits / 8000)

    def test_zero_block(self):
        empty = EntropyInputs(sifted_bits=0, error_bits=0, transmitted_pulses=0, disclosed_parities=0)
        assert SlutskyDefense().estimate(empty).information_bits == 0.0

    def test_slutsky_more_conservative_than_bennett_at_high_error(self):
        """At double-digit error rates the frontier bound dominates the linear one."""
        inputs = inputs_for(0.12)
        assert (
            SlutskyDefense().estimate(inputs).information_bits
            > BennettDefense().estimate(inputs).information_bits
        )


class TestTransparentLeak:
    def test_received_accounting_default(self):
        estimator = TransparentLeakEstimator(worst_case=False)
        inputs = inputs_for(0.05, sifted=2000, mean_photon_number=0.1)
        estimate = estimator.estimate(inputs)
        expected_fraction = multi_photon_probability(0.1) / non_empty_pulse_probability(0.1)
        assert estimate.information_bits == pytest.approx(2000 * expected_fraction, rel=1e-6)

    def test_worst_case_uses_transmitted_count(self):
        estimator = TransparentLeakEstimator(worst_case=True)
        inputs = inputs_for(0.05, sifted=2000, mean_photon_number=0.1)
        estimate = estimator.estimate(inputs)
        # n * p_multi, but capped at the sifted size
        assert estimate.information_bits == pytest.approx(
            min(inputs.transmitted_pulses * multi_photon_probability(0.1), 2000)
        )

    def test_entangled_source_uses_received_count_even_in_worst_case(self):
        estimator = TransparentLeakEstimator(worst_case=True)
        inputs = inputs_for(0.05, sifted=2000, mean_photon_number=0.1, entangled_source=True)
        worst_weak = estimator.estimate(inputs_for(0.05, sifted=2000, mean_photon_number=0.1))
        entangled = estimator.estimate(inputs)
        assert entangled.information_bits < worst_weak.information_bits

    def test_leak_grows_with_mu(self):
        estimator = TransparentLeakEstimator()
        dim = estimator.estimate(inputs_for(0.05, mean_photon_number=0.05))
        bright = estimator.estimate(inputs_for(0.05, mean_photon_number=0.3))
        assert bright.information_bits > dim.information_bits


class TestResultantEntropy:
    def test_formula_components_subtract(self):
        """distillable = b - d - r - defense - transparent - margin (floored at 0)."""
        estimator = EntropyEstimator(defense=BennettDefense(), confidence_sigmas=5.0)
        inputs = inputs_for(0.06, sifted=4096, disclosed=1500, non_randomness=10)
        estimate = estimator.estimate(inputs)
        reconstructed = (
            4096
            - 1500
            - 10
            - estimate.defense.information_bits
            - estimate.transparent.information_bits
            - estimate.margin_bits
        )
        assert estimate.distillable_bits == max(int(math.floor(reconstructed)), 0)

    def test_more_disclosure_less_key(self):
        estimator = EntropyEstimator(defense=BennettDefense())
        low = estimator.estimate(inputs_for(0.05, disclosed=500))
        high = estimator.estimate(inputs_for(0.05, disclosed=1500))
        assert high.distillable_bits < low.distillable_bits

    def test_more_errors_less_key(self):
        estimator = EntropyEstimator(defense=BennettDefense())
        clean = estimator.estimate(inputs_for(0.02))
        noisy = estimator.estimate(inputs_for(0.10))
        assert noisy.distillable_bits < clean.distillable_bits

    def test_floor_at_zero(self):
        estimator = EntropyEstimator(defense=SlutskyDefense())
        hopeless = estimator.estimate(inputs_for(0.25, sifted=512, disclosed=500))
        assert hopeless.distillable_bits == 0
        assert hopeless.secret_fraction == 0.0

    @pytest.mark.parametrize("sigmas", [-1.0, math.nan, math.inf])
    def test_invalid_configuration(self, sigmas):
        # NaN or infinity would build, then fail inside math.floor mid-block.
        with pytest.raises(ValueError):
            EntropyEstimator(confidence_sigmas=sigmas)

    @given(st.floats(min_value=0.0, max_value=0.15), st.integers(min_value=256, max_value=8192))
    @settings(max_examples=40, deadline=None)
    def test_distillable_never_exceeds_sifted(self, qber, sifted):
        estimator = EntropyEstimator(defense=SlutskyDefense())
        estimate = estimator.estimate(inputs_for(qber, sifted=sifted, disclosed=0))
        assert 0 <= estimate.distillable_bits <= sifted
