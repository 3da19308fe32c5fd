"""Tests for the entangled-photon (SPDC) link — the network's planned second link."""

import pytest

from repro.link import LinkParameters, QKDLink
from repro.optics import model
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.optics.entangled import EntangledPairSource, EntangledSourceParameters
from repro.util.rng import DeterministicRNG
from tests.frames import qber


class TestEntangledChannelParameters:
    def test_constructor(self):
        params = ChannelParameters.entangled_link(10.0)
        assert params.is_entangled
        assert params.path.length_km == 10.0
        assert params.effective_mean_photon_number == pytest.approx(0.05)
        assert params.pulse_rate_hz == pytest.approx(1e6)

    def test_weak_coherent_defaults_unchanged(self):
        params = ChannelParameters()
        assert not params.is_entangled
        assert params.effective_mean_photon_number == pytest.approx(0.1)


class TestEntangledChannel:
    def test_uses_entangled_source(self):
        channel = QuantumChannel(ChannelParameters.entangled_link(10.0), DeterministicRNG(1))
        assert isinstance(channel.source, EntangledPairSource)

    def test_operating_statistics(self):
        channel = QuantumChannel(ChannelParameters.entangled_link(10.0), DeterministicRNG(2))
        result = channel.transmit(1_500_000)
        # The heralded-pair rate is lower than the weak-coherent rate, so fewer
        # detections; the QBER band is comparable (same interferometer/detectors).
        weak = QuantumChannel(ChannelParameters(), DeterministicRNG(2))
        weak_result = weak.transmit(1_500_000)
        assert 0 < result.n_sifted < weak_result.n_sifted
        assert 0.04 < qber(result) < 0.13

    def test_analytic_model_consistent_with_monte_carlo(self):
        channel = QuantumChannel(ChannelParameters.entangled_link(10.0), DeterministicRNG(3))
        result = channel.transmit(2_000_000)
        assert qber(result) == pytest.approx(channel.expected_qber(), abs=0.03)
        assert result.n_sifted / result.n_slots == pytest.approx(
            model.sifted_rate_per_slot(channel.parameters), rel=0.25
        )

    def test_heralding_efficiency_scales_rate(self):
        low = QuantumChannel(
            ChannelParameters.entangled_link(
                10.0, EntangledSourceParameters(heralding_efficiency=0.3)
            ),
            DeterministicRNG(4),
        )
        high = QuantumChannel(
            ChannelParameters.entangled_link(
                10.0, EntangledSourceParameters(heralding_efficiency=0.9)
            ),
            DeterministicRNG(4),
        )
        assert model.signal_click_probability(high.parameters) > model.signal_click_probability(
            low.parameters
        )


class TestEntangledLink:
    def test_entangled_link_distills_key(self):
        link = QKDLink(LinkParameters.entangled_link(10.0), DeterministicRNG(5))
        report = link.run_seconds(4.0)
        assert report.sifted_bits > 1000
        assert report.distilled_bits > 0
        assert link.engine.keys_match

    def test_engine_accounts_with_entangled_flag(self):
        link = QKDLink(LinkParameters.entangled_link(10.0), DeterministicRNG(6))
        report = link.run_seconds(4.0)
        distilled_outcomes = [o for o in report.outcomes if o.entropy is not None]
        assert distilled_outcomes
        assert all(o.entropy.inputs.entangled_source for o in distilled_outcomes)

    def test_entangled_sifted_rate_lower_but_comparable_qber(self):
        entangled = QKDLink(LinkParameters.entangled_link(10.0), DeterministicRNG(7))
        weak = QKDLink(LinkParameters.paper_link(), DeterministicRNG(7))
        assert entangled.sifted_rate_bps() < weak.sifted_rate_bps()
        assert abs(entangled.expected_qber() - weak.expected_qber()) < 0.03
