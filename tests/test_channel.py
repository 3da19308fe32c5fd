"""Tests for the assembled quantum channel — including the paper's operating point."""

from dataclasses import replace

import numpy as np
import pytest

from repro.optics import model
from repro.optics.channel import ChannelParameters, QuantumChannel
from repro.optics.model import DetectorParameters
from repro.optics.fiber import OpticalPath
from repro.util.rng import DeterministicRNG
from tests.frames import detected, qber, sifted_errors


class TestChannelParameters:
    def test_paper_operating_point_defaults(self):
        params = ChannelParameters()
        assert params.source.mean_photon_number == pytest.approx(0.1)
        assert params.source.pulse_rate_hz == pytest.approx(1e6)
        assert params.path.length_km == pytest.approx(10.0)

    def test_for_distance(self):
        params = ChannelParameters.for_distance(25.0)
        assert params.path.length_km == pytest.approx(25.0)

    def test_a_misspelled_field_is_refused(self):
        """A variant is ``dataclasses.replace`` of the paper's link, which
        refuses an unknown field; ``for_distance`` used to set any keyword
        as a stray attribute and keep the default detectors."""
        with pytest.raises(TypeError):
            ChannelParameters.for_distance(2.0, detektors=None)
        with pytest.raises(TypeError):
            replace(ChannelParameters.for_distance(2.0), detektors=None)


class TestAnalyticModel:
    def test_click_probability_composition(self):
        params = QuantumChannel(rng=DeterministicRNG(2)).parameters
        p_signal = model.signal_click_probability(params)
        p_dark = model.dark_click_probability(params)
        p_total = model.click_probability(params)
        assert p_total == pytest.approx(1 - (1 - p_signal) * (1 - p_dark))
        assert p_signal > p_dark  # at 10 km the signal dominates

    def test_sifted_rate_is_half_the_click_rate(self):
        channel = QuantumChannel(rng=DeterministicRNG(3))
        params = channel.parameters
        assert model.sifted_rate_per_slot(params) == pytest.approx(
            0.5 * model.click_probability(params)
        )
        assert model.sifted_rate_per_second(params) == pytest.approx(
            model.sifted_rate_per_slot(params) * 1e6
        )

class TestMonteCarlo:
    def test_zero_and_negative_slots(self):
        channel = QuantumChannel(rng=DeterministicRNG(1))
        result = channel.transmit(0)
        assert result.n_slots == 0
        assert result.n_sifted == 0
        assert qber(result) == 0.0
        with pytest.raises(ValueError):
            channel.transmit(-1)
        # Afterpulsing looks one gate back; with no gates it must not draw.
        afterpulsing = QuantumChannel(
            ChannelParameters(detectors=DetectorParameters(afterpulse_probability=0.05)),
            DeterministicRNG(1),
        )
        assert afterpulsing.transmit(0).n_slots == 0

    def test_frame_result_invariants(self, paper_channel):
        result = paper_channel.transmit(300_000)
        assert result.n_slots == 300_000
        assert result.n_sifted <= detected(result) <= result.n_slots
        assert 0 <= sifted_errors(result) <= result.n_sifted
        # Sifted mask only covers usable clicks with matching bases.
        mask = result.sifted_mask
        assert np.all(result.alice_basis[mask] == result.bob_basis[mask])
        assert np.all(result.usable_clicks[mask])

    def test_statistics_accumulate(self):
        channel = QuantumChannel(rng=DeterministicRNG(5))
        channel.transmit(1000)
        channel.transmit(2000)
        assert channel.slots_transmitted == 3000

    def test_attack_hook_receives_control(self):
        class RecordingAttack:
            def __init__(self):
                self.called = False

            def intercept(self, emission, transmittance, rng):
                self.called = True
                return {
                    "photons_at_receiver": np.zeros_like(emission["photons"]),
                    "phase_at_receiver": emission["phase"],
                    "record": {"attack": "blackhole"},
                }

        attack = RecordingAttack()
        channel = QuantumChannel(rng=DeterministicRNG(6))
        params = channel.parameters
        params.detectors = type(params.detectors)(dark_count_probability=0.0)
        channel = QuantumChannel(params, DeterministicRNG(6))
        result = channel.transmit(50_000, attack=attack)
        assert attack.called
        assert result.attack_record["attack"] == "blackhole"
        # Eve swallowed every photon and dark counts are off: no clicks at all.
        assert detected(result) == 0

    def test_lossier_path_means_fewer_detections(self):
        near = QuantumChannel(ChannelParameters.for_distance(10.0), DeterministicRNG(7))
        far = QuantumChannel(ChannelParameters.for_distance(50.0), DeterministicRNG(7))
        assert detected(far.transmit(500_000)) < detected(near.transmit(500_000))

    def test_custom_path_object(self):
        params = ChannelParameters(path=OpticalPath.single_span(0.0))
        channel = QuantumChannel(params, DeterministicRNG(8))
        # Zero-length fiber: transmittance 1, so the detection rate is set only
        # by receiver loss and quantum efficiency.
        assert model.signal_click_probability(channel.parameters) > model.signal_click_probability(
            QuantumChannel(ChannelParameters.for_distance(10.0), DeterministicRNG(8)).parameters
        )


class TestFrameResultMemory:
    """The per-slot arrays hold the narrow dtypes."""

    def test_narrow_dtypes(self):
        channel = QuantumChannel(rng=DeterministicRNG(9))
        frame = channel.transmit(10_000)
        assert frame.alice_basis.dtype == np.uint8
        assert frame.alice_value.dtype == np.uint8
        assert frame.alice_photons.dtype == np.uint16
        assert frame.bob_basis.dtype == np.uint8
        assert frame.bob_click.dtype == bool
        assert frame.bob_double.dtype == bool
        assert frame.bob_value.dtype == np.uint8
