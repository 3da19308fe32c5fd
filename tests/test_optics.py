"""Tests for the physical layer: sources, fiber, interferometers, detectors, framing."""

import math

import numpy as np
import pytest

from repro.link.qkd_link import LinkParameters, QKDLink
from repro.optics.channel import ChannelParameters, QuantumChannel, transmit_lanes
from repro.optics import model
from repro.optics.detector import apply_afterpulse, combine_clicks, signal_click_probability
from repro.optics.entangled import EntangledPairSource, EntangledSourceParameters
from repro.optics.fiber import FiberSpan, LossElement, OpticalPath
from repro.optics.interferometer import detector1_probability_map, phase_delta
from repro.optics.model import MAX_MEAN_COUNT, DetectorParameters, InterferometerParameters
from repro.optics.source import SourceParameters, WeakCoherentSource, modulator_phase
from repro.optics.timing import BrightPulseFraming, FramingParameters, frame_layout
from repro.util.rng import DeterministicRNG
from repro.util.units import multi_photon_probability
from tests.frames import qber
from tests.oracles.entangled_emit import entangled_emit


def emit(source, n_pulses):
    """One ``emit_into`` batch of either source type, as named arrays."""
    emission = {
        "basis": np.empty(n_pulses, dtype=np.uint8),
        "value": np.empty(n_pulses, dtype=np.uint8),
        "photons": np.empty(n_pulses, dtype=np.int64),
    }
    source.emit_into(emission["basis"], emission["value"], emission["photons"])
    return emission


class TestSourceParameters:
    def test_defaults_match_paper(self):
        params = SourceParameters()
        assert params.mean_photon_number == pytest.approx(0.1)
        assert params.pulse_rate_hz == pytest.approx(1.0e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceParameters(mean_photon_number=-0.1)

    def test_a_mean_that_would_wrap_the_uint16_photon_rows_is_refused(self):
        # Counts travel as uint16; assignment wraps silently, so the mean is
        # bounded where it is set.
        assert SourceParameters(mean_photon_number=60_000).mean_photon_number == 60_000
        with pytest.raises(ValueError, match="uint16"):
            SourceParameters(mean_photon_number=60_001)
        with pytest.raises(ValueError, match="uint16"):
            EntangledSourceParameters(mean_pairs_per_pulse=1e6)

    def test_the_largest_mean_pair_count_accepted_is_the_uint16_bound(self):
        pairs = EntangledSourceParameters(mean_pairs_per_pulse=MAX_MEAN_COUNT)
        assert pairs.mean_pairs_per_pulse == MAX_MEAN_COUNT
        with pytest.raises(ValueError, match="uint16"):
            EntangledSourceParameters(mean_pairs_per_pulse=MAX_MEAN_COUNT + 1)


class TestWeakCoherentSource:
    def test_emit_shapes_and_ranges(self):
        source = WeakCoherentSource(rng=DeterministicRNG(1))
        emission = emit(source, 10_000)
        assert set(np.unique(emission["basis"])) <= {0, 1}
        assert set(np.unique(emission["value"])) <= {0, 1}
        assert emission["photons"].min() >= 0
        assert source.pulses_emitted == 10_000

    def test_emit_zero_and_negative(self):
        source = WeakCoherentSource(rng=DeterministicRNG(1))
        assert emit(source, 0)["basis"].shape == (0,)
        assert source.pulses_emitted == 0
        with pytest.raises(ValueError):
            QuantumChannel(rng=DeterministicRNG(1)).transmit(-1)

    def test_phase_encoding_matches_bb84(self):
        emission = emit(WeakCoherentSource(rng=DeterministicRNG(2)), 5_000)
        expected = emission["basis"] * (math.pi / 2) + emission["value"] * math.pi
        phase = modulator_phase(emission["basis"], emission["value"])
        # Exactly equal, not just close: the table holds the very floats the
        # arithmetic form produces, for the entangled source's draws as well.
        assert np.array_equal(phase, expected)
        batch = modulator_phase(
            emission["basis"].reshape(5, 1_000), emission["value"].reshape(5, 1_000)
        )
        assert np.array_equal(batch.ravel(), phase)

    def test_photon_statistics_are_poissonian(self):
        source = WeakCoherentSource(SourceParameters(mean_photon_number=0.1), DeterministicRNG(3))
        photons = emit(source, 200_000)["photons"]
        assert photons.mean() == pytest.approx(0.1, abs=0.01)
        multi_fraction = np.count_nonzero(photons >= 2) / photons.size
        assert multi_fraction == pytest.approx(multi_photon_probability(0.1), abs=0.002)

    def test_basis_and_value_are_balanced(self):
        source = WeakCoherentSource(rng=DeterministicRNG(4))
        emission = emit(source, 100_000)
        assert emission["basis"].mean() == pytest.approx(0.5, abs=0.01)
        assert emission["value"].mean() == pytest.approx(0.5, abs=0.01)


class TestEntangledSource:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            EntangledSourceParameters(mean_pairs_per_pulse=-1)
        with pytest.raises(ValueError):
            EntangledSourceParameters(heralding_efficiency=1.5)

    def test_emission_fields(self):
        source = EntangledPairSource(rng=DeterministicRNG(1))
        emission = entangled_emit(source, 50_000)
        assert emission["pairs"].min() >= 0
        # heralded implies at least one pair
        assert not np.any(emission["heralded"] & (emission["pairs"] == 0))

    def test_heralding_rate(self):
        params = EntangledSourceParameters(mean_pairs_per_pulse=0.05, heralding_efficiency=0.6)
        source = EntangledPairSource(params, DeterministicRNG(2))
        emission = entangled_emit(source, 200_000)
        pair_fraction = np.count_nonzero(emission["pairs"] > 0) / emission["pairs"].size
        herald_fraction = np.count_nonzero(emission["heralded"]) / emission["pairs"].size
        assert herald_fraction == pytest.approx(pair_fraction * 0.6, rel=0.1)

    def test_emit_into_is_emit_with_unheralded_photons_discarded(self):
        reference = entangled_emit(EntangledPairSource(rng=DeterministicRNG(3)), 50_000)
        emission = emit(EntangledPairSource(rng=DeterministicRNG(3)), 50_000)
        assert np.array_equal(emission["basis"], reference["basis"])
        assert np.array_equal(emission["value"], reference["value"])
        assert np.array_equal(
            emission["photons"], np.where(reference["heralded"], reference["pairs"], 0)
        )
        assert emission["photons"].sum() < reference["pairs"].sum()


class TestFiber:
    def test_span_loss_and_transmittance(self):
        span = FiberSpan(10.0)
        assert span.loss_db == pytest.approx(2.0)
        assert OpticalPath([span]).transmittance == pytest.approx(10 ** -0.2)

    def test_connector_loss_adds(self):
        assert FiberSpan(10.0, connector_loss_db=1.0).loss_db == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiberSpan(-1.0)
        with pytest.raises(ValueError):
            LossElement("bad", -0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_a_length_or_loss_that_is_not_finite_and_non_negative_is_refused(self, value):
        """NaN used to build a span whose first transmit failed inside numpy
        ("p < 0, p > 1 or p contains NaNs"), and infinity one of zero
        transmittance."""
        with pytest.raises(ValueError, match="fiber length must be finite and non-negative"):
            FiberSpan(value)
        with pytest.raises(ValueError, match="connector loss must be finite and non-negative"):
            FiberSpan(10.0, connector_loss_db=value)

    def test_optical_path_composition(self):
        path = OpticalPath()
        path.add_span(FiberSpan(10.0)).add_span(FiberSpan(5.0))
        path.add_element(LossElement("switch", 0.5))
        assert path.length_km == pytest.approx(15.0)
        assert path.loss_db == pytest.approx(2.0 + 1.0 + 0.5)
        assert path.transmittance == pytest.approx(10 ** (-3.5 / 10))

    def test_single_span_constructor(self):
        path = OpticalPath.single_span(10.0)
        assert path.length_km == 10.0
        assert len(path.spans) == 1



class TestInterferometer:
    def test_intrinsic_error_rate(self):
        assert InterferometerParameters(visibility=1.0).intrinsic_error_rate == 0.0
        assert InterferometerParameters(visibility=0.9).intrinsic_error_rate == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferometerParameters(visibility=1.5)
        with pytest.raises(ValueError):
            InterferometerParameters(phase_noise_rad=-0.1)

    def test_ideal_interference_probabilities(self):
        # delta = 0 -> detector 0 (bit value 0); delta = pi -> detector 1;
        # incompatible bases (delta = pi/2) -> 50/50.
        deltas = np.array([0.0, math.pi, math.pi / 2])
        assert detector1_probability_map(deltas, 1.0).tolist() == pytest.approx([0.0, 1.0, 0.5])

    def test_reduced_visibility_blurs_fringe(self):
        deltas = np.array([0.0, math.pi])
        assert detector1_probability_map(deltas, 0.9).tolist() == pytest.approx([0.05, 0.95])

    def test_sampled_hits_follow_probabilities(self):
        n = 100_000
        # Compatible bases, value 1 (phase pi): detector 1 should fire ~95%.
        phases = np.full(n, math.pi)
        bases = np.zeros(n, dtype=np.uint8)
        p_detector1 = detector1_probability_map(phase_delta(phases, bases), 0.9)
        assert np.allclose(p_detector1, 0.95)
        hits = np.random.default_rng(1).random(n) < p_detector1
        assert hits.mean() == pytest.approx(0.95, abs=0.01)

    def test_incompatible_bases_random(self):
        n = 100_000
        phases = np.full(n, math.pi / 2)  # basis 1, value 0 at Alice
        bases = np.zeros(n, dtype=np.uint8)  # Bob in basis 0
        p_detector1 = detector1_probability_map(phase_delta(phases, bases), 0.95)
        assert np.allclose(p_detector1, 0.5)
        # Bob in basis 1 makes the bases compatible again: value 0 -> D0.
        compatible = detector1_probability_map(phase_delta(phases, bases + 1), 0.95)
        assert np.allclose(compatible, 0.025)

    def test_per_lane_visibility_column_matches_scalar_rows(self):
        phases = np.tile(np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]), (2, 1))
        bases = np.zeros((2, 4), dtype=np.uint8)
        batch = detector1_probability_map(
            phase_delta(phases, bases), np.array([[0.9], [0.8]])
        )
        for row, visibility in zip(batch, (0.9, 0.8)):
            alone = detector1_probability_map(phase_delta(phases[0], bases[0]), visibility)
            assert np.array_equal(row, alone)

    def test_phase_noise_blurs_the_fringe(self):
        def fringe_qber(phase_noise_rad):
            params = ChannelParameters(
                interferometer=InterferometerParameters(
                    visibility=1.0, phase_noise_rad=phase_noise_rad
                ),
                detectors=DetectorParameters(dark_count_probability=0.0),
            )
            return qber(QuantumChannel(params, DeterministicRNG(9)).transmit(400_000))

        assert fringe_qber(0.0) == 0.0
        assert fringe_qber(0.5) > 0.02


class TestDetectors:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DetectorParameters(quantum_efficiency=1.5)
        with pytest.raises(ValueError):
            DetectorParameters(dark_count_probability=-0.1)
        with pytest.raises(ValueError):
            DetectorParameters(receiver_loss_db=-1)

    def test_signal_detection_probability(self):
        detectors = DetectorParameters(quantum_efficiency=0.1, receiver_loss_db=0.0)

        def arriving(mean):
            """A lossless channel that delivers a Poissonian ``mean`` to Bob."""
            return ChannelParameters(
                source=SourceParameters(mean_photon_number=mean),
                path=OpticalPath.single_span(0.0),
                detectors=detectors,
            )

        assert model.signal_click_probability(arriving(0.0)) == 0.0
        p = model.signal_click_probability(arriving(1.0))
        assert p == pytest.approx(1 - math.exp(-0.1))

    def test_dark_click_probability(self):
        params = ChannelParameters(detectors=DetectorParameters(dark_count_probability=1e-3))
        assert model.dark_click_probability(params) == pytest.approx(1 - (1 - 1e-3) ** 2)

    def test_no_photons_no_signal_clicks(self):
        detectors = DetectorParameters()
        p_click = signal_click_probability(
            np.zeros(10_000, dtype=np.int64), detectors.per_photon_detection_probability
        )
        assert not p_click.any()
        # ...and through the channel: no light, no dark counts, no clicks.
        dark_room = ChannelParameters(
            source=SourceParameters(mean_photon_number=0.0),
            detectors=DetectorParameters(dark_count_probability=0.0),
        )
        frame = QuantumChannel(dark_room, DeterministicRNG(3)).transmit(10_000)
        assert not frame.bob_click.any()

    def test_click_rate_matches_analytic(self):
        params = DetectorParameters(quantum_efficiency=0.1, dark_count_probability=0.0, receiver_loss_db=3.0)
        expected = params.receiver_transmittance * params.quantum_efficiency
        per_photon = params.per_photon_detection_probability
        assert per_photon == pytest.approx(expected)
        counts = np.arange(5, dtype=np.int64)
        assert np.allclose(
            signal_click_probability(counts, per_photon), 1 - (1 - expected) ** counts
        )
        # Through the channel: no fiber loss, a bright source (every pulse
        # occupied), so the click rate is 1 - exp(-mu * T_rx * eta).
        bright = ChannelParameters(
            source=SourceParameters(mean_photon_number=1.0),
            path=OpticalPath.single_span(0.0),
            detectors=params,
        )
        channel = QuantumChannel(bright, DeterministicRNG(4))
        frame = channel.transmit(200_000)
        assert frame.bob_click.mean() == pytest.approx(model.click_probability(bright), rel=0.05)
        assert model.click_probability(bright) == pytest.approx(1 - math.exp(-expected))

    def test_dark_only_flag(self):
        rng = np.random.default_rng(5)
        n = 100_000
        no_signal = np.zeros(n, dtype=bool)
        clicks = combine_clicks(
            no_signal,
            np.zeros(n, dtype=np.uint8),
            rng.random(n) < 0.01,
            rng.random(n) < 0.01,
            np.zeros(n, dtype=np.uint8),
        )
        assert clicks["click"].any()
        assert clicks["click"].sum() == clicks["dark_only"].sum()
        # Through the channel: a dark source clicks at the dark-count rate.
        params = ChannelParameters(
            source=SourceParameters(mean_photon_number=0.0),
            detectors=DetectorParameters(dark_count_probability=0.01),
        )
        channel = QuantumChannel(params, DeterministicRNG(5))
        assert channel.transmit(n).bob_click.mean() == pytest.approx(
            model.dark_click_probability(params), rel=0.1
        )

    def test_double_clicks_require_both(self):
        rng = np.random.default_rng(6)
        n = 10_000
        coin = rng.integers(0, 2, size=n, dtype=np.uint8)
        clicks = combine_clicks(
            np.ones(n, dtype=bool),  # every signal photon detected...
            np.zeros(n, dtype=np.uint8),  # ...on detector 0
            np.zeros(n, dtype=bool),
            rng.random(n) < 0.5,  # detector 1 fires darkly half the time
            coin,
        )
        assert clicks["double"].any() and not clicks["double"].all()
        # every double is also a click
        assert np.all(clicks["click"][clicks["double"]])
        # the coin stands in for the meaningless value of a double click
        assert np.array_equal(clicks["value"][clicks["double"]], coin[clicks["double"]])
        assert not clicks["value"][~clicks["double"]].any()

    def test_afterpulsing_increases_clicks(self):
        n = 100_000
        signal_click = np.ones(n, dtype=bool)
        dark0 = np.zeros(n, dtype=bool)
        dark1 = np.zeros(n, dtype=bool)
        apply_afterpulse(signal_click, 0.2, np.random.default_rng(7), dark0, dark1)
        assert not (dark0 & dark1).any()
        assert (dark0 | dark1).mean() == pytest.approx(0.2, abs=0.01)
        assert not (dark0[0] or dark1[0])  # no gate precedes the first

        def detections(afterpulse_probability):
            params = ChannelParameters(
                detectors=DetectorParameters(
                    afterpulse_probability=afterpulse_probability,
                    dark_count_probability=0.0,
                    quantum_efficiency=1.0,
                    receiver_loss_db=0.0,
                ),
                path=OpticalPath.single_span(0.0),
            )
            frame = QuantumChannel(params, DeterministicRNG(7)).transmit(n)
            return int(np.count_nonzero(frame.bob_click))

        assert detections(0.2) > detections(0.0)

    def test_afterpulse_on_an_empty_gate_sequence_takes_no_draws(self):
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        empty = np.zeros(0, dtype=bool)
        apply_afterpulse(empty, 0.05, rng, empty.copy(), empty.copy())
        assert rng.bit_generator.state == before


class TestFraming:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            FramingParameters(slots_per_frame=0)
        with pytest.raises(ValueError):
            FramingParameters(frame_loss_probability=1.5)

    def test_frame_allocation(self):
        frames = frame_layout(100, 250)
        assert frames[0] == 0 and frames[99] == 0 and frames[100] == 1 and frames[249] == 2
        assert frames.shape == (250,)
        params = ChannelParameters(framing=FramingParameters(slots_per_frame=100))
        frame = QuantumChannel(params, DeterministicRNG(1)).transmit(250)
        assert np.array_equal(frame.frame_numbers, frames)

    def test_frame_numbers_advance_across_calls(self):
        params = ChannelParameters(framing=FramingParameters(slots_per_frame=10))
        channel = QuantumChannel(params, DeterministicRNG(2))
        first = channel.transmit(25).frame_numbers
        second = channel.transmit(25).frame_numbers
        assert second[0] == first[-1] + 1
        framing = BrightPulseFraming(FramingParameters(slots_per_frame=10), DeterministicRNG(2))
        assert framing.claim_frame_numbers(3) == 0
        assert framing.claim_frame_numbers(3) == 3

    def test_frame_numbers_are_built_on_first_access(self):
        params = ChannelParameters(framing=FramingParameters(slots_per_frame=10))
        channel = QuantumChannel(params, DeterministicRNG(2))
        channel.transmit(25)
        frame = channel.transmit(25)
        assert frame._frame_numbers is None
        numbers = frame.frame_numbers
        assert np.array_equal(numbers, frame_layout(10, 25) + 3)
        assert numbers.dtype == np.int64
        assert frame.frame_numbers is numbers

    def test_slot_to_key_loop_never_builds_frame_numbers(self, monkeypatch):
        import repro.lanes.engine as lanes_engine

        built = []
        sift_frames = lanes_engine.sift_frames

        def sift_and_record(frames, frame_ids):
            sifts = sift_frames(frames, frame_ids)
            built.extend(frame._frame_numbers is not None for frame in frames)
            return sifts

        monkeypatch.setattr(lanes_engine, "sift_frames", sift_and_record)
        link = QKDLink(LinkParameters(slots_per_batch=100_000), DeterministicRNG(3))
        link.run_slots(250_000)
        assert built == [False, False, False]

    def test_no_loss_means_all_received(self):
        framing = BrightPulseFraming(FramingParameters(frame_loss_probability=0.0), DeterministicRNG(3))
        assert framing.sample_frame_gates(100).all()

    def test_total_loss_means_none_received(self):
        framing = BrightPulseFraming(FramingParameters(frame_loss_probability=1.0), DeterministicRNG(4))
        assert not framing.sample_frame_gates(100).any()
        params = ChannelParameters(framing=FramingParameters(frame_loss_probability=1.0))
        frame = QuantumChannel(params, DeterministicRNG(4)).transmit(100_000)
        assert not frame.bob_click.any() and not frame.bob_double.any()

    def test_partial_loss_blanks_whole_frames_only(self):
        params = ChannelParameters(
            source=SourceParameters(mean_photon_number=5.0),
            path=OpticalPath.single_span(0.0),
            framing=FramingParameters(slots_per_frame=100, frame_loss_probability=0.5),
        )
        frame = QuantumChannel(params, DeterministicRNG(6)).transmit(10_000)
        clicks_per_frame = frame.bob_click.reshape(100, 100).sum(axis=1)
        lost = clicks_per_frame == 0
        assert 20 < lost.sum() < 80
        assert clicks_per_frame[~lost].min() > 10

    def test_efficiency_factor(self):
        assert FramingParameters(gate_misalignment_penalty=0.2).efficiency_factor == pytest.approx(0.8)

    def test_no_lanes_is_an_empty_result(self):
        assert transmit_lanes([], 1000) == []
        assert transmit_lanes([], 0, attacks=[]) == []

    def test_zero_slots(self):
        assert frame_layout(4096, 0).shape == (0,)
        framing = BrightPulseFraming(rng=DeterministicRNG(5))
        assert framing.sample_frame_gates(0).shape == (0,)
