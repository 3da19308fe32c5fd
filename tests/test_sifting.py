"""Tests for sifting and the run-length encoding of sift messages."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sifting import (
    SiftingProtocol,
    _decode_detected_slots,
    _validated_runs,
    run_length_encode_mask,
)
from repro.core.messages import SiftMessage
from tests.oracles.scalar_rle import run_length_encode_scalar


def run_length_encode(flags):
    """The shipped encoder's runs as a plain list."""
    return run_length_encode_mask(np.asarray(flags)).tolist()


def run_length_decode(runs, expected_length=None):
    """The flags a runs list describes, after the shipped validation."""
    valid = _validated_runs(runs, expected_length)
    return np.repeat(np.arange(valid.size) & 1, valid).tolist()


class TestRunLengthEncoding:
    def test_empty(self):
        assert run_length_encode([]) == [0]
        assert run_length_decode([0]) == []

    def test_all_zeros(self):
        assert run_length_encode([0, 0, 0, 0]) == [4]
        assert run_length_decode([4]) == [0, 0, 0, 0]

    def test_leading_detection(self):
        flags = [1, 0, 0, 1]
        runs = run_length_encode(flags)
        assert runs[0] == 0  # empty leading zero-run
        assert run_length_decode(runs) == flags

    def test_alternating(self):
        flags = [0, 1, 0, 1, 0]
        assert run_length_decode(run_length_encode(flags)) == flags

    def test_runs_sum_to_length(self):
        flags = [0] * 100 + [1] + [0] * 50 + [1, 1]
        assert sum(run_length_encode(flags)) == len(flags)

    def test_decode_length_check(self):
        with pytest.raises(ValueError):
            run_length_decode([3], expected_length=4)

    def test_decode_rejects_negative(self):
        with pytest.raises(ValueError):
            run_length_decode([-1])

    def test_decode_rejects_oversized_run_before_materializing(self):
        # A hostile run list must be rejected from the (small) runs array
        # alone — decoding must not first build a 10^15-element sequence.
        with pytest.raises(ValueError):
            run_length_decode([10**15, 1], expected_length=100)

    def test_decode_rejects_non_integer_garbage(self):
        with pytest.raises(ValueError):
            run_length_decode(["many"], expected_length=4)
        with pytest.raises(ValueError):
            run_length_decode([2**80], expected_length=4)

    def test_sparse_detections_compress_well(self):
        """The point of the encoding: rare detections -> few runs."""
        flags = [0] * 10_000
        for index in (5, 2000, 9000):
            flags[index] = 1
        runs = run_length_encode(flags)
        assert len(runs) <= 2 * 3 + 1

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=300))
    @settings(max_examples=60)
    def test_roundtrip_property(self, flags):
        assert run_length_decode(run_length_encode(flags), len(flags)) == flags


class TestVectorizedAgainstScalarOracle:
    """The vectorized RLE must match the retained scalar loop bit for bit."""

    def test_fixed_edge_cases(self):
        cases = [
            [],
            [0],
            [1],
            [1, 1, 1],
            [0, 0, 0],
            [1, 0],
            [0, 1],
            [1, 0, 1, 0, 1],
            [0] * 64 + [1] * 64,
        ]
        for flags in cases:
            assert run_length_encode(flags) == run_length_encode_scalar(flags)

    def test_thousand_randomized_frames(self):
        """Differential pin over >= 1000 random frames of varying density."""
        rng = np.random.default_rng(0xE14)
        for trial in range(1100):
            n = int(rng.integers(0, 400))
            density = rng.uniform(0.0, 1.0)
            flags = (rng.random(n) < density).astype(np.uint8)
            vectorized = run_length_encode(flags)
            oracle = run_length_encode_scalar(flags.tolist())
            assert vectorized == oracle, f"trial {trial} diverged"
            assert run_length_decode(vectorized, n) == flags.tolist()

    def test_sparse_operating_point_frames(self):
        """Detection densities like the paper's (1 in ~200 slots)."""
        rng = np.random.default_rng(2003)
        for _ in range(50):
            n = int(rng.integers(1_000, 50_000))
            flags = (rng.random(n) < 0.005).astype(np.uint8)
            assert run_length_encode(flags) == run_length_encode_scalar(flags.tolist())

    def test_decoded_slots_match_flag_scan(self):
        """O(detections) slot decoding equals the naive flags scan."""
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 2000))
            flags = (rng.random(n) < 0.05).astype(np.uint8)
            message = SiftMessage(
                frame_id=0,
                n_slots=n,
                detection_runs=run_length_encode(flags),
                detected_bases=[0] * int(flags.sum()),
            )
            decoded = _decode_detected_slots(message, n)
            assert decoded.tolist() == np.flatnonzero(flags).tolist()

    def test_decoded_slots_validates_before_allocating(self):
        bad = SiftMessage(
            frame_id=0, n_slots=100, detection_runs=[50, 10**15], detected_bases=[]
        )
        with pytest.raises(ValueError):
            _decode_detected_slots(bad, 100)
        negative = SiftMessage(
            frame_id=0, n_slots=100, detection_runs=[150, -50], detected_bases=[]
        )
        with pytest.raises(ValueError):
            _decode_detected_slots(negative, 100)


class TestSiftingProtocol:
    def test_sift_result_consistency(self, small_frame):
        result = SiftingProtocol().sift(small_frame)
        # Engine-side sift must agree exactly with the simulation's own mask.
        assert result.n_sifted == small_frame.n_sifted
        assert result.error_count == small_frame.n_sifted_errors
        assert len(result.alice_key) == len(result.bob_key) == len(result.slot_indices)

    def test_slot_indices_are_an_array(self, small_frame):
        """The announcement path stays array-native; no per-slot lists."""
        result = SiftingProtocol().sift(small_frame)
        assert isinstance(result.slot_indices, np.ndarray)
        assert result.slot_indices.tolist() == np.flatnonzero(small_frame.sifted_mask).tolist()

    def test_sifted_bits_match_channel_values(self, small_frame):
        result = SiftingProtocol().sift(small_frame)
        for position, slot in enumerate(result.slot_indices[:200]):
            assert result.alice_key[position] == int(small_frame.alice_value[slot])
            assert result.bob_key[position] == int(small_frame.bob_value[slot])
            assert small_frame.alice_basis[slot] == small_frame.bob_basis[slot]

    def test_qber_in_expected_band(self, small_frame):
        result = SiftingProtocol().sift(small_frame)
        assert 0.02 <= result.qber <= 0.13

    def test_sifted_fraction_roughly_matches_paper_scale(self, small_frame):
        """Detections are rare; sifting keeps roughly one slot in a few hundred."""
        result = SiftingProtocol().sift(small_frame)
        assert 1 / 2000 < result.sifted_fraction < 1 / 100

    def test_sift_message_never_contains_values(self, small_frame):
        """Sifting discloses slots and bases, never bit values."""
        protocol = SiftingProtocol()
        message = protocol.build_sift_message(small_frame)
        # The JSON reference encoding is the readable view of what is
        # disclosed; the binary encoding carries the same fields.
        encoded = message.encode_json().decode()
        assert "value" not in encoded
        # The response is only an accept mask.
        response = protocol.build_sift_response(small_frame, message)
        assert set(int(b) for b in response.accept_mask) <= {0, 1}

    def test_sift_message_run_lengths_cover_all_slots(self, small_frame):
        message = SiftingProtocol().build_sift_message(small_frame)
        assert sum(message.detection_runs) == small_frame.n_slots
        assert len(message.detected_bases) == int(np.count_nonzero(small_frame.usable_clicks))

    def test_rle_message_smaller_than_naive(self, small_frame):
        protocol = SiftingProtocol()
        rle = protocol.build_sift_message(small_frame)
        naive = protocol.build_naive_sift_message(small_frame)
        assert rle.size_bytes < naive.size_bytes

    def test_binary_encoding_smaller_than_json(self, small_frame):
        message = SiftingProtocol().build_sift_message(small_frame)
        assert len(message.encode()) < len(message.encode_json())

    def test_accept_mask_accepts_only_matching_bases(self, small_frame):
        protocol = SiftingProtocol()
        message = protocol.build_sift_message(small_frame)
        response = protocol.build_sift_response(small_frame, message)
        accepted = int(np.sum(np.asarray(response.accept_mask, dtype=np.int64)))
        assert accepted == small_frame.n_sifted
        # Roughly half of the reported detections have matching bases.
        reported = len(message.detected_bases)
        if reported > 200:
            assert 0.4 < accepted / reported < 0.6

    def test_frame_id_propagates(self, small_frame):
        protocol = SiftingProtocol(frame_id=17)
        result = protocol.sift(small_frame)
        assert result.sift_message.frame_id == 17
        assert result.sift_response.frame_id == 17

    def test_mismatched_bases_rejected_response(self, small_frame):
        protocol = SiftingProtocol()
        message = protocol.build_sift_message(small_frame)
        message.detected_bases = message.detected_bases[:-1]
        with pytest.raises(ValueError):
            protocol.build_sift_response(small_frame, message)
