"""Tests for the protocol message objects and the public-channel transcript."""

import numpy as np
import pytest

from repro.core import wire, wire_arrays
from repro.core.messages import (
    AuthenticationTagMessage,
    CascadeBisectQuery,
    CascadeBisectReply,
    CascadeParityReply,
    CascadeSubsetAnnouncement,
    PrivacyAmplificationMessage,
    PublicChannelLog,
    SiftMessage,
    SiftResponseMessage,
)
from repro.util.bits import BitString


def sample_messages():
    return [
        SiftMessage(frame_id=1, n_slots=1000, detection_runs=[990, 1, 9], detected_bases=[0]),
        SiftResponseMessage(frame_id=1, accept_mask=[1]),
        CascadeSubsetAnnouncement(round_index=0, key_length=100, seeds=[1, 2], parities=[0, 1]),
        CascadeParityReply(round_index=0, parities=[0, 0]),
        CascadeBisectQuery(round_index=0, subset_index=1, indices=(1, 2, 3)),
        CascadeBisectReply(round_index=0, subset_index=1, parity=1),
        PrivacyAmplificationMessage(
            output_bits=40, field_degree=64, polynomial_exponents=(11, 2, 1), multiplier=5, addend=3
        ),
        AuthenticationTagMessage(covered_messages=6, tag_bits=[1, 0, 1, 0]),
    ]


class TestEncoding:
    def test_every_message_encodes_to_bytes(self):
        for message in sample_messages():
            encoded = message.encode()
            assert isinstance(encoded, bytes)
            assert len(encoded) > 0

    def test_encoding_is_deterministic(self):
        for message in sample_messages():
            assert message.encode() == message.encode()

    def test_encodings_are_distinct_across_kinds(self):
        encodings = [m.encode() for m in sample_messages()]
        assert len(set(encodings)) == len(encodings)

    def test_content_changes_change_encoding(self):
        a = CascadeParityReply(round_index=0, parities=[0, 1])
        b = CascadeParityReply(round_index=0, parities=[1, 1])
        assert a.encode() != b.encode()

    def test_auth_tag_view(self):
        message = AuthenticationTagMessage(covered_messages=3, tag_bits=[1, 0, 1])
        assert message.tag == BitString([1, 0, 1])

    def test_numpy_and_list_fields_encode_identically(self):
        """The hot path hands messages numpy arrays; same bytes either way."""
        as_list = SiftMessage(
            frame_id=2, n_slots=50, detection_runs=[40, 2, 8], detected_bases=[1, 0]
        )
        as_array = SiftMessage(
            frame_id=2,
            n_slots=50,
            detection_runs=np.array([40, 2, 8], dtype=np.int64),
            detected_bases=np.array([1, 0], dtype=np.uint8),
        )
        assert as_list.encode() == as_array.encode()
        assert as_list.encode_json() == as_array.encode_json()


def binary_messages():
    """One instance of every binary-coded (hot) message kind."""
    return [
        SiftMessage(frame_id=1, n_slots=1000, detection_runs=[990, 1, 9], detected_bases=[0]),
        SiftMessage(frame_id=0, n_slots=0, detection_runs=[0], detected_bases=[]),
        SiftMessage(
            frame_id=7,
            n_slots=300,
            detection_runs=[0, 2, 128, 1, 169],
            detected_bases=[1, 0, 1],
        ),
        SiftResponseMessage(frame_id=1, accept_mask=[1]),
        SiftResponseMessage(frame_id=9, accept_mask=[1, 0, 1, 1, 0, 0, 1, 0, 1]),
        SiftResponseMessage(frame_id=3, accept_mask=[]),
        CascadeSubsetAnnouncement(round_index=0, key_length=100, seeds=[1, 2], parities=[0, 1]),
        CascadeSubsetAnnouncement(
            round_index=-1, key_length=2048, seeds=[0, 12, 24], parities=[1, 1, 0]
        ),
        CascadeParityReply(round_index=0, parities=[0, 0]),
        CascadeParityReply(round_index=-1, parities=[]),
        CascadeBisectQuery(round_index=0, subset_index=1, indices=(1, 2, 3)),
        CascadeBisectQuery(round_index=4, subset_index=0, indices=()),
        CascadeBisectQuery(round_index=2, subset_index=63, indices=(0, 7, 700, 70000)),
        CascadeBisectReply(round_index=0, subset_index=1, parity=1),
        CascadeBisectReply(round_index=-1, subset_index=0, parity=0),
    ]


class TestBinaryWireCodec:
    """The binary codec must round-trip to semantic equality with JSON."""

    def test_round_trip_preserves_json_semantics(self):
        # decode(encode(m)) must describe the same protocol content as m:
        # the JSON reference encoding is the semantic fingerprint.
        for message in binary_messages():
            decoded = type(message).decode(message.encode())
            assert type(decoded) is type(message)
            assert decoded.encode_json() == message.encode_json(), message

    def test_round_trip_is_stable(self):
        for message in binary_messages():
            encoded = message.encode()
            assert type(message).decode(encoded).encode() == encoded

    def test_binary_kinds_have_distinct_tags(self):
        tags = {m.encode()[0] for m in binary_messages()}
        assert len(tags) == 6
        # JSON messages start with '{'; binary tags must never collide.
        assert b"{"[0] not in tags

    def test_binary_is_smaller_than_json_on_realistic_content(self):
        rng = np.random.default_rng(5)
        runs = rng.integers(1, 400, size=401).tolist()
        bases = rng.integers(0, 2, size=200).tolist()
        message = SiftMessage(
            frame_id=3, n_slots=sum(runs), detection_runs=runs, detected_bases=bases
        )
        assert len(message.encode()) < len(message.encode_json()) / 2.5

    def test_decode_rejects_truncation(self):
        for message in binary_messages():
            encoded = message.encode()
            if len(encoded) <= 1:
                continue
            with pytest.raises(wire.WireDecodeError):
                type(message).decode(encoded[: len(encoded) // 2])

    def test_unordered_bisect_indices_fall_back_to_json(self):
        query = CascadeBisectQuery(round_index=0, subset_index=0, indices=(5, 3, 9))
        assert query.encode() == query.encode_json()

    def test_duplicate_bisect_indices_round_trip_exactly(self):
        # (1, 1, 3) spans size-1 positions but is NOT a contiguous range; it
        # must not be range-coded into (1, 2, 3).
        query = CascadeBisectQuery(round_index=0, subset_index=0, indices=(1, 1, 3))
        assert CascadeBisectQuery.decode(query.encode()).indices == (1, 1, 3)

    def test_range_coded_bisect_decode_bounds_expansion(self):
        # A hostile header claiming 2^32-1 indices in range mode must be
        # rejected before the index tuple is materialized.
        import struct

        hostile = (
            bytes([wire.KIND_CASCADE_BISECT])
            + struct.pack("<iII", 0, 0, 0xFFFFFFFF)
            + bytes([1])  # mode: contiguous range
            + b"\x00"  # first index 0
        )
        with pytest.raises(wire.WireDecodeError):
            CascadeBisectQuery.decode(hostile)

    def test_bisect_reply_decode_refuses_trailing_bytes(self):
        # Every other binary kind accounts for its whole payload; a reply is
        # a fixed header and nothing more.
        encoded = CascadeBisectReply(round_index=2, subset_index=9, parity=1).encode()
        assert CascadeBisectReply.decode(encoded).parity == 1
        with pytest.raises(wire.WireDecodeError):
            CascadeBisectReply.decode(encoded + b"\x00")
        with pytest.raises(wire.WireDecodeError):
            CascadeBisectReply.decode(encoded + encoded)

    def test_bisect_reply_decode_refuses_a_parity_that_is_not_a_bit(self):
        # encode() masks the parity to one bit, so no honest sender produces
        # a final byte above 1; it must not decode to ``parity=7``.
        encoded = CascadeBisectReply(round_index=0, subset_index=3, parity=1).encode()
        for final in (0x02, 0x07, 0xFF):
            with pytest.raises(wire.WireDecodeError):
                CascadeBisectReply.decode(encoded[:-1] + bytes([final]))

    def test_huge_bisect_indices_fall_back_to_json(self):
        # Values past the decoder's 32-bit delta cap must not produce a
        # binary message that decode() then rejects.
        query = CascadeBisectQuery(
            round_index=0, subset_index=0, indices=(2**33, 2**33 + 2)
        )
        assert query.encode() == query.encode_json()

    def test_varints_reject_fractional_values(self):
        with pytest.raises(ValueError):
            wire_arrays.encode_varints([1.7])
        with pytest.raises(ValueError):
            wire_arrays.encode_varints(np.full(300, 1.7))
        message = CascadeSubsetAnnouncement(
            round_index=0, key_length=10, seeds=np.array([1.5]), parities=[0]
        )
        with pytest.raises(ValueError):
            message.encode()

    def test_announcement_rejects_out_of_range_seeds(self):
        for seeds in ([2**32 + 5], np.array([2**32 + 5], dtype=np.int64), [-3]):
            message = CascadeSubsetAnnouncement(
                round_index=0, key_length=10, seeds=seeds, parities=[0]
            )
            with pytest.raises((ValueError, OverflowError)):
                message.encode()


class TestVarints:
    def test_known_encodings(self):
        assert wire_arrays.encode_varints([0]) == b"\x00"
        assert wire_arrays.encode_varints([127]) == b"\x7f"
        assert wire_arrays.encode_varints([128]) == b"\x80\x01"
        assert wire_arrays.encode_varints([300]) == b"\xac\x02"
        assert wire_arrays.encode_varints([]) == b""

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            values = rng.integers(0, 2**62, size=int(rng.integers(0, 200)))
            data = wire_arrays.encode_varints(values)
            assert wire_arrays.decode_varints(data, values.size).tolist() == values.tolist()

    def test_round_trip_64bit_extremes(self):
        values = [0, 1, 2**7 - 1, 2**7, 2**32, 2**63, 2**64 - 1]
        data = wire_arrays.encode_varints(values)
        assert wire_arrays.decode_varints(data, len(values)).tolist() == values

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            wire_arrays.encode_varints([-1])

    def test_decode_rejects_truncated(self):
        with pytest.raises(wire.WireDecodeError):
            wire_arrays.decode_varints(b"\x80", 1)

    def test_decode_rejects_wrong_count(self):
        data = wire_arrays.encode_varints([1, 2, 3])
        with pytest.raises(wire.WireDecodeError):
            wire_arrays.decode_varints(data, 2)

    def test_decode_rejects_overlong(self):
        with pytest.raises(wire.WireDecodeError):
            wire_arrays.decode_varints(b"\x80" * 10 + b"\x01", 1)

    def test_bitmap_round_trip(self):
        rng = np.random.default_rng(13)
        for count in (0, 1, 7, 8, 9, 64, 200):
            bits = rng.integers(0, 2, size=count)
            packed = wire_arrays.pack_bitmap(bits)
            assert len(packed) == (count + 7) // 8
            assert wire_arrays.unpack_bitmap(packed, count).tolist() == bits.tolist()
        with pytest.raises(wire.WireDecodeError):
            wire_arrays.unpack_bitmap(b"\x00", 9)

    def test_short_and_long_sequences_encode_identically(self):
        """Below 256 values a plain loop encodes, above it numpy does; the
        two must write the same bytes for the same values."""
        rng = np.random.default_rng(17)
        values = rng.integers(0, 2**40, size=300)
        values[::7] = rng.integers(0, 0x80, size=values[::7].size)
        vectorized = wire_arrays.encode_varints(values)
        looped = b"".join(wire_arrays.encode_varints([int(v)]) for v in values)
        assert vectorized == looped

    @pytest.mark.parametrize("size", [1, 300])
    def test_rejects_values_past_64_bits(self, size):
        with pytest.raises(ValueError, match="64-bit"):
            wire_arrays.encode_varints([2**64] * size)

    def test_decode_rejects_a_ten_byte_varint_overflowing_64_bits(self):
        # Ten bytes hold 70 value bits; the tenth may only carry bit 63.
        assert wire_arrays.decode_varints(b"\xff" * 9 + b"\x01", 1).tolist() == [2**64 - 1]
        with pytest.raises(wire.WireDecodeError, match="overflows"):
            wire_arrays.decode_varints(b"\xff" * 9 + b"\x02", 1)

    def test_decode_of_an_empty_payload(self):
        assert wire_arrays.decode_varints(b"", 0).tolist() == []
        with pytest.raises(wire.WireDecodeError, match="empty payload"):
            wire_arrays.decode_varints(b"", 2)

    def test_bitmap_is_most_significant_bit_first_and_zero_padded(self):
        assert wire_arrays.pack_bitmap([1, 0, 0, 0, 0, 0, 0, 0, 1]) == b"\x80\x80"
        assert wire_arrays.pack_bitmap([0, 0, 0, 0, 0, 0, 0, 1]) == b"\x01"
        assert wire_arrays.pack_bitmap([]) == b""

    @pytest.mark.parametrize("count, size", [(0, 0), (1, 1), (8, 1), (9, 2), (64, 8), (65, 9)])
    def test_bitmap_size_matches_the_packed_length(self, count, size):
        assert wire.bitmap_size(count) == size
        assert len(wire_arrays.pack_bitmap(np.ones(count, dtype=np.uint8))) == size


class TestAscendingIndices:
    @pytest.mark.parametrize("container", [list, np.array])
    def test_round_trip(self, container):
        rng = np.random.default_rng(19)
        for size in (0, 1, 5, 255, 256, 1_000):
            indices = np.sort(rng.integers(0, 50_000, size=size))
            data = wire_arrays.encode_ascending_indices(container(indices.tolist()))
            assert wire_arrays.decode_ascending_indices(data, size).tolist() == indices.tolist()

    def test_each_small_gap_costs_one_byte(self):
        indices = list(range(10, 400, 3))
        assert len(wire_arrays.encode_ascending_indices(indices)) == len(indices)
        assert wire_arrays.encode_ascending_indices(indices) == wire_arrays.encode_varints(
            [10] + [3] * (len(indices) - 1)
        )

    def test_repeated_indices_are_a_zero_gap(self):
        data = wire_arrays.encode_ascending_indices([4, 4, 9])
        assert data == b"\x04\x00\x05"
        assert wire_arrays.decode_ascending_indices(data, 3).tolist() == [4, 4, 9]

    @pytest.mark.parametrize(
        "indices", [[3, 2], [-1, 4], np.array([5, 9, 8]), np.arange(-1, 300)]
    )
    def test_refuses_a_descending_or_negative_sequence(self, indices):
        with pytest.raises(ValueError, match="non-decreasing"):
            wire_arrays.encode_ascending_indices(indices)

    def test_decode_refuses_a_gap_past_32_bits(self):
        data = wire_arrays.encode_varints([1, 2**32])
        with pytest.raises(wire.WireDecodeError, match="delta out of range"):
            wire_arrays.decode_ascending_indices(data, 2)


class TestHeaders:
    def test_round_trip_keeps_the_payload(self):
        data = wire.pack_header(0x05, "iII", -4, 7, 2**32 - 1) + b"tail"
        fields, payload = wire.unpack_header(data, 0x05, "iII")
        assert fields == (-4, 7, 2**32 - 1)
        assert payload == b"tail"

    def test_fields_are_little_endian_after_the_kind_byte(self):
        assert wire.pack_header(0x03, "I", 1) == b"\x03\x01\x00\x00\x00"

    def test_a_field_out_of_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="out of range"):
            wire.pack_header(0x01, "I", -1)

    def test_unpack_refuses_the_wrong_kind(self):
        data = wire.pack_header(0x01, "I", 9)
        with pytest.raises(wire.WireDecodeError, match="expected kind 0x02"):
            wire.unpack_header(data, 0x02, "I")

    def test_unpack_refuses_a_short_header(self):
        data = wire.pack_header(0x01, "II", 1, 2)
        with pytest.raises(wire.WireDecodeError, match="shorter"):
            wire.unpack_header(data[:-1], 0x01, "II")

    def test_transcript_kinds_stay_below_the_netkms_range(self):
        kinds = [
            wire.KIND_SIFT,
            wire.KIND_SIFT_RESPONSE,
            wire.KIND_CASCADE_SUBSETS,
            wire.KIND_CASCADE_PARITIES,
            wire.KIND_CASCADE_BISECT,
            wire.KIND_CASCADE_BISECT_REPLY,
        ]
        assert len(set(kinds)) == len(kinds)
        assert max(kinds) < wire.KIND_NETKMS_FIRST <= wire.KIND_NETKMS_LAST < ord("{")


class TestPublicChannelLog:
    def test_record_and_count(self):
        log = PublicChannelLog()
        for message in sample_messages():
            log.record(message)
        assert len(log) == len(sample_messages())

    def test_total_bytes_is_sum_of_messages(self):
        log = PublicChannelLog()
        messages = sample_messages()
        for message in messages:
            log.record(message)
        assert log.total_bytes == sum(len(m.encode()) for m in messages)

    def test_transcript_bytes_preserves_order(self):
        log = PublicChannelLog()
        first = SiftMessage(frame_id=1, n_slots=10, detection_runs=[10], detected_bases=[])
        second = SiftResponseMessage(frame_id=1, accept_mask=[])
        log.record(first)
        log.record(second)
        assert log.transcript_bytes() == first.encode() + second.encode()

    def test_empty_log(self):
        log = PublicChannelLog()
        assert len(log) == 0
        assert log.total_bytes == 0
        assert log.transcript_bytes() == b""
