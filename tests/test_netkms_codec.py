"""The netkms codec against its reference: the same wire, byte for byte.

``tests/oracles/netkms_codec.py`` is the codec as it was before its per-kind
offset readers (a ``_Cursor`` per body, a private varint loop, a splitter
that copies every segment).  The shipped codec must be indistinguishable
from it on the wire:

* every kind encodes to the oracle's bytes;
* any body — valid, truncated, byte-mutated, or random behind a plausible
  header — decodes to an equal message under both, or fails under both
  with the same :class:`ProtocolError` code;
* the frame splitter yields the oracle's bodies, errors and leftover
  buffer however the stream is segmented;
* the one scalar varint in :mod:`repro.core.wire` decodes as the
  vectorised decoder does, rejections included (the array encoder is a loop
  over the scalar one, so its half of the comparison checks only the loop).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire, wire_arrays
from repro.netkms import protocol
from repro.netkms.protocol import ProtocolError
from tests.oracles import netkms_codec as oracle

KINDS = [
    "Hello",
    "Welcome",
    "Error",
    "Status",
    "StatusOk",
    "Capabilities",
    "CapabilitiesOk",
    "Reserve",
    "ReserveOk",
    "Consume",
    "ConsumeOk",
    "Release",
    "ReleaseOk",
    "GetKey",
]
V4 = protocol.PROTOCOL_V4


def frame_body(message, version=V4):
    """What ``encode_frame`` sends after the frame's u32 length prefix."""
    return protocol.encode_frame(message, version)[4:]

u8 = st.integers(0, 0xFF)
u32 = st.integers(0, 0xFFFFFFFF)
#: Mostly one- and two-byte varints (the fast paths), sometimes any u64.
u64 = st.one_of(st.integers(0, 0x3FFF), st.integers(0, (1 << 64) - 1))
#: Names up to the wire's 255 bytes, so length prefixes of one and of two
#: varint bytes both occur.
names = st.one_of(
    st.text(max_size=8),
    st.text(min_size=100, max_size=255).map(
        lambda text: text.encode("utf-8")[:255].decode("utf-8", "ignore")
    ),
)
pairs = st.tuples(names, names)


@st.composite
def consume_ok_fields(draw):
    key_bits = draw(st.integers(0, 600))
    return {
        "reservation_id": draw(u64),
        "key_bits": key_bits,
        "key_bytes": draw(st.binary(min_size=(key_bits + 7) // 8, max_size=(key_bits + 7) // 8)),
    }


FIELDS = {
    "Hello": st.fixed_dictionaries({"min_version": u8, "max_version": u8, "client_id": names}),
    "Welcome": st.fixed_dictionaries({"server_id": names}),
    "Error": st.fixed_dictionaries({"code": u8, "detail": names}),
    "Status": st.fixed_dictionaries({"pair": pairs}),
    "StatusOk": st.fixed_dictionaries(
        {
            "pair": pairs,
            "available_bits": u64,
            "reserved_bits": u64,
            "unreserved_bits": u64,
            "low_water_bits": u64,
            "high_water_bits": u64,
            "capacity_bits": u64,
            "depletion_rate_millibps": u64,
        }
    ),
    "Capabilities": st.fixed_dictionaries({}),
    "CapabilitiesOk": st.fixed_dictionaries(
        {
            "min_version": u8,
            "max_version": u8,
            "max_frame_bytes": u64,
            "max_reserve_bits": u64,
            "pairs": st.lists(pairs, max_size=4).map(tuple),
        }
    ),
    "Reserve": st.fixed_dictionaries({"pair": pairs, "bits": u64}),
    "ReserveOk": st.fixed_dictionaries(
        {"reservation_id": u64, "bits": u64, "lease_ms": u64}
    ),
    "Consume": st.fixed_dictionaries({"pair": pairs, "reservation_id": u64}),
    "ConsumeOk": consume_ok_fields(),
    "Release": st.fixed_dictionaries({"pair": pairs, "reservation_id": u64}),
    "ReleaseOk": st.fixed_dictionaries({"reservation_id": u64}),
    "GetKey": st.fixed_dictionaries({"pair": pairs, "bits": u64}),
}

#: (kind name, request id, fields): one message, buildable in either codec.
messages = st.sampled_from(KINDS).flatmap(
    lambda name: st.tuples(st.just(name), u32, FIELDS[name])
)


def build(codec, spec):
    name, request_id, fields = spec
    return getattr(codec, name)(request_id=request_id, **fields)


def outcome(codec, body, expected_version):
    """What decoding ``body`` comes to: the message's type and every field
    (``wire_version`` included), or the error code."""
    try:
        message = codec.decode_body(body, expected_version)
    except ProtocolError as exc:
        return ("error", exc.code)
    return ("ok", type(message).__name__, vars(message))


def assert_same_decode(body, expected_version):
    shipped = outcome(protocol, body, expected_version)
    assert shipped == outcome(oracle, body, expected_version), (body, expected_version)
    return shipped


def expected_for(name):
    """The ``expected_version`` a receiver passes for a frame of kind ``name``."""
    return None if name in ("Hello", "Welcome") else V4


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #


class TestEncoding:
    @given(spec=messages)
    @settings(max_examples=200, deadline=None)
    def test_every_kind_encodes_to_the_oracles_bytes(self, spec):
        frame = protocol.encode_frame(build(protocol, spec), V4)
        assert frame == oracle.encode_frame(build(oracle, spec), V4)

    @pytest.mark.parametrize("name", KINDS)
    def test_every_kind_with_default_fields(self, name):
        spec = (name, 7, {})
        assert protocol.encode_frame(build(protocol, spec), V4) == oracle.encode_frame(
            build(oracle, spec), V4
        )

    @pytest.mark.parametrize("request_id", [-1, 1 << 32])
    def test_a_request_id_outside_u32_is_refused_by_both(self, request_id):
        for codec in (protocol, oracle):
            with pytest.raises(ValueError):
                codec.encode_frame(codec.Status(request_id=request_id, pair=("a", "b")), V4)

    @pytest.mark.parametrize("value", [-1, 1 << 64])
    def test_a_field_outside_u64_is_refused_by_both(self, value):
        for codec in (protocol, oracle):
            with pytest.raises(ValueError):
                codec.encode_frame(codec.Reserve(pair=("a", "b"), bits=value), V4)

    def test_an_error_detail_past_255_bytes_is_cut_on_a_character_boundary(self):
        detail = "x" * 254 + "é" + "y" * 300  # the cut falls inside the e-acute
        error = protocol.Error(request_id=3, code=protocol.ERR_UNKNOWN_PAIR, detail=detail)
        body = frame_body(error)
        decoded = protocol.decode_body(body, expected_version=V4)
        assert decoded.detail == "x" * 254
        assert decoded.code == protocol.ERR_UNKNOWN_PAIR
        with pytest.raises(ValueError):
            oracle.Error(code=protocol.ERR_UNKNOWN_PAIR, detail=detail).encode(V4)


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #


class TestDecoding:
    @given(spec=messages)
    @settings(max_examples=200, deadline=None)
    def test_valid_bodies_decode_to_equal_messages(self, spec):
        body = build(oracle, spec).encode(V4)
        result = assert_same_decode(body, expected_for(spec[0]))
        if spec[0] != "Hello" or spec[2]["min_version"] <= spec[2]["max_version"]:
            assert result[0] == "ok"

    @pytest.mark.parametrize("header_byte", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", KINDS)
    def test_every_kind_at_every_header_byte_meets_the_version_window(self, name, header_byte):
        """Only the window's byte decodes: HELLO at the floor, WELCOME at
        v4, a pre-negotiation ERROR at the floor, anything else at the
        negotiated v4; every other byte is a version error under both."""
        body = bytearray(build(oracle, (name, 7, {})).encode(V4))
        body[1] = header_byte
        for expected in (None, V4):
            if name in ("Hello", "Welcome"):
                window = 1 if name == "Hello" else V4
            else:
                window = expected or (1 if name == "Error" else None)
            result = assert_same_decode(bytes(body), expected)
            if header_byte == window:
                assert result[0] == "ok" and result[2]["wire_version"] == header_byte
            else:
                assert result == ("error", protocol.ERR_VERSION)

    @given(spec=messages, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_and_extended_bodies_fail_alike(self, spec, data):
        body = build(oracle, spec).encode(V4)
        cut = data.draw(st.integers(0, len(body)))
        tail = data.draw(st.binary(max_size=3))
        expected = data.draw(st.sampled_from([expected_for(spec[0]), None, V4]))
        assert_same_decode(body[:cut], expected)
        assert_same_decode(body + tail, expected)

    @given(spec=messages, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_bodies_decode_alike(self, spec, data):
        body = bytearray(build(oracle, spec).encode(V4))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(body) - 1))
            body[at] = data.draw(st.one_of(u8, st.sampled_from([0x00, 0x7F, 0x80, 0xFF])))
        expected = data.draw(st.sampled_from([expected_for(spec[0]), None, V4]))
        assert_same_decode(bytes(body), expected)

    @given(
        kind=st.integers(0x1E, 0x30),
        version=st.integers(0, 5),
        rest=st.binary(max_size=40),
        expected=st.sampled_from([None, 1, V4, 9]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_bodies_behind_a_plausible_header_decode_alike(
        self, kind, version, rest, expected
    ):
        assert_same_decode(bytes([kind, version]) + rest, expected)

    @pytest.mark.parametrize("body", [b"", b"\x23", b"\x23\x01", b"\x23\x01\x00\x00\x00"])
    @pytest.mark.parametrize("expected", [None, 1, 4])
    def test_headerless_and_short_bodies_fail_alike(self, body, expected):
        assert assert_same_decode(body, expected)[0] == "error"

    def test_two_pairs_with_the_same_names_split_differently_stay_apart(self):
        """The pair cache is keyed by the encoding, length bytes included."""
        for pair in [("ab", "c"), ("a", "bc"), ("", "abc"), ("abc", ""), ("ab", "c")]:
            body = frame_body(protocol.Status(request_id=1, pair=pair), 4)
            assert assert_same_decode(body, 4)[2]["pair"] == pair

    def test_a_cached_pair_with_a_bad_length_byte_is_still_refused(self):
        get_key = protocol.GetKey(request_id=2, pair=("alice", "bob"), bits=256)
        body = bytearray(frame_body(get_key, 4))
        assert protocol.decode_body(bytes(body), 4).pair == ("alice", "bob")  # now cached
        for at, value in [(6, 6), (6, 4), (12, 4), (12, 2), (6, 0x85)]:
            mutated = bytearray(body)
            mutated[at] = value
            assert_same_decode(bytes(mutated), 4)

    def test_long_names_round_trip_through_the_cache(self):
        pair = ("n" * 200, "é" * 100)  # two-byte length varints, 200 bytes each
        body = frame_body(protocol.Consume(request_id=4, pair=pair, reservation_id=300), V4)
        for _ in range(2):  # a miss, then a hit
            assert assert_same_decode(body, V4)[2]["pair"] == pair
        assert assert_same_decode(body[:-1], V4)[0] == "error"

    def test_the_pair_cache_is_bounded(self):
        for index in range(protocol._PAIR_CACHE_LIMIT + 50):
            body = frame_body(protocol.Status(pair=("bound", str(index))), V4)
            assert protocol.decode_body(body, V4).pair == ("bound", str(index))
        assert len(protocol._PAIRS) == protocol._PAIR_CACHE_LIMIT


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #


def split_all(codec, segments, max_frame_bytes):
    """Feed ``segments`` to one splitter, draining after each: every body,
    the first error's code, and the buffer whenever draining stopped."""
    frames = codec.FrameSplitter(max_frame_bytes)
    events = []
    for segment in segments:
        frames.feed(segment)
        while True:
            try:
                body = frames.next_frame()
            except ProtocolError as exc:
                events.append(("error", exc.code, bytes(frames.buffer)))
                return events
            if body is None:
                events.append(("wait", bytes(frames.buffer)))
                break
            assert type(body) is bytes
            events.append(("frame", body))
    return events


@st.composite
def streams(draw):
    """A byte stream of frames (sometimes a bad prefix among them) cut into
    random segments, some of them bytearrays."""
    frames = [
        protocol.encode_frame(build(protocol, spec), V4)
        for spec in draw(st.lists(messages, max_size=6))
    ]
    if draw(st.booleans()):
        bad = draw(st.sampled_from([0, 1, 1 << 20]))
        frames.insert(draw(st.integers(0, len(frames))), struct.pack("<I", bad) + b"\x2a\x04")
    stream = b"".join(frames)
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    bounds = [0, *cuts, len(stream)]
    segments = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    return [
        bytearray(segment) if draw(st.booleans()) else segment
        for segment in segments
    ]


class TestFraming:
    @given(segments=streams(), max_frame_bytes=st.sampled_from([8, 64, protocol.MAX_FRAME_BYTES]))
    @settings(max_examples=200, deadline=None)
    def test_any_segmentation_yields_the_oracles_frames_errors_and_buffer(
        self, segments, max_frame_bytes
    ):
        assert split_all(protocol, segments, max_frame_bytes) == split_all(
            oracle, segments, max_frame_bytes
        )

    def test_a_segment_of_whole_frames_leaves_nothing_buffered(self):
        stream = b"".join(
            protocol.encode_frame(protocol.Status(request_id=i, pair=("a", "b")), V4)
            for i in range(3)
        )
        frames = protocol.FrameSplitter()
        frames.feed(stream)
        bodies = [frames.next_frame() for _ in range(3)]
        assert frames.next_frame() is None and frames.buffer == b""
        assert [protocol.decode_body(body, V4).request_id for body in bodies] == [0, 1, 2]

    def test_a_segment_fed_before_the_last_was_drained_keeps_the_order(self):
        first = protocol.encode_frame(protocol.Status(request_id=1, pair=("a", "b")), V4)
        second = protocol.encode_frame(protocol.Status(request_id=2, pair=("a", "b")), V4)
        frames = protocol.FrameSplitter()
        frames.feed(first + second[:3])
        frames.feed(second[3:])
        assert [frames.next_frame(), frames.next_frame(), frames.next_frame()] == [
            first[4:],
            second[4:],
            None,
        ]


# --------------------------------------------------------------------------- #
# The scalar varint
# --------------------------------------------------------------------------- #


class TestScalarVarint:
    @given(values=st.lists(u64, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_vectorised_codec(self, values):
        data = b"".join(wire.encode_varint(value) for value in values)
        assert data == wire_arrays.encode_varints(np.array(values, dtype=np.uint64))
        offset, read = 0, []
        while offset < len(data):
            value, offset = wire.read_varint(data, offset)
            read.append(value)
        assert read == values == wire_arrays.decode_varints(data, len(values)).tolist()

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x80",
            b"\xff\xff",
            b"\xff" * 9,
            b"\xff" * 10 + b"\x01",  # longer than 10 bytes
            b"\xff" * 9 + b"\x02",  # 10 bytes, past 64 bits
            b"\xff" * 9 + b"\x7f",
        ],
    )
    def test_rejects_what_the_vectorised_codec_rejects(self, data):
        with pytest.raises(wire.WireDecodeError):
            wire.read_varint(data, 0)
        with pytest.raises(wire.WireDecodeError):
            wire_arrays.decode_varints(data, 1)

    @pytest.mark.parametrize("value", [0x7F, 0x80, 0x3FFF, 0x4000, (1 << 64) - 1])
    def test_the_fast_path_edges(self, value):
        data = wire.encode_varint(value)
        assert wire.read_varint(b"\x00" + data + b"\x00", 1) == (value, 1 + len(data))
        assert data == wire_arrays.encode_varints([value])

    def test_a_non_minimal_two_byte_varint_reads_as_its_value(self):
        assert wire.read_varint(b"\x85\x00", 0) == (5, 2)
        assert wire_arrays.decode_varints(b"\x85\x00", 1).tolist() == [5]
