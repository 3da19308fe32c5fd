"""A structure-aware fuzzer for netkms frames.

Frames of every kind at v4 are built from their structure
(the strategies of ``tests/test_netkms_codec.py``), then mutated the ways a
broken or hostile peer breaks them — truncated, extended, another kind,
another version, a corrupted count — and fed through
:class:`~repro.netkms.protocol.FrameSplitter` in random segmentations.  Each
frame the splitter cuts out is the frame that went in, and decodes to a typed
:class:`~repro.netkms.protocol.ProtocolError` or to exactly what the reference
codec (``tests/oracles/netkms_codec.py``) decodes; no other exception
escapes.  A length prefix above ``max_frame_bytes`` is refused as soon as its
four bytes are in, before any body byte is buffered.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.netkms import protocol
from repro.netkms.protocol import ProtocolError
from tests.test_netkms_codec import V4, build, expected_for, frame_body, messages, outcome
from tests.oracles import netkms_codec as oracle

HEADER_BYTES = 6
MUTATIONS = ("none", "truncate", "extend", "kind", "version", "count")
#: Every kind, and the unassigned codes on either side of the range.
KIND_CODES = list(range(0x1F, 0x2F))

FUZZ = settings(max_examples=200, deadline=None)


@st.composite
def mutated_bodies(draw):
    """One frame body built from a message's structure, maybe mutated, and
    the version its receiver expects."""
    spec = draw(messages)
    body = bytearray(frame_body(build(protocol, spec)))
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "truncate":
        del body[draw(st.integers(2, len(body) - 1)) :]
    elif mutation == "extend":
        body += draw(st.binary(min_size=1, max_size=6))
    elif mutation == "kind":
        body[0] = draw(st.sampled_from(KIND_CODES))
    elif mutation == "version":
        body[1] = draw(st.integers(0, 6))
    elif mutation == "count" and len(body) > HEADER_BYTES:
        # A length prefix, a varint or a list count sits after the header.
        at = draw(st.integers(HEADER_BYTES, len(body) - 1))
        body[at] = draw(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0xFF]))
    expected = draw(st.sampled_from([expected_for(spec[0]), None, V4]))
    return bytes(body), expected


@st.composite
def fuzzed_streams(draw):
    """Mutated frames behind their length prefixes, cut into random segments."""
    bodies = draw(st.lists(mutated_bodies(), min_size=1, max_size=5))
    stream = b"".join(struct.pack("<I", len(body)) + body for body, _ in bodies)
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=10)))
    bounds = [0, *cuts, len(stream)]
    return bodies, [stream[a:b] for a, b in zip(bounds, bounds[1:])]


class TestFrameFuzz:
    @given(
        streams=fuzzed_streams(),
        max_frame_bytes=st.sampled_from([64, protocol.MAX_FRAME_BYTES]),
    )
    @FUZZ
    def test_every_frame_is_a_typed_error_or_the_oracles_decode(self, streams, max_frame_bytes):
        bodies, segments = streams
        frames = protocol.FrameSplitter(max_frame_bytes)
        cut = []
        refused = None
        for segment in segments:
            frames.feed(segment)
            while refused is None:
                try:
                    body = frames.next_frame()
                except ProtocolError as exc:
                    refused = exc
                    break
                if body is None:
                    break
                cut.append(body)
        # The splitter cuts out exactly the frames that went in, until the
        # first prefix it refuses (the stream is then out of frame sync).
        sent = [body for body, _ in bodies]
        assert cut == sent[: len(cut)]
        if refused is None:
            assert len(cut) == len(sent)
        else:
            assert refused.code == protocol.ERR_OVERSIZED
            assert len(sent[len(cut)]) > max_frame_bytes
        for body, (_, expected) in zip(cut, bodies):
            # outcome() lets only ProtocolError through as a result.
            assert outcome(protocol, body, expected) == outcome(oracle, body, expected)

    @given(
        length=st.integers(protocol.MAX_FRAME_BYTES + 1, 0xFFFFFFFF),
        body_bytes=st.integers(0, 16),
    )
    @FUZZ
    def test_an_oversized_prefix_is_refused_before_its_body(self, length, body_bytes):
        frames = protocol.FrameSplitter()
        frames.feed(struct.pack("<I", length))
        with pytest.raises(ProtocolError) as refused:
            frames.next_frame()
        assert refused.value.code == protocol.ERR_OVERSIZED
        assert len(frames.buffer) == 4  # the prefix alone: no body byte waited for
        # Body bytes arriving with the prefix are not kept beyond what came.
        frames = protocol.FrameSplitter()
        frames.feed(struct.pack("<I", length) + bytes(body_bytes))
        with pytest.raises(ProtocolError):
            frames.next_frame()
        assert len(frames.buffer) == 4 + body_bytes
