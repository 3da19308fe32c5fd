"""Protocol messages exchanged over the public channel.

Every stage of the QKD pipeline communicates through explicit message objects
so that (a) the information disclosed to an eavesdropper is exactly what is
carried in these objects and can be measured, (b) a man-in-the-middle attack
model can tamper with them, and (c) the authentication stage has a concrete
transcript to tag.

Each message knows how to serialise itself to bytes (:meth:`encode`), both so
the authentication layer can tag real byte strings and so message sizes can
be reported (the E12 claim rows compare the run-length encoding's size with
a naive explicit-index listing).

Two encodings exist side by side:

* **binary** (:mod:`repro.core.wire`) — the engine's wire format for the hot
  messages (sift, sift response, Cascade announcements/replies/bisections):
  a 1-byte kind tag, fixed little-endian header fields, LEB128 varints for
  run lengths and index deltas, and ``np.packbits`` bitmaps for bases /
  accept masks / parities.  ``encode()`` on those messages produces it and
  each class's ``decode()`` round-trips it.
* **JSON** (:meth:`encode_json`, available on every message) — a production
  encoding, not a test oracle: the infrequent messages (privacy
  amplification, authentication tags) use it as their ``encode()`` directly, :meth:`CascadeBisectQuery.encode`
  falls back to it for a hand-built query whose indices are not ascending,
  and E12 checks the JSON run-length size as one of its paper claims.

A :class:`PublicChannelLog` holds one object per message with one exception:
Cascade records a whole bisection — up to ``2·⌈log₂ n⌉`` query/reply messages
over one subset — as a single :class:`CascadeBisection` entry that keeps the
messages' wire bytes and their count and nothing else.  ``len(log)``,
``total_bytes`` and ``transcript_bytes()`` read those directly;
:meth:`CascadeBisection.messages` decodes an entry
back into the :class:`CascadeBisectQuery` / :class:`CascadeBisectReply`
objects, which remain the definition of each message's bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import wire, wire_arrays
from repro.util.bits import BitString

IntArray = Union[List[int], np.ndarray]


def _json_ready(value):
    """Coerce numpy containers/scalars to JSON-native types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _encode_json_payload(kind: str, payload: Dict) -> bytes:
    """Stable JSON encoding used as the reference wire format."""
    payload = {key: _json_ready(value) for key, value in payload.items()}
    return json.dumps({"kind": kind, **payload}, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class SiftMessage:
    """Bob -> Alice: which slots produced usable clicks, and in which basis.

    The slot indication is run-length encoded (paper Appendix, "Sifting /
    Run-Length Encoding"): long runs of no-detection slots compress to almost
    nothing.  ``detection_runs`` alternates (no-detection run length,
    detection run length, ...) starting with a no-detection run.  Both
    array-valued fields may be numpy arrays (the engine's hot path keeps them
    packed) or plain lists (tests, hand-built messages).
    """

    frame_id: int
    n_slots: int
    detection_runs: IntArray
    detected_bases: IntArray

    def encode(self) -> bytes:
        """Binary wire encoding: header, packed bases bitmap, varint runs."""
        runs = np.asarray(self.detection_runs)
        header = wire.pack_header(
            wire.KIND_SIFT,
            "IIII",
            self.frame_id,
            self.n_slots,
            runs.size,
            len(self.detected_bases),
        )
        bases = wire_arrays.pack_bitmap(self.detected_bases)
        return header + bases + wire_arrays.encode_varints(runs.tolist())

    def encode_json(self) -> bytes:
        return _encode_json_payload(
            "sift",
            {
                "frame": self.frame_id,
                "slots": self.n_slots,
                "runs": self.detection_runs,
                "bases": self.detected_bases,
            },
        )

    @classmethod
    def decode(cls, data: bytes) -> "SiftMessage":
        (frame_id, n_slots, n_runs, n_bases), payload = wire.unpack_header(
            data, wire.KIND_SIFT, "IIII"
        )
        split = wire.bitmap_size(n_bases)
        bases = wire_arrays.unpack_bitmap(payload[:split], n_bases)
        runs = wire_arrays.decode_varints(payload[split:], n_runs)
        return cls(
            frame_id=frame_id,
            n_slots=n_slots,
            detection_runs=runs.astype(np.int64),
            detected_bases=bases,
        )


@dataclass
class SiftResponseMessage:
    """Alice -> Bob: which of the reported detections used a matching basis."""

    frame_id: int
    #: One bit per reported detection, 1 = bases matched (keep), 0 = discard.
    accept_mask: IntArray

    def encode(self) -> bytes:
        """Binary wire encoding: header plus the bit-packed accept mask."""
        header = wire.pack_header(
            wire.KIND_SIFT_RESPONSE, "II", self.frame_id, len(self.accept_mask)
        )
        return header + wire_arrays.pack_bitmap(self.accept_mask)

    def encode_json(self) -> bytes:
        return _encode_json_payload(
            "sift-response", {"frame": self.frame_id, "accept": self.accept_mask}
        )

    @classmethod
    def decode(cls, data: bytes) -> "SiftResponseMessage":
        (frame_id, n_accept), payload = wire.unpack_header(
            data, wire.KIND_SIFT_RESPONSE, "II"
        )
        return cls(frame_id=frame_id, accept_mask=wire_arrays.unpack_bitmap(payload, n_accept))


@dataclass
class CascadeSubsetAnnouncement:
    """Initiator -> responder: the LFSR seeds of this round's parity subsets and
    the initiator's parities over them."""

    round_index: int
    key_length: int
    seeds: IntArray
    parities: IntArray

    def encode(self) -> bytes:
        """Binary wire encoding: header, fixed u32 seeds, parity bitmap."""
        header = wire.pack_header(
            wire.KIND_CASCADE_SUBSETS,
            "iII",
            self.round_index,
            self.key_length,
            len(self.seeds),
        )
        seeds = np.asarray(self.seeds)
        if seeds.size and (int(seeds.min()) < 0 or int(seeds.max()) >= 1 << 32):
            raise ValueError("announcement seeds must fit in 32 bits")
        if seeds.size and not np.issubdtype(seeds.dtype, np.integer):
            if not np.array_equal(seeds, seeds.astype(np.int64)):
                raise ValueError("announcement seeds must be integers")
        if len(self.parities) != len(self.seeds):
            raise ValueError("announcement needs one parity per seed")
        return header + seeds.astype("<u4").tobytes() + wire_arrays.pack_bitmap(self.parities)

    def encode_json(self) -> bytes:
        return _encode_json_payload(
            "cascade-subsets",
            {
                "round": self.round_index,
                "length": self.key_length,
                "seeds": self.seeds,
                "parities": self.parities,
            },
        )

    @classmethod
    def decode(cls, data: bytes) -> "CascadeSubsetAnnouncement":
        (round_index, key_length, n_seeds), payload = wire.unpack_header(
            data, wire.KIND_CASCADE_SUBSETS, "iII"
        )
        seed_bytes = 4 * n_seeds
        if len(payload) < seed_bytes:
            raise wire.WireDecodeError("announcement truncated inside seed table")
        seeds = np.frombuffer(payload[:seed_bytes], dtype="<u4").astype(np.int64)
        parities = wire_arrays.unpack_bitmap(payload[seed_bytes:], n_seeds)
        return cls(
            round_index=round_index,
            key_length=key_length,
            seeds=seeds.tolist(),
            parities=parities,
        )


@dataclass
class CascadeParityReply:
    """Responder -> initiator: the responder's parities over the same subsets."""

    round_index: int
    parities: IntArray

    def encode(self) -> bytes:
        header = wire.pack_header(
            wire.KIND_CASCADE_PARITIES, "iI", self.round_index, len(self.parities)
        )
        return header + wire_arrays.pack_bitmap(self.parities)

    def encode_json(self) -> bytes:
        return _encode_json_payload(
            "cascade-parities", {"round": self.round_index, "parities": self.parities}
        )

    @classmethod
    def decode(cls, data: bytes) -> "CascadeParityReply":
        (round_index, n_parities), payload = wire.unpack_header(
            data, wire.KIND_CASCADE_PARITIES, "iI"
        )
        return cls(
            round_index=round_index, parities=wire_arrays.unpack_bitmap(payload, n_parities)
        )


class SubsetPositions:
    """The key positions of one announced parity subset, strictly ascending.

    Bisection only ever queries a slice ``array[lo:hi]`` of them, so what
    :meth:`CascadeBisectQuery.encode` has to rediscover from a bare index
    list is known up front: a slice is a contiguous range exactly when its
    span equals its length, and otherwise its delta coding is a slice of the
    subset's own deltas, computed once.
    """

    __slots__ = ("array", "_delta_bytes")

    def __init__(self, array: np.ndarray):
        self.array = array
        self._delta_bytes: Optional[bytes] = None

    def __len__(self) -> int:
        return len(self.array)

    @property
    def delta_bytes(self) -> bytes:
        """``array[j + 1] - array[j]`` as byte ``j`` — the varint coding of the
        deltas while each fits one varint byte; empty when one does not."""
        deltas = self._delta_bytes
        if deltas is None:
            gaps = self.array[1:] - self.array[:-1]
            narrow = gaps.size and int(gaps.max()) < 0x80
            deltas = self._delta_bytes = gaps.astype(np.uint8).tobytes() if narrow else b""
        return deltas


@dataclass
class CascadeBisectQuery:
    """A divide-and-conquer step: ask for the parity of half of a subrange."""

    round_index: int
    subset_index: int
    indices: Tuple[int, ...]

    #: Payload modes (one byte after the fixed header).
    _MODE_DELTAS = 0
    _MODE_RANGE = 1
    #: Decode-side cap on range-mode expansion (far above any real key
    #: block, small enough that a hostile header cannot force a big alloc).
    _MAX_DECODED_INDICES = 1 << 20

    def encode(self) -> bytes:
        """Binary wire encoding: header, a mode byte, then the indices.

        Bisection always queries an ascending index slice.  A contiguous
        slice (every first-pass block subrange) is sent as just its first
        index (mode 1); anything else is delta-varint coded (mode 0), which
        is ~1 byte per index.  A hand-built query with out-of-order indices
        falls back to the JSON reference encoding (still deterministic,
        still taggable).
        """
        indices = np.asarray(self.indices, dtype=np.int64)
        min_delta = (
            int(np.diff(indices).min()) if indices.size > 1 else 1
        )
        if indices.size and (
            indices[0] < 0
            or min_delta < 0
            # Ascending, so the last index is the max; the decoder caps
            # deltas (and therefore values) at 32 bits.
            or int(indices[-1]) >= 1 << 32
        ):
            return self.encode_json()
        header = wire.pack_header(
            wire.KIND_CASCADE_BISECT,
            "iII",
            self.round_index,
            self.subset_index,
            indices.size,
        )
        if indices.size and min_delta == 1 and (
            int(indices[-1] - indices[0]) == indices.size - 1
        ):
            # Strictly contiguous ascending range (min delta 1 with the exact
            # span means every delta is 1): first index is the whole payload.
            return (
                header
                + bytes([self._MODE_RANGE])
                + wire_arrays.encode_varints((int(indices[0]),))
            )
        return (
            header
            + bytes([self._MODE_DELTAS])
            + wire_arrays.encode_ascending_indices(indices.tolist())
        )

    def encode_json(self) -> bytes:
        return _encode_json_payload(
            "cascade-bisect",
            {
                "round": self.round_index,
                "subset": self.subset_index,
                "indices": list(self.indices),
            },
        )

    @classmethod
    def decode(cls, data: bytes) -> "CascadeBisectQuery":
        (round_index, subset_index, n_indices), payload = wire.unpack_header(
            data, wire.KIND_CASCADE_BISECT, "iII"
        )
        if not payload:
            raise wire.WireDecodeError("bisect query missing its mode byte")
        mode, payload = payload[0], payload[1:]
        if mode == cls._MODE_RANGE:
            if n_indices == 0:
                raise wire.WireDecodeError("range-coded bisect query cannot be empty")
            if n_indices > cls._MAX_DECODED_INDICES:
                # Delta mode pays ~1 byte per index, so a hostile message
                # cannot get large output from small input there; range mode
                # must bound the expansion explicitly.
                raise wire.WireDecodeError(
                    f"range-coded bisect query claims {n_indices} indices "
                    f"(limit {cls._MAX_DECODED_INDICES})"
                )
            first = int(wire_arrays.decode_varints(payload, 1)[0])
            indices = tuple(range(first, first + n_indices))
        elif mode == cls._MODE_DELTAS:
            indices = tuple(
                int(i) for i in wire_arrays.decode_ascending_indices(payload, n_indices)
            )
        else:
            raise wire.WireDecodeError(f"unknown bisect query mode {mode}")
        return cls(
            round_index=round_index,
            subset_index=subset_index,
            indices=indices,
        )


#: The fixed part of a bisect query (kind, round, subset, index count, mode)
#: and the whole of a reply (kind, round, subset, parity).
_BISECT_QUERY_HEADER = struct.Struct("<BiIIB")
_BISECT_REPLY = struct.Struct("<BiIB")


def _slice_query_bytes(
    round_index: int, subset_index: int, subset: SubsetPositions, lo: int, hi: int
) -> bytes:
    """:meth:`CascadeBisectQuery.encode` of ``subset.array[lo:hi]``, from the bounds alone."""
    first = int(subset.array[lo])
    mode = CascadeBisectQuery._MODE_DELTAS
    if int(subset.array[hi - 1]) - first == hi - lo - 1:
        mode, indices = CascadeBisectQuery._MODE_RANGE, wire_arrays.encode_varints((first,))
    elif subset.delta_bytes:
        indices = wire_arrays.encode_varints((first,)) + subset.delta_bytes[lo : hi - 1]
    else:
        indices = wire_arrays.encode_ascending_indices(subset.array[lo:hi].tolist())
    try:
        header = _BISECT_QUERY_HEADER.pack(
            wire.KIND_CASCADE_BISECT, round_index, subset_index, hi - lo, mode
        )
    except struct.error as exc:
        raise ValueError(f"header field out of range: {exc}") from None
    return header + indices


@dataclass
class CascadeBisectReply:
    """The parity of the queried subrange."""

    round_index: int
    subset_index: int
    parity: int

    def encode(self) -> bytes:
        return wire.pack_header(
            wire.KIND_CASCADE_BISECT_REPLY,
            "iIB",
            self.round_index,
            self.subset_index,
            self.parity & 1,
        )

    def encode_json(self) -> bytes:
        return _encode_json_payload(
            "cascade-bisect-reply",
            {
                "round": self.round_index,
                "subset": self.subset_index,
                "parity": self.parity,
            },
        )

    @classmethod
    def decode(cls, data: bytes) -> "CascadeBisectReply":
        (round_index, subset_index, parity), rest = wire.unpack_header(
            data, wire.KIND_CASCADE_BISECT_REPLY, "iIB"
        )
        if rest or parity > 1:
            raise wire.WireDecodeError("bisect reply is a header and one parity bit")
        return cls(round_index=round_index, subset_index=subset_index, parity=parity)


class CascadeBisection:
    """One whole divide-and-conquer search, recorded as a single log entry.

    The entry holds the wire bytes of its query/reply pairs in the order
    they crossed the channel and how many messages that is — not the
    subset's position arrays, so a finished block retains its transcript
    and little else.  :class:`CascadeBisectQuery` and
    :class:`CascadeBisectReply` remain the definition of each message;
    :meth:`messages` decodes the bytes back into them.
    """

    __slots__ = ("wire_bytes", "message_count")

    def __init__(self, wire_bytes: bytes, message_count: int):
        self.wire_bytes = wire_bytes
        self.message_count = message_count

    @classmethod
    def over(
        cls, round_index: int, subset_index: int, subset: SubsetPositions, steps
    ) -> "CascadeBisection":
        """The search whose every ``(lo, mid, parity)`` step asked for the
        parity of ``subset.array[lo:mid]`` and was told ``parity``."""
        parts = []
        for lo, mid, parity in steps:
            parts.append(_slice_query_bytes(round_index, subset_index, subset, lo, mid))
            parts.append(
                _BISECT_REPLY.pack(
                    wire.KIND_CASCADE_BISECT_REPLY, round_index, subset_index, parity
                )
            )
        return cls(b"".join(parts), len(parts))

    def encode(self) -> bytes:
        return self.wire_bytes

    def messages(self) -> List[object]:
        """The queries and replies as message objects, decoded from the bytes."""
        out: List[object] = []
        data, offset = self.wire_bytes, 0
        while offset < len(data):
            n_indices, mode = _BISECT_QUERY_HEADER.unpack_from(data, offset)[3:]
            end = offset + _BISECT_QUERY_HEADER.size
            for _ in range(1 if mode == CascadeBisectQuery._MODE_RANGE else n_indices):
                while data[end] >= 0x80:  # a varint ends at its first byte below 0x80
                    end += 1
                end += 1
            out.append(CascadeBisectQuery.decode(data[offset:end]))
            offset = end + _BISECT_REPLY.size
            out.append(CascadeBisectReply.decode(data[end:offset]))
        return out


@dataclass
class PrivacyAmplificationMessage:
    """Initiator -> responder: the four privacy-amplification parameters.

    Exactly the four things the paper lists: the number of output bits m, the
    sparse primitive polynomial of the Galois field, an n-bit multiplier, and
    an m-bit polynomial to add (XOR) with the product.  One per block, so the
    JSON reference encoding stays its wire format.
    """

    output_bits: int
    field_degree: int
    polynomial_exponents: Tuple[int, ...]
    multiplier: int
    addend: int

    def encode(self) -> bytes:
        return _encode_json_payload(
            "privacy-amplification",
            {
                "m": self.output_bits,
                "degree": self.field_degree,
                "poly": list(self.polynomial_exponents),
                "multiplier": self.multiplier,
                "addend": self.addend,
            },
        )

    encode_json = encode


@dataclass
class AuthenticationTagMessage:
    """A Wegman-Carter tag covering a batch of protocol messages."""

    covered_messages: int
    tag_bits: List[int]

    def encode(self) -> bytes:
        return _encode_json_payload(
            "auth-tag", {"covered": self.covered_messages, "tag": self.tag_bits}
        )

    encode_json = encode

    @property
    def tag(self) -> BitString:
        return BitString(self.tag_bits)


@dataclass
class PublicChannelLog:
    """A transcript of everything that crossed the public channel.

    Entropy estimation charges every disclosed parity bit against the key; the
    log also gives the authentication stage its byte stream and gives tests a
    way to assert exactly what Eve could have seen.
    """

    messages: List[object] = field(default_factory=list)

    def record(self, message) -> None:
        self.messages.append(message)

    @property
    def total_bytes(self) -> int:
        return sum(len(m.encode()) for m in self.messages)

    def transcript_bytes(self) -> bytes:
        """The concatenated byte encoding of every message, in order."""
        return b"".join(m.encode() for m in self.messages)

    def __len__(self) -> int:
        """Messages that crossed the channel (a bisection entry counts all of its own)."""
        return sum(
            m.message_count if isinstance(m, CascadeBisection) else 1 for m in self.messages
        )
