"""The netkms codec as it was before its per-kind offset readers: the reference.

The body of :mod:`repro.netkms.protocol` from message primitives to the
frame splitter, kept verbatim — a ``_Cursor`` object per body with a method
call per field, keyword construction, a private ``_varint`` loop, the
header packed apart from the length prefix, and a splitter that copies
every segment into its buffer.  Obvious and slow, imported by no production
code; ``tests/test_netkms_codec.py`` holds the shipped codec to it byte for
byte (every kind), error code for error code (random, truncated and mutated
bodies), and frame for frame (random segmentations).
The wire constants, :class:`ProtocolError` and :func:`negotiate` are the
shipped ones: they are the specification both codecs implement.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple, Type

from repro.netkms.protocol import (
    ERR_INTERNAL,
    ERR_MALFORMED,
    ERR_OVERSIZED,
    ERR_UNKNOWN_KIND,
    ERR_VERSION,
    ERROR_NAMES,
    FLOOR_VERSION,
    KIND_CAPABILITIES,
    KIND_CAPABILITIES_OK,
    KIND_CONSUME,
    KIND_CONSUME_OK,
    KIND_ERROR,
    KIND_GET_KEY,
    KIND_HELLO,
    KIND_RELEASE,
    KIND_RELEASE_OK,
    KIND_RESERVE,
    KIND_RESERVE_OK,
    KIND_STATUS,
    KIND_STATUS_OK,
    KIND_WELCOME,
    MAX_FRAME_BYTES,
    SUPPORTED_VERSIONS,
    ProtocolError,
)

#: A frame body is at least the kind and version bytes.
_MIN_BODY = 2

_LENGTH_PREFIX = struct.Struct("<I")
#: kind, version, request id: the fixed head of every frame body.
_HEADER = struct.Struct("<BBI")


# --------------------------------------------------------------------------- #
# Body primitives
# --------------------------------------------------------------------------- #


class _Cursor:
    """A validating reader over one frame body.

    Every read checks the remaining length first, so a hostile count can
    never index past the bytes that actually arrived, and
    :meth:`expect_end` rejects trailing garbage.
    """

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def u8(self, what: str) -> int:
        offset = self.offset
        if offset >= len(self.data):
            raise ProtocolError(ERR_MALFORMED, f"truncated before {what}")
        self.offset = offset + 1
        return self.data[offset]

    def varint(self, what: str) -> int:
        data, offset = self.data, self.offset
        if offset < len(data) and data[offset] < 0x80:
            # One byte: every string length and most counts.
            self.offset = offset + 1
            return data[offset]
        value = 0
        for shift in range(0, 70, 7):
            if offset >= len(data):
                raise ProtocolError(ERR_MALFORMED, f"truncated before {what}")
            byte = data[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                if value >= 1 << 64:
                    raise ProtocolError(ERR_MALFORMED, f"{what} overflows 64 bits")
                self.offset = offset
                return value
        raise ProtocolError(ERR_MALFORMED, f"{what} varint longer than 10 bytes")

    def raw(self, count: int, what: str) -> bytes:
        offset = self.offset
        if count > len(self.data) - offset:
            raise ProtocolError(
                ERR_MALFORMED,
                f"{what} claims {count} bytes, {self.remaining()} remain",
            )
        self.offset = offset + count
        return self.data[offset : offset + count]

    def string(self, what: str, limit: int = 255) -> str:
        length = self.varint(f"{what} length")
        if length > limit:
            raise ProtocolError(ERR_MALFORMED, f"{what} longer than {limit} bytes")
        try:
            return self.raw(length, what).decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError(ERR_MALFORMED, f"{what} is not valid UTF-8") from None

    def pair(self) -> Tuple[str, str]:
        return (self.string("pair[0]"), self.string("pair[1]"))

    def expect_end(self, kind: int) -> None:
        if self.remaining():
            what = ERROR_NAMES.get(kind, f"kind 0x{kind:02x}")
            raise ProtocolError(ERR_MALFORMED, f"{self.remaining()} trailing bytes after {what}")


def _varint(value: int) -> bytes:
    if value < 0 or value >= 1 << 64:
        raise ValueError("varints encode non-negative 64-bit integers only")
    if value < 0x80:
        return bytes((value,))
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _string(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 255:
        raise ValueError("protocol strings are limited to 255 bytes")
    return _varint(len(data)) + data


@lru_cache(maxsize=1024)
def _pair_bytes(pair: Tuple[str, str]) -> bytes:
    # Pair names are public identifiers, never key material, so caching
    # their encoding keeps nothing secret alive.
    return _string(pair[0]) + _string(pair[1])


def _header(kind: int, version: int, request_id: int) -> bytes:
    if not 0 <= request_id <= 0xFFFFFFFF:
        raise ValueError("request id out of u32 range")
    return _HEADER.pack(kind, version, request_id)


# --------------------------------------------------------------------------- #
# Messages
# --------------------------------------------------------------------------- #


@dataclass
class Message:
    """Base of every netkms message; ``request_id`` correlates pipelining."""

    request_id: int = 0

    KIND = 0  # overridden per subclass
    # Not a dataclass field (no annotation): set per-instance by
    # decode_body to the header version the frame actually carried.
    wire_version = None

    def encode(self, version: int) -> bytes:
        return _header(self.KIND, version, self.request_id) + self._payload(version)

    def _payload(self, version: int) -> bytes:
        return b""


@dataclass
class Hello(Message):
    """Client opener: the inclusive version range it speaks, and its name."""

    min_version: int = SUPPORTED_VERSIONS[0]
    max_version: int = SUPPORTED_VERSIONS[-1]
    client_id: str = "sae"

    KIND = KIND_HELLO

    def encode(self, version: int = FLOOR_VERSION) -> bytes:
        # Always the floor encoding: any server can parse any client's offer.
        return super().encode(FLOOR_VERSION)

    def _payload(self, version: int) -> bytes:
        return bytes([self.min_version, self.max_version]) + _string(self.client_id)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "Hello":
        msg = cls(
            request_id=request_id,
            min_version=cursor.u8("min version"),
            max_version=cursor.u8("max version"),
            client_id=cursor.string("client id"),
        )
        if msg.min_version > msg.max_version:
            raise ProtocolError(ERR_MALFORMED, "HELLO offers an empty version range")
        return msg


@dataclass
class Welcome(Message):
    """Server reply to HELLO; its header version *is* the negotiated one."""

    server_id: str = "kme"

    KIND = KIND_WELCOME

    def _payload(self, version: int) -> bytes:
        return _string(self.server_id)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "Welcome":
        return cls(request_id=request_id, server_id=cursor.string("server id"))


@dataclass
class Error(Message):
    """A typed failure; ``request_id`` echoes the request (0 pre-negotiation)."""

    code: int = ERR_INTERNAL
    detail: str = ""

    KIND = KIND_ERROR

    def _payload(self, version: int) -> bytes:
        return bytes([self.code]) + _string(self.detail)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "Error":
        return cls(
            request_id=request_id,
            code=cursor.u8("error code"),
            detail=cursor.string("error detail"),
        )


@dataclass
class Status(Message):
    """Ask for one pair's store levels."""

    pair: Tuple[str, str] = ("", "")

    KIND = KIND_STATUS

    def _payload(self, version: int) -> bytes:
        return _pair_bytes(self.pair)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "Status":
        return cls(request_id=request_id, pair=cursor.pair())


@dataclass
class StatusOk(Message):
    """One store's levels and how fast it is drawn down."""

    pair: Tuple[str, str] = ("", "")
    available_bits: int = 0
    reserved_bits: int = 0
    unreserved_bits: int = 0
    low_water_bits: int = 0
    high_water_bits: int = 0
    capacity_bits: int = 0
    #: EWMA draw rate in millibits/second.
    depletion_rate_millibps: int = 0

    KIND = KIND_STATUS_OK

    def _payload(self, version: int) -> bytes:
        out = _pair_bytes(self.pair)
        for value in (
            self.available_bits,
            self.reserved_bits,
            self.unreserved_bits,
            self.low_water_bits,
            self.high_water_bits,
            self.capacity_bits,
        ):
            out += _varint(value)
        return out + _varint(self.depletion_rate_millibps)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "StatusOk":
        return cls(
            request_id=request_id,
            pair=cursor.pair(),
            available_bits=cursor.varint("available bits"),
            reserved_bits=cursor.varint("reserved bits"),
            unreserved_bits=cursor.varint("unreserved bits"),
            low_water_bits=cursor.varint("low water"),
            high_water_bits=cursor.varint("high water"),
            capacity_bits=cursor.varint("capacity"),
            depletion_rate_millibps=cursor.varint("depletion rate"),
        )


@dataclass
class Capabilities(Message):
    """Ask what the server speaks and serves."""

    KIND = KIND_CAPABILITIES

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "Capabilities":
        return cls(request_id=request_id)


@dataclass
class CapabilitiesOk(Message):
    """Server limits plus the sorted list of pairs it serves."""

    min_version: int = SUPPORTED_VERSIONS[0]
    max_version: int = SUPPORTED_VERSIONS[-1]
    max_frame_bytes: int = MAX_FRAME_BYTES
    max_reserve_bits: int = 0
    pairs: Tuple[Tuple[str, str], ...] = ()

    KIND = KIND_CAPABILITIES_OK

    def _payload(self, version: int) -> bytes:
        out = bytes([self.min_version, self.max_version])
        out += _varint(self.max_frame_bytes)
        out += _varint(self.max_reserve_bits)
        out += _varint(len(self.pairs))
        for pair in self.pairs:
            out += _pair_bytes(pair)
        return out

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "CapabilitiesOk":
        min_version = cursor.u8("min version")
        max_version = cursor.u8("max version")
        max_frame = cursor.varint("max frame bytes")
        max_reserve = cursor.varint("max reserve bits")
        n_pairs = cursor.varint("pair count")
        # Each pair needs at least two length bytes; reject the count from
        # the bytes present before building anything pair-count sized.
        if n_pairs > cursor.remaining() // 2:
            raise ProtocolError(
                ERR_MALFORMED,
                f"pair count {n_pairs} exceeds what {cursor.remaining()} bytes can hold",
            )
        pairs = tuple(cursor.pair() for _ in range(n_pairs))
        return cls(
            request_id=request_id,
            min_version=min_version,
            max_version=max_version,
            max_frame_bytes=max_frame,
            max_reserve_bits=max_reserve,
            pairs=pairs,
        )


@dataclass
class Reserve(Message):
    """Claim ``bits`` bits of one pair's store for an upcoming consume."""

    pair: Tuple[str, str] = ("", "")
    bits: int = 0

    KIND = KIND_RESERVE

    def _payload(self, version: int) -> bytes:
        return _pair_bytes(self.pair) + _varint(self.bits)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "Reserve":
        return cls(request_id=request_id, pair=cursor.pair(), bits=cursor.varint("bits"))


@dataclass
class GetKey(Reserve):
    """Reserve and consume ``bits`` bits in one request, answered by
    CONSUME_OK.  A lost reply cannot be fetched again — the reservation id
    travels only in it."""

    KIND = KIND_GET_KEY


@dataclass
class ReserveOk(Message):
    """A granted reservation, to be consumed or released by id.

    ``lease_ms`` is the server's lease TTL on the reservation in
    milliseconds (0 = the server grants no lease).  A reservation that is
    neither consumed nor released within its lease is reaped server-side
    and its bits returned to the store.
    """

    reservation_id: int = 0
    bits: int = 0
    lease_ms: int = 0

    KIND = KIND_RESERVE_OK

    def _payload(self, version: int) -> bytes:
        return _varint(self.reservation_id) + _varint(self.bits) + _varint(self.lease_ms)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "ReserveOk":
        return cls(
            request_id=request_id,
            reservation_id=cursor.varint("reservation id"),
            bits=cursor.varint("bits"),
            lease_ms=cursor.varint("lease ms"),
        )


@dataclass
class Consume(Message):
    """Draw a held reservation's key material."""

    pair: Tuple[str, str] = ("", "")
    reservation_id: int = 0

    KIND = KIND_CONSUME

    def _payload(self, version: int) -> bytes:
        return _pair_bytes(self.pair) + _varint(self.reservation_id)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "Consume":
        return cls(
            request_id=request_id,
            pair=cursor.pair(),
            reservation_id=cursor.varint("reservation id"),
        )


@dataclass
class ConsumeOk(Message):
    """The served key: ``key_bits`` bits packed MSB-first into ``key_bytes``."""

    reservation_id: int = 0
    key_bits: int = 0
    key_bytes: bytes = b""

    KIND = KIND_CONSUME_OK

    def _payload(self, version: int) -> bytes:
        if len(self.key_bytes) != (self.key_bits + 7) // 8:
            raise ValueError("key byte length does not match key_bits")
        return _varint(self.reservation_id) + _varint(self.key_bits) + self.key_bytes

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "ConsumeOk":
        reservation_id = cursor.varint("reservation id")
        key_bits = cursor.varint("key bits")
        key_bytes = cursor.raw((key_bits + 7) // 8, "key material")
        return cls(
            request_id=request_id,
            reservation_id=reservation_id,
            key_bits=key_bits,
            key_bytes=key_bytes,
        )


@dataclass
class Release(Message):
    """Give a held reservation back without consuming it."""

    pair: Tuple[str, str] = ("", "")
    reservation_id: int = 0

    KIND = KIND_RELEASE

    def _payload(self, version: int) -> bytes:
        return _pair_bytes(self.pair) + _varint(self.reservation_id)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "Release":
        return cls(
            request_id=request_id,
            pair=cursor.pair(),
            reservation_id=cursor.varint("reservation id"),
        )


@dataclass
class ReleaseOk(Message):
    reservation_id: int = 0

    KIND = KIND_RELEASE_OK

    def _payload(self, version: int) -> bytes:
        return _varint(self.reservation_id)

    @classmethod
    def _decode(cls, cursor: _Cursor, request_id: int, version: int) -> "ReleaseOk":
        return cls(request_id=request_id, reservation_id=cursor.varint("reservation id"))


_DECODERS: Dict[int, Type[Message]] = {
    cls.KIND: cls
    for cls in (
        Hello,
        Welcome,
        Error,
        Status,
        StatusOk,
        Capabilities,
        CapabilitiesOk,
        Reserve,
        ReserveOk,
        Consume,
        ConsumeOk,
        Release,
        ReleaseOk,
        GetKey,
    )
}


# --------------------------------------------------------------------------- #
# Frame codec
# --------------------------------------------------------------------------- #


def encode_frame(message: Message, version: int) -> bytes:
    """One length-prefixed frame carrying ``message`` at ``version``."""
    body = message.encode(version)
    return _LENGTH_PREFIX.pack(len(body)) + body


def decode_body(body: bytes, expected_version: Optional[int]) -> Message:
    """Decode one frame body, enforcing kind, version and exact length.

    ``expected_version`` is the negotiated version; pass ``None`` during the
    handshake, where HELLO is pinned to the floor encoding and WELCOME's
    header byte *announces* the negotiated version.  Raises
    :class:`ProtocolError` on any violation.
    """
    if len(body) < _MIN_BODY:
        raise ProtocolError(ERR_MALFORMED, f"frame body of {len(body)} bytes has no header")
    kind, version = body[0], body[1]
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ProtocolError(ERR_UNKNOWN_KIND, f"unknown message kind 0x{kind:02x}")
    if decoder is Hello:
        if version != FLOOR_VERSION:
            raise ProtocolError(ERR_VERSION, f"HELLO must use the floor encoding, got v{version}")
    elif decoder is Welcome:
        if version not in SUPPORTED_VERSIONS:
            raise ProtocolError(ERR_VERSION, f"server chose unsupported v{version}")
    elif expected_version is not None:
        if version != expected_version:
            raise ProtocolError(ERR_VERSION, f"frame is v{version}, negotiated v{expected_version}")
    elif decoder is Error:
        # A fatal pre-negotiation rejection travels at the floor encoding.
        if version != FLOOR_VERSION:
            raise ProtocolError(ERR_VERSION, f"pre-negotiation ERROR must be v1, got v{version}")
    else:
        raise ProtocolError(ERR_VERSION, f"0x{kind:02x} before version negotiation completed")
    if len(body) < _HEADER.size:
        raise ProtocolError(ERR_MALFORMED, "frame truncated inside request id")
    request_id = _HEADER.unpack_from(body)[2]
    cursor = _Cursor(body, _HEADER.size)
    message = decoder._decode(cursor, request_id, version)
    cursor.expect_end(kind)
    # The header version the frame actually carried — how a connecting
    # client learns which version a WELCOME frame announces.
    message.wire_version = version
    return message


class FrameSplitter:
    """Cuts frame bodies out of a byte stream, however it was segmented.

    ``feed`` appends what the transport delivered; ``next_frame`` returns
    the next whole body, or ``None`` until one is buffered.  A length prefix
    is judged against ``_MIN_BODY`` and ``max_frame_bytes`` as soon as its
    four bytes are in, so an absurd one is refused without waiting for (or
    allocating) its body; the stream is then out of frame sync.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self.buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self.buffer += data

    def next_frame(self) -> Optional[bytes]:
        buffer = self.buffer
        if len(buffer) < _LENGTH_PREFIX.size:
            return None
        (length,) = _LENGTH_PREFIX.unpack_from(buffer)
        if length < _MIN_BODY:
            raise ProtocolError(ERR_MALFORMED, f"frame length {length} below header size")
        if length > self.max_frame_bytes:
            raise ProtocolError(
                ERR_OVERSIZED, f"frame length {length} exceeds cap {self.max_frame_bytes}"
            )
        end = _LENGTH_PREFIX.size + length
        if len(buffer) < end:
            return None
        body = bytes(buffer[_LENGTH_PREFIX.size : end])
        del buffer[:end]
        return body
