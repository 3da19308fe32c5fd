"""The netkms wire protocol: framing, message codecs, version negotiation.

Key delivery only becomes a *service* when the :class:`~repro.kms.store.KeyStore`
reserve/consume contract is reachable over a network API (the ETSI GS QKD 014
shape: a secure application entity asks its local KME for key against one peer
pair).  This module is the byte-level protocol both ends of
:mod:`repro.netkms` speak; the server and the client are in
:mod:`repro.netkms.server` and :mod:`repro.netkms.client`.

Framing
-------

Every message travels as one length-prefixed frame::

    <u32le body length> || body
    body[0] = kind      (one byte, in the 0x20..0x3F netkms range that
                         repro.core.wire reserves for this subsystem)
    body[1] = version   (the protocol version the body is encoded at)
    body[2:] = fixed little-endian header fields, then variable payload

Both ends cut frames out of the received bytes with :class:`FrameSplitter`,
which judges a length prefix against ``max_frame_bytes`` before any body
byte is waited for; every count inside a body is then validated against the
bytes that arrived before anything output-sized is allocated — the
hostile-input contract of :func:`repro.core.wire_arrays.decode_varints`.

Version negotiation
-------------------

This implementation speaks one version, v4 (:data:`SUPPORTED_VERSIONS`).
HELLO offers an inclusive ``[min_version, max_version]`` range, always at
header byte :data:`FLOOR_VERSION` (1) so any server can read any offer; the
server answers WELCOME at the highest supported version inside the range,
or refuses with a fatal ``ERR_VERSION`` ERROR, also at the floor byte, so a
client of an older generation can still decode why it was turned away.
Every later frame carries the negotiated version in its header byte and is
rejected otherwise.  STATUS_OK ends with ``depletion_rate_millibps``,
RESERVE_OK with ``lease_ms`` (the lease after which an unconsumed
reservation is reaped), and GET_KEY ``{pair, bits}`` is answered by
CONSUME_OK — a key in one round trip whose reservation is never held.

Every malformed input maps to a typed :class:`ProtocolError`; the codes in
:data:`FATAL_ERRORS` close the connection, request-level ones (unknown
pair, exhausted store, unknown reservation) leave it usable.  An ERROR
detail longer than a wire string's 255 bytes is cut on a character
boundary.

The codec is byte-for-byte the v4 layout above: each kind has its own
payload writer and offset reader, and ``tests/test_netkms_codec.py`` holds
it to the previous codec (``tests/oracles/netkms_codec.py``) bytes, errors
and frames alike.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple, Type

from repro.core.wire import WireDecodeError, encode_varint, read_varint

#: The header byte of HELLO and of an ERROR sent before a version was
#: agreed: v1's, which every generation of client and server reads.
FLOOR_VERSION = 1
PROTOCOL_V4 = 4
#: The protocol versions this implementation speaks: a one-version window.
SUPPORTED_VERSIONS = (PROTOCOL_V4,)

#: Message kinds, allocated inside the ``0x20..0x3F`` range that
#: :mod:`repro.core.wire` reserves for netkms.
KIND_HELLO = 0x20
KIND_WELCOME = 0x21
KIND_ERROR = 0x22
KIND_STATUS = 0x23
KIND_STATUS_OK = 0x24
KIND_CAPABILITIES = 0x25
KIND_CAPABILITIES_OK = 0x26
KIND_RESERVE = 0x27
KIND_RESERVE_OK = 0x28
KIND_CONSUME = 0x29
KIND_CONSUME_OK = 0x2A
KIND_RELEASE = 0x2B
KIND_RELEASE_OK = 0x2C
KIND_GET_KEY = 0x2D

#: Error codes carried by ERROR frames.
ERR_VERSION = 1
ERR_MALFORMED = 2
ERR_UNKNOWN_KIND = 3
ERR_OVERSIZED = 4
ERR_UNKNOWN_PAIR = 5
ERR_EXHAUSTED = 6
ERR_UNKNOWN_RESERVATION = 7
ERR_LIMIT = 8
ERR_INTERNAL = 9
ERR_SHUTTING_DOWN = 10

#: Codes after which the offending connection is closed (the stream can no
#: longer be trusted to be in frame sync, no version was ever agreed, or —
#: for SHUTTING_DOWN — the server is draining and will close momentarily).
FATAL_ERRORS = frozenset(
    {ERR_VERSION, ERR_MALFORMED, ERR_UNKNOWN_KIND, ERR_OVERSIZED, ERR_SHUTTING_DOWN}
)

ERROR_NAMES = {
    ERR_VERSION: "version-mismatch",
    ERR_MALFORMED: "malformed",
    ERR_UNKNOWN_KIND: "unknown-kind",
    ERR_OVERSIZED: "oversized-frame",
    ERR_UNKNOWN_PAIR: "unknown-pair",
    ERR_EXHAUSTED: "exhausted",
    ERR_UNKNOWN_RESERVATION: "unknown-reservation",
    ERR_LIMIT: "limit",
    ERR_INTERNAL: "internal",
    ERR_SHUTTING_DOWN: "shutting-down",
}

#: Default cap on one frame's body; chosen so the largest legitimate frame
#: (a CONSUME_OK carrying ``max_reserve_bits`` of key) fits with headroom
#: while a hostile length prefix can never force a large read.
MAX_FRAME_BYTES = 1 << 16

#: A frame body is at least the kind and version bytes.
_MIN_BODY = 2

_LENGTH_PREFIX = struct.Struct("<I")
#: kind, version, request id: the fixed head of every frame body.
_HEADER = struct.Struct("<BBI")
#: The length prefix and the header, packed in one call.
_FRAME_HEAD = struct.Struct("<IBBI")


class ProtocolError(Exception):
    """A typed netkms protocol violation (``code`` is one of the ``ERR_*``)."""

    def __init__(self, code: int, detail: str):
        super().__init__(f"{ERROR_NAMES.get(code, code)}: {detail}")
        self.code = code
        self.detail = detail

    @property
    def fatal(self) -> bool:
        return self.code in FATAL_ERRORS


class ServerError(Exception):
    """Raised client-side when the server answers a request with ERROR."""

    def __init__(self, code: int, detail: str):
        super().__init__(f"server error {ERROR_NAMES.get(code, code)}: {detail}")
        self.code = code
        self.detail = detail


def negotiate(client_min: int, client_max: int) -> Optional[int]:
    """The version a server picks for a client's offered range (None = none)."""
    usable = [v for v in SUPPORTED_VERSIONS if client_min <= v <= client_max]
    return max(usable) if usable else None


# --------------------------------------------------------------------------- #
# Body primitives
# --------------------------------------------------------------------------- #
#
# A reader takes ``(body, offset)`` and returns the value and the offset
# after it.  A read past the end raises ``IndexError`` or ``WireDecodeError``,
# which ``decode_body`` answers with ``ERR_MALFORMED``.


def _text(text: str) -> bytes:
    data = text.encode("utf-8")
    if len(data) > 255:
        raise ValueError("protocol strings are limited to 255 bytes")
    return encode_varint(len(data)) + data


def _read_text(body: bytes, offset: int, what: str) -> Tuple[str, int]:
    length, offset = read_varint(body, offset)
    if length > 255:
        raise ProtocolError(ERR_MALFORMED, f"{what} longer than 255 bytes")
    end = offset + length
    if end > len(body):
        raise ProtocolError(
            ERR_MALFORMED, f"{what} claims {length} bytes, {len(body) - offset} remain"
        )
    try:
        return body[offset:end].decode("utf-8"), end
    except UnicodeDecodeError:
        raise ProtocolError(ERR_MALFORMED, f"{what} is not valid UTF-8") from None


@lru_cache(maxsize=1024)
def _pair_bytes(pair: Tuple[str, str]) -> bytes:
    # Pair names are public identifiers, never key material, so caching
    # their encoding keeps nothing secret alive.
    return _text(pair[0]) + _text(pair[1])


#: A pair's bytes as they travel -> the pair: ``_pair_bytes`` read backwards,
#: on the same argument.  The oldest entry goes once ``_PAIR_CACHE_LIMIT``
#: are held, so a peer naming ever new pairs cannot grow it.
_PAIRS: Dict[bytes, Tuple[str, str]] = {}
_PAIR_CACHE_LIMIT = 1024


def _read_pair(body: bytes, offset: int) -> Tuple[Tuple[str, str], int]:
    second = offset + 1 + body[offset]
    if second < len(body):
        end = second + 1 + body[second]
        # Only whole, decoded pair encodings are cached, and an encoding
        # ends itself: a hit on an untruncated slice is that pair, whether
        # or not the length bytes were one-byte varints.
        if end <= len(body):
            pair = _PAIRS.get(body[offset:end])
            if pair is not None:
                return pair, end
    first, second = _read_text(body, offset, "pair[0]")
    last, end = _read_text(body, second, "pair[1]")
    if len(_PAIRS) >= _PAIR_CACHE_LIMIT:
        del _PAIRS[next(iter(_PAIRS))]
    pair = _PAIRS[body[offset:end]] = (first, last)
    return pair, end


# --------------------------------------------------------------------------- #
# Messages
# --------------------------------------------------------------------------- #
#
# ``_decode(body, offset, request_id)`` returns the message, built
# positionally in field order, and the offset where its payload ended.


@dataclass
class Message:
    """Base of every netkms message; ``request_id`` correlates pipelining."""

    request_id: int = 0

    KIND = 0  # overridden per subclass
    # Not a dataclass field (no annotation): set per-instance by
    # decode_body to the header version the frame actually carried.
    wire_version = None

    def _payload(self) -> bytes:
        return b""

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        return cls(request_id), offset


def _decode_pair_and_varint(cls, body: bytes, offset: int, request_id: int):
    """RESERVE's layout, shared by GET_KEY, CONSUME and RELEASE."""
    pair, offset = _read_pair(body, offset)
    value, offset = read_varint(body, offset)
    return cls(request_id, pair, value), offset


@dataclass
class Hello(Message):
    """Client opener: the inclusive version range it speaks, and its name."""

    min_version: int = SUPPORTED_VERSIONS[0]
    max_version: int = SUPPORTED_VERSIONS[-1]
    client_id: str = "sae"

    KIND = KIND_HELLO

    def _payload(self) -> bytes:
        return bytes([self.min_version, self.max_version]) + _text(self.client_id)

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        client_id, end = _read_text(body, offset + 2, "client id")
        msg = cls(request_id, body[offset], body[offset + 1], client_id)
        if msg.min_version > msg.max_version:
            raise ProtocolError(ERR_MALFORMED, "HELLO offers an empty version range")
        return msg, end


@dataclass
class Welcome(Message):
    """Server reply to HELLO; its header version *is* the negotiated one."""

    server_id: str = "kme"

    KIND = KIND_WELCOME

    def _payload(self) -> bytes:
        return _text(self.server_id)

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        server_id, end = _read_text(body, offset, "server id")
        return cls(request_id, server_id), end


@dataclass
class Error(Message):
    """A typed failure; ``request_id`` echoes the request (0 pre-negotiation).

    A detail longer than the wire's 255-byte strings (one quoting a long
    pair name, say) travels cut to 255 bytes on a character boundary.
    """

    code: int = ERR_INTERNAL
    detail: str = ""

    KIND = KIND_ERROR

    def _payload(self) -> bytes:
        detail = self.detail.encode("utf-8")[:255].decode("utf-8", "ignore")
        return bytes([self.code]) + _text(detail)

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        detail, end = _read_text(body, offset + 1, "error detail")
        return cls(request_id, body[offset], detail), end


@dataclass
class Status(Message):
    """Ask for one pair's store levels."""

    pair: Tuple[str, str] = ("", "")

    KIND = KIND_STATUS

    def _payload(self) -> bytes:
        return _pair_bytes(self.pair)

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        pair, end = _read_pair(body, offset)
        return cls(request_id, pair), end


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

    def _payload(self) -> bytes:
        out = _pair_bytes(self.pair)
        for value in (
            self.available_bits,
            self.reserved_bits,
            self.unreserved_bits,
            self.low_water_bits,
            self.high_water_bits,
            self.capacity_bits,
            self.depletion_rate_millibps,
        ):
            out += encode_varint(value)
        return out

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        pair, offset = _read_pair(body, offset)
        levels = []
        for _ in range(7):
            level, offset = read_varint(body, offset)
            levels.append(level)
        return cls(request_id, pair, *levels), offset


@dataclass
class Capabilities(Message):
    """Ask what the server speaks and serves."""

    KIND = KIND_CAPABILITIES


@dataclass
class CapabilitiesOk(Message):
    """Server limits plus the sorted list of pairs it serves."""

    min_version: int = SUPPORTED_VERSIONS[0]
    max_version: int = SUPPORTED_VERSIONS[-1]
    max_frame_bytes: int = MAX_FRAME_BYTES
    max_reserve_bits: int = 0
    pairs: Tuple[Tuple[str, str], ...] = ()

    KIND = KIND_CAPABILITIES_OK

    def _payload(self) -> bytes:
        out = bytes([self.min_version, self.max_version])
        out += encode_varint(self.max_frame_bytes)
        out += encode_varint(self.max_reserve_bits)
        out += encode_varint(len(self.pairs))
        for pair in self.pairs:
            out += _pair_bytes(pair)
        return out

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        min_version, max_version = body[offset], body[offset + 1]
        max_frame, offset = read_varint(body, offset + 2)
        max_reserve, offset = read_varint(body, offset)
        n_pairs, offset = read_varint(body, offset)
        # Each pair needs at least two length bytes; reject the count from
        # the bytes present before building anything pair-count sized.
        if n_pairs > (len(body) - offset) // 2:
            raise ProtocolError(
                ERR_MALFORMED,
                f"pair count {n_pairs} exceeds what {len(body) - offset} bytes can hold",
            )
        pairs = []
        for _ in range(n_pairs):
            pair, offset = _read_pair(body, offset)
            pairs.append(pair)
        return cls(request_id, min_version, max_version, max_frame, max_reserve, tuple(pairs)), offset


@dataclass
class Reserve(Message):
    """Claim ``bits`` bits of one pair's store for an upcoming consume."""

    pair: Tuple[str, str] = ("", "")
    bits: int = 0

    KIND = KIND_RESERVE

    def _payload(self) -> bytes:
        return _pair_bytes(self.pair) + encode_varint(self.bits)

    _decode = classmethod(_decode_pair_and_varint)


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
    milliseconds.  A reservation that is neither consumed nor released
    within its lease is reaped server-side and its bits returned to the
    store.
    """

    reservation_id: int = 0
    bits: int = 0
    lease_ms: int = 0

    KIND = KIND_RESERVE_OK

    def _payload(self) -> bytes:
        return (
            encode_varint(self.reservation_id)
            + encode_varint(self.bits)
            + encode_varint(self.lease_ms)
        )

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        reservation_id, offset = read_varint(body, offset)
        bits, offset = read_varint(body, offset)
        lease_ms, offset = read_varint(body, offset)
        return cls(request_id, reservation_id, bits, lease_ms), offset


@dataclass
class Consume(Message):
    """Draw a held reservation's key material."""

    pair: Tuple[str, str] = ("", "")
    reservation_id: int = 0

    KIND = KIND_CONSUME

    def _payload(self) -> bytes:
        return _pair_bytes(self.pair) + encode_varint(self.reservation_id)

    _decode = classmethod(_decode_pair_and_varint)


@dataclass
class ConsumeOk(Message):
    """The served key: ``key_bits`` bits packed MSB-first into ``key_bytes``."""

    reservation_id: int = 0
    key_bits: int = 0
    key_bytes: bytes = b""

    KIND = KIND_CONSUME_OK

    def _payload(self) -> bytes:
        if len(self.key_bytes) != (self.key_bits + 7) // 8:
            raise ValueError("key byte length does not match key_bits")
        return encode_varint(self.reservation_id) + encode_varint(self.key_bits) + self.key_bytes

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        reservation_id, offset = read_varint(body, offset)
        key_bits, offset = read_varint(body, offset)
        end = offset + (key_bits + 7) // 8  # past the body: decode_body refuses it
        return cls(request_id, reservation_id, key_bits, body[offset:end]), end


@dataclass
class Release(Message):
    """Give a held reservation back without consuming it."""

    pair: Tuple[str, str] = ("", "")
    reservation_id: int = 0

    KIND = KIND_RELEASE

    def _payload(self) -> bytes:
        return _pair_bytes(self.pair) + encode_varint(self.reservation_id)

    _decode = classmethod(_decode_pair_and_varint)


@dataclass
class ReleaseOk(Message):
    reservation_id: int = 0

    KIND = KIND_RELEASE_OK

    def _payload(self) -> bytes:
        return encode_varint(self.reservation_id)

    @classmethod
    def _decode(cls, body: bytes, offset: int, request_id: int):
        reservation_id, offset = read_varint(body, offset)
        return cls(request_id, reservation_id), offset


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

#: The kinds whose header byte must carry the negotiated version: all but
#: the two handshake kinds.
_NEGOTIATED = {kind: cls for kind, cls in _DECODERS.items() if cls not in (Hello, Welcome)}


# --------------------------------------------------------------------------- #
# Frame codec
# --------------------------------------------------------------------------- #


def encode_frame(message: Message, version: int) -> bytes:
    """One length-prefixed frame carrying ``message`` at ``version``
    (HELLO always at the floor byte)."""
    payload = message._payload()
    if message.KIND == KIND_HELLO:
        version = FLOOR_VERSION
    try:
        head = _FRAME_HEAD.pack(
            _HEADER.size + len(payload), message.KIND, version, message.request_id
        )
    except struct.error:
        raise ValueError(
            f"request id {message.request_id} or v{version} outside its header field"
        ) from None
    return head + payload


def decode_body(body: bytes, expected_version: Optional[int]) -> Message:
    """Decode one frame body, enforcing kind, version and exact length.

    ``expected_version`` is the negotiated version; pass ``None`` during the
    handshake, where HELLO is pinned to the floor byte and WELCOME's
    header byte *announces* the negotiated version.  Raises
    :class:`ProtocolError` on any violation.
    """
    decoder = None
    if len(body) >= _HEADER.size:
        # The common case: a whole header at the negotiated version, of a
        # kind that is not a handshake kind.
        kind, version, request_id = _HEADER.unpack_from(body)
        if version == expected_version:
            decoder = _NEGOTIATED.get(kind)
    if decoder is None:
        decoder = _checked_decoder(body, expected_version)
        kind, version, request_id = _HEADER.unpack_from(body)
    try:
        message, end = decoder._decode(body, _HEADER.size, request_id)
    except IndexError:
        raise ProtocolError(ERR_MALFORMED, f"{decoder.__name__} truncated") from None
    except WireDecodeError as exc:
        raise ProtocolError(ERR_MALFORMED, f"{decoder.__name__}: {exc}") from None
    if end != len(body):
        raise ProtocolError(
            ERR_MALFORMED, f"{decoder.__name__} ends at byte {end} of a {len(body)}-byte body"
        )
    # The header version the frame actually carried — how a connecting
    # client learns which version a WELCOME frame announces.
    message.wire_version = version
    return message


def _checked_decoder(body: bytes, expected_version: Optional[int]) -> Type[Message]:
    """The decoder for a frame off the common path, once its header passed
    every check, in this order; the first that fails is raised."""
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
        # A fatal pre-negotiation rejection travels at the floor byte.
        if version != FLOOR_VERSION:
            raise ProtocolError(ERR_VERSION, f"pre-negotiation ERROR must be v1, got v{version}")
    else:
        raise ProtocolError(ERR_VERSION, f"0x{kind:02x} before version negotiation completed")
    if len(body) < _HEADER.size:
        raise ProtocolError(ERR_MALFORMED, "frame truncated inside request id")
    return decoder


class FrameSplitter:
    """Cuts frame bodies out of a byte stream, however it was segmented.

    ``feed`` appends what the transport delivered; ``next_frame`` returns
    the next whole body, or ``None`` until one is buffered.  A length prefix
    is judged against ``_MIN_BODY`` and ``max_frame_bytes`` as soon as its
    four bytes are in, so an absurd one is refused without waiting for (or
    allocating) its body; the stream is then out of frame sync.

    A segment fed while nothing is buffered is cut in place; only what is
    left of it once no whole frame remains is copied into ``buffer``, which
    therefore holds every unread byte whenever ``next_frame`` has returned
    ``None`` or raised.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self.buffer = bytearray()
        #: The segment being cut in place, and where its unread bytes start.
        self._segment = b""
        self._offset = 0

    def feed(self, data: bytes) -> None:
        if self._segment:
            self._spill()
        if self.buffer or type(data) is not bytes:
            self.buffer += data
        else:
            self._segment, self._offset = data, 0

    def _spill(self) -> None:
        self.buffer += memoryview(self._segment)[self._offset :]
        self._segment = b""

    def next_frame(self) -> Optional[bytes]:
        segment = self._segment
        if segment:
            start = self._offset + _LENGTH_PREFIX.size
            if start <= len(segment):
                (length,) = _LENGTH_PREFIX.unpack_from(segment, self._offset)
                end = start + length
                if _MIN_BODY <= length <= self.max_frame_bytes and end <= len(segment):
                    self._offset = end
                    if end == len(segment):
                        self._segment = b""
                    return segment[start:end]
            self._spill()
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
