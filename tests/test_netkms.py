"""Tests for the networked key-delivery front end (repro.netkms).

Four layers of contract:

* the message codec round-trips every kind, and rejects malformed bodies
  with typed errors before any output-sized allocation;
* the version window is {4}: a HELLO whose range holds 4 gets v4, any
  other offer a fatal ERROR at the floor header byte that a client of an
  older generation can still decode, and a client refuses a WELCOME at any
  version but 4;
* hostile frames (truncated header, absurd length prefix, unknown version,
  unknown kind) each close the connection with a typed protocol error and
  leave the server serving other clients;
* concurrent clients hammering one pair's store never receive overlapping
  key material — the reservation contract, proven end to end.
"""

import asyncio
import gc
import hashlib
import itertools
import socket
import struct
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.core.keypool import KeyBlock
from repro.kms.service import percentile
from repro.kms.store import KeyStore
from repro.netkms import protocol
from repro.netkms import server as server_module
from repro.netkms.client import (
    NetworkKmsClient,
    ReservationHandle,
    _request_ids,
    open_connection,
)
from repro.netkms.protocol import (
    Capabilities,
    CapabilitiesOk,
    Consume,
    ConsumeOk,
    Error,
    GetKey,
    Hello,
    ProtocolError,
    Release,
    ReleaseOk,
    Reserve,
    ReserveOk,
    ServerError,
    Status,
    StatusOk,
    Welcome,
    decode_body,
    encode_frame,
)
from repro.netkms.metrics import LatencyHistogram, NetKmsMetrics
from repro.netkms.server import (
    LEASE_SECONDS,
    MAX_RESERVE_BITS,
    REPLAY_CACHE_LIMIT,
    NetworkKmsServer,
    ServedReservation,
)
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG
from tests.faults import DELAY, SITE_CLIENT_RX, FaultAction, FaultyConnector
from tests.oracles.full_scan_reaper import full_scan_reap_expired, reap_at
from tests.test_faults import ScriptedPlane
from tests.test_netkms_codec import frame_body
from tests.virtual_loop import run_virtual

PAIR = ("alice", "bob")


def run(coro):
    """Drive one async test body (no pytest-asyncio dependency)."""
    return asyncio.run(coro)


def counter_material(bits, first=0):
    """Key material where every 64-bit word is a unique counter.

    Served chunks drawn from a store filled with this can be checked for
    overlap exactly: a counter appearing in two chunks would mean two
    clients received the same key bits.
    """
    return BitString.from_bytes(
        b"".join(struct.pack(">Q", i) for i in range(first, first + bits // 64))
    )


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def make_store(bits=1 << 15, **kwargs):
    kwargs.setdefault("capacity_bits", max(bits, 1 << 20))
    store = KeyStore(PAIR, **kwargs)
    store.deposit(counter_material(bits))
    return store


async def started_server(stores=None, **kwargs):
    server = NetworkKmsServer(stores or {PAIR: make_store()}, port=0, **kwargs)
    await server.start()
    return server


async def release(client, handle):
    """RELEASE a held reservation over ``client``'s connection.  No shipped
    client sends one; the server's RELEASE handler is what is under test."""
    reply = await client._request(Release(pair=handle.pair, reservation_id=handle.reservation_id))
    return client._expect(reply, ReleaseOk).reservation_id


async def read_frame(reader, max_frame_bytes=protocol.MAX_FRAME_BYTES):
    """One frame body off a plain stream, with the splitter's prefix checks:
    the raw-socket side of these tests, which reads what the server wrote
    one frame at a time."""
    prefix = await reader.readexactly(4)
    frames = protocol.FrameSplitter(max_frame_bytes)
    frames.feed(prefix)
    frames.next_frame()  # refuses a bad prefix before the body is read
    frames.feed(await reader.readexactly(struct.unpack("<I", prefix)[0]))
    return frames.next_frame()


async def raw_connection(server, hello=None):
    """A handshaken plain stream: the frames the server writes are read
    as they are, with no client reader task between them and the test."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(encode_frame(hello or Hello(), protocol.FLOOR_VERSION))
    await writer.drain()
    welcome = decode_body(await read_frame(reader), expected_version=None)
    assert isinstance(welcome, Welcome)
    return reader, writer, welcome.wire_version


async def until(condition, seconds=2.0):
    """Wait until ``condition()`` holds, for at most ``seconds``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    while not condition():
        assert loop.time() < deadline, "timed out waiting for the server"
        await asyncio.sleep(0.001)


#: A GET_KEY of the largest size: a 4 KiB reply.
KEY_BITS = MAX_RESERVE_BITS


class SlowReader:
    """A raw connection that stops reading after its handshake, with both
    sockets' buffers small, and the server's end of it (``connection``).

    :meth:`ask` sends one request and waits until the server has answered
    it.  :meth:`pause` has the server answer 4 KiB GET_KEYs until its socket
    is full, sets the write buffer's high-water mark at what that buffer
    then holds, and sends one more GET_KEY with the frames ``behind`` in one
    segment: its reply pauses the server's end, and the frames behind wait
    there unanswered until the reader reads again (:meth:`resume`).
    """

    def __init__(self, server, reader, writer, version):
        self.server, self.reader, self.writer, self.version = server, reader, writer, version
        self.connection = server._connections[max(server._connections)]
        self.connection.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
        )
        writer.transport.pause_reading()
        self.ids = itertools.count(1)
        #: The request ids of the GET_KEYs :meth:`pause` had answered.
        self.keys = []

    @classmethod
    async def connect(cls, server):
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", server.port))
        reader, writer = await asyncio.open_connection(sock=sock)
        writer.write(encode_frame(Hello(), protocol.FLOOR_VERSION))
        version = decode_body(await read_frame(reader), None).wire_version
        return cls(server, reader, writer, version)

    def _send(self, *messages):
        for message in messages:
            message.request_id = next(self.ids)
        self.writer.write(b"".join(encode_frame(message, self.version) for message in messages))

    def _answered(self):
        return sum(self.server.metrics.requests_by_kind.values())

    async def ask(self, message):
        answered = self._answered() + 1
        self._send(message)
        await until(lambda: self._answered() == answered)

    async def pause(self, *behind):
        transport = self.connection.transport
        while not transport.get_write_buffer_size():
            assert len(self.keys) < 16, "the server's socket never filled"
            key = GetKey(pair=PAIR, bits=KEY_BITS)
            await self.ask(key)
            self.keys.append(key.request_id)
        transport.set_write_buffer_limits(high=transport.get_write_buffer_size())
        key = GetKey(pair=PAIR, bits=KEY_BITS)
        self._send(key, *behind)
        self.keys.append(key.request_id)
        await until(lambda: self.connection.write_paused)

    def resume(self):
        self.writer.transport.resume_reading()

    async def replies(self, count):
        bodies = [await asyncio.wait_for(read_frame(self.reader), 2.0) for _ in range(count)]
        return [decode_body(body, self.version) for body in bodies]

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


# --------------------------------------------------------------------------- #
# Codec round-trips
# --------------------------------------------------------------------------- #


class TestCodecRoundTrips:
    MESSAGES = [
        Hello(min_version=1, max_version=2, client_id="sae-7"),
        Welcome(server_id="kme-1"),
        Error(request_id=9, code=protocol.ERR_EXHAUSTED, detail="dry"),
        Status(request_id=3, pair=PAIR),
        StatusOk(
            request_id=3,
            pair=PAIR,
            available_bits=1000,
            reserved_bits=128,
            unreserved_bits=872,
            low_water_bits=100,
            high_water_bits=500,
            capacity_bits=2000,
            depletion_rate_millibps=12345,
        ),
        Capabilities(request_id=4),
        CapabilitiesOk(
            request_id=4,
            min_version=1,
            max_version=2,
            max_frame_bytes=1 << 16,
            max_reserve_bits=1 << 15,
            pairs=(PAIR, ("carol", "dave")),
        ),
        Reserve(request_id=5, pair=PAIR, bits=1024),
        ReserveOk(request_id=5, reservation_id=17, bits=1024, lease_ms=30_000),
        Consume(request_id=6, pair=PAIR, reservation_id=17),
        ConsumeOk(request_id=6, reservation_id=17, key_bits=24, key_bytes=b"abc"),
        Release(request_id=7, pair=PAIR, reservation_id=18),
        ReleaseOk(request_id=7, reservation_id=18),
        GetKey(request_id=8, pair=PAIR, bits=256),
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_round_trip(self, message):
        body = frame_body(message, protocol.PROTOCOL_V4)
        expected = None if isinstance(message, (Hello, Welcome)) else protocol.PROTOCOL_V4
        assert decode_body(body, expected_version=expected) == message

    def test_kinds_live_inside_the_reserved_wire_range(self):
        for message in self.MESSAGES:
            assert wire.KIND_NETKMS_FIRST <= message.KIND <= wire.KIND_NETKMS_LAST

    def test_frame_prefix_matches_body_length(self):
        frame = encode_frame(Status(pair=PAIR), protocol.PROTOCOL_V4)
        (length,) = struct.unpack("<I", frame[:4])
        assert length == len(frame) - 4

    def test_hello_always_encodes_at_the_floor_version(self):
        body = frame_body(Hello(min_version=2, max_version=2), protocol.PROTOCOL_V4)
        assert body[1] == protocol.FLOOR_VERSION

    def test_a_string_past_255_bytes_is_refused_at_encode(self):
        """The limit is on UTF-8 bytes: 127 two-byte characters and one
        more ASCII byte travel, 128 two-byte characters do not."""
        longest = Hello(client_id="é" * 127 + "x")
        body = frame_body(longest, protocol.FLOOR_VERSION)
        assert decode_body(body, expected_version=None) == longest
        with pytest.raises(ValueError, match="255 bytes"):
            encode_frame(Hello(client_id="é" * 128), protocol.FLOOR_VERSION)


class TestMalformedBodies:
    def decode_error(self, body, expected_version=protocol.PROTOCOL_V4):
        with pytest.raises(ProtocolError) as excinfo:
            decode_body(body, expected_version=expected_version)
        return excinfo.value

    def test_empty_and_headerless_bodies(self):
        for body in (b"", b"\x23"):
            assert self.decode_error(body).code == protocol.ERR_MALFORMED

    def test_unknown_kind(self):
        body = bytes([0x3F, 1]) + b"\x00" * 4
        assert self.decode_error(body).code == protocol.ERR_UNKNOWN_KIND

    def test_version_mismatch(self):
        body = frame_body(Status(pair=PAIR), 3)
        assert self.decode_error(body).code == protocol.ERR_VERSION

    def test_truncated_inside_request_id(self):
        body = bytes([protocol.KIND_STATUS, 4, 0, 0])
        assert self.decode_error(body).code == protocol.ERR_MALFORMED

    def test_string_length_exceeding_payload(self):
        body = bytes([protocol.KIND_STATUS, 4]) + b"\x00" * 4 + bytes([200]) + b"ab"
        error = self.decode_error(body)
        assert error.code == protocol.ERR_MALFORMED
        assert "pair[0]" in error.detail

    def test_trailing_garbage_rejected(self):
        body = frame_body(Status(pair=PAIR), 4) + b"\x00"
        assert self.decode_error(body).code == protocol.ERR_MALFORMED

    def test_varint_overflow_and_overlength(self):
        prefix = bytes([protocol.KIND_RESERVE, 4]) + b"\x00" * 4 + b"\x00\x00"
        overlong = prefix + b"\xff" * 10 + b"\x01"
        assert self.decode_error(overlong).code == protocol.ERR_MALFORMED
        overflow = prefix + b"\xff" * 9 + b"\x7f"
        assert self.decode_error(overflow).code == protocol.ERR_MALFORMED

    def test_capabilities_pair_count_validated_against_payload(self):
        body = bytes([protocol.KIND_CAPABILITIES_OK, 4]) + b"\x00" * 4
        body += bytes([1, 2]) + b"\x10" + b"\x10" + bytes([255, 255, 3])
        error = self.decode_error(body)
        assert error.code == protocol.ERR_MALFORMED
        assert "pair count" in error.detail

    def test_hello_with_empty_version_range(self):
        body = frame_body(Hello(min_version=2, max_version=2))
        mutated = bytearray(body)
        mutated[6] = 3  # min > max
        assert self.decode_error(bytes(mutated), None).code == protocol.ERR_MALFORMED

    def test_consume_ok_key_bytes_validated(self):
        with pytest.raises(ValueError):
            frame_body(ConsumeOk(key_bits=16, key_bytes=b"abc"), 4)

    def test_get_key_truncated_anywhere_or_one_byte_long_is_malformed(self):
        body = frame_body(GetKey(request_id=5, pair=PAIR, bits=1 << 14), protocol.PROTOCOL_V4)
        assert decode_body(body, expected_version=4) == GetKey(request_id=5, pair=PAIR, bits=1 << 14)
        for cut in range(len(body)):
            assert self.decode_error(body[:cut], 4).code == protocol.ERR_MALFORMED, cut
        assert self.decode_error(body + b"\x00", 4).code == protocol.ERR_MALFORMED

    def test_hello_and_capabilities_ok_offer_v4_alone_unless_told_otherwise(self):
        assert protocol.SUPPORTED_VERSIONS == (protocol.PROTOCOL_V4,)
        for message in (Hello(), CapabilitiesOk()):
            assert (message.min_version, message.max_version) == (4, 4)


# --------------------------------------------------------------------------- #
# The version window over real connections
# --------------------------------------------------------------------------- #


class TestVersionWindow:
    def test_a_v4_round_trip_carries_the_depletion_rate_and_the_lease(self):
        """Client and server agree on v4; STATUS_OK carries the store's
        depletion rate, RESERVE_OK the lease, and a key is one GET_KEY."""

        async def scenario():
            store = make_store()
            server = await started_server({PAIR: store})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    key = await client.get_key(PAIR, bits=256)
                    asyncio.get_running_loop().advance(10.0)
                    await client.get_key(PAIR, bits=256)  # a second draw sets a rate
                    status = await client.status(PAIR)
                    handle = await client.reserve(PAIR, bits=64)
                    await release(client, handle)
                    rate = int(store.depletion_rate_bps * 1000)
                    return client.version, key, status, rate, handle, server.metrics.report()
            finally:
                await server.stop()

        version, key, status, rate, handle, report = run_virtual(scenario())
        assert version == protocol.PROTOCOL_V4
        assert (key.key_bits, key.key_bytes) == (256, counter_material(256).to_bytes())
        assert status.depletion_rate_millibps == rate > 0
        assert handle.lease_ms == 1000 * LEASE_SECONDS
        assert report.requests_by_kind == {"GetKey": 2, "Status": 1, "Reserve": 1, "Release": 1}
        assert report.keys_served == 2 and not report.protocol_errors

    #: Every offer inside [1, 6], and two that reach past it.
    OFFERS = [(low, high) for low in range(1, 7) for high in range(low, 7)] + [(2, 9), (5, 9)]

    @pytest.mark.parametrize("low, high", [o for o in OFFERS if o[0] <= 4 <= o[1]])
    def test_any_offer_that_holds_v4_gets_v4(self, low, high):
        async def scenario():
            server = await started_server()
            try:
                hello = Hello(min_version=low, max_version=high)
                _reader, writer, version = await raw_connection(server, hello)
                writer.close()
                await writer.wait_closed()
                return version
            finally:
                await server.stop()

        assert run(scenario()) == protocol.PROTOCOL_V4

    @pytest.mark.parametrize("low, high", [o for o in OFFERS if not o[0] <= 4 <= o[1]])
    def test_an_offer_without_v4_gets_a_fatal_mismatch_at_the_floor_byte(self, low, high):
        """A client of an older generation reads the refusal: the ERROR
        travels at header byte 1, the one every generation decodes."""

        async def scenario():
            server = await started_server()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                hello = Hello(min_version=low, max_version=high)
                writer.write(encode_frame(hello, protocol.FLOOR_VERSION))
                await writer.drain()
                body = await read_frame(reader)
                rest = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                await writer.wait_closed()
                return body, rest, server.metrics.report()
            finally:
                await server.stop()

        body, rest, report = run(scenario())
        assert body[1] == protocol.FLOOR_VERSION
        error = decode_body(body, expected_version=None)
        assert isinstance(error, Error)
        assert (error.request_id, error.code) == (0, protocol.ERR_VERSION)
        assert rest == b""  # fatal: the server closed the connection
        assert report.protocol_errors == {"version-mismatch": 1}
        assert report.requests_by_kind == {}

    @pytest.mark.parametrize("announced", [0, 1, 2, 3, 5, 6, 255])
    def test_a_client_refuses_a_welcome_at_any_other_version(self, announced):
        async def welcome_at(reader, writer):
            await read_frame(reader)  # HELLO
            writer.write(encode_frame(Welcome(server_id="old"), announced))
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()

        async def scenario():
            stub = await asyncio.start_server(welcome_at, host="127.0.0.1", port=0)
            client = NetworkKmsClient("127.0.0.1", stub.sockets[0].getsockname()[1])
            try:
                with pytest.raises(ProtocolError) as excinfo:
                    await client.connect()
                return excinfo.value, client.connected, client.version, client._connection
            finally:
                stub.close()
                await stub.wait_closed()

        error, connected, version, connection = run(scenario())
        assert error.code == protocol.ERR_VERSION
        assert not connected and version is None and connection is None


# --------------------------------------------------------------------------- #
# Hostile frames against a live server
# --------------------------------------------------------------------------- #


class TestHostileFrames:
    def raw_exchange(self, payload, handshake_first=False):
        """Write raw bytes at a live server; return (error, eof, server_ok).

        ``error`` is the decoded ERROR frame the server answered with (None
        when it closed without one), ``eof`` is whether the connection was
        closed, and ``server_ok`` is whether a well-behaved client still
        gets service afterwards — the no-exception-leak check.
        """

        async def scenario():
            server = await started_server()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                if handshake_first:
                    writer.write(encode_frame(Hello(), protocol.FLOOR_VERSION))
                    await writer.drain()
                    await read_frame(reader)  # WELCOME
                writer.write(payload)
                await writer.drain()
                writer.write_eof()
                error = None
                # Pre-negotiation rejections travel at the floor byte; after
                # a handshake the server answers at the negotiated version.
                error_version = protocol.PROTOCOL_V4 if handshake_first else None
                try:
                    body = await asyncio.wait_for(read_frame(reader), 2.0)
                    decoded = decode_body(body, expected_version=error_version)
                    error = decoded if isinstance(decoded, Error) else None
                except (asyncio.IncompleteReadError, ProtocolError):
                    pass
                eof = await asyncio.wait_for(reader.read(), 2.0) == b""
                writer.close()
                await writer.wait_closed()

                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    follow_up = await client.status(PAIR)
                return error, eof, follow_up.available_bits > 0
            finally:
                await server.stop()

        return run(scenario())

    def test_truncated_header_closes_quietly(self):
        error, eof, server_ok = self.raw_exchange(b"\x02\x00")
        assert error is None and eof and server_ok

    def test_absurd_length_prefix_rejected_before_allocation(self):
        error, eof, server_ok = self.raw_exchange(struct.pack("<I", 0xFFFFFFF0))
        assert error is not None and error.code == protocol.ERR_OVERSIZED
        assert eof and server_ok

    def test_unknown_version_rejected(self):
        body = frame_body(Status(pair=PAIR), 4)
        mutated = bytearray(body)
        mutated[1] = 9
        frame = struct.pack("<I", len(mutated)) + bytes(mutated)
        error, eof, server_ok = self.raw_exchange(frame, handshake_first=True)
        assert error is not None and error.code == protocol.ERR_VERSION
        assert eof and server_ok

    @pytest.mark.parametrize("header_byte", [1, 2, 3])
    @pytest.mark.parametrize(
        "message",
        [
            Status(request_id=5, pair=PAIR),
            Capabilities(request_id=5),
            Reserve(request_id=5, pair=PAIR, bits=64),
            Consume(request_id=5, pair=PAIR, reservation_id=1),
            Release(request_id=5, pair=PAIR, reservation_id=1),
            GetKey(request_id=5, pair=PAIR, bits=64),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_a_request_at_a_pre_v4_byte_after_the_handshake_is_fatal(self, message, header_byte):
        frame = encode_frame(message, header_byte)
        error, eof, server_ok = self.raw_exchange(frame, handshake_first=True)
        assert error is not None and error.code == protocol.ERR_VERSION
        assert eof and server_ok

    def test_unknown_kind_rejected(self):
        body = bytes([0x3E, protocol.PROTOCOL_V4]) + b"\x00" * 4
        frame = struct.pack("<I", len(body)) + body
        error, eof, server_ok = self.raw_exchange(frame, handshake_first=True)
        assert error is not None and error.code == protocol.ERR_UNKNOWN_KIND
        assert eof and server_ok

    def test_unsupported_hello_range_rejected(self):
        frame = encode_frame(Hello(min_version=9, max_version=12), 1)
        error, eof, server_ok = self.raw_exchange(frame)
        assert error is not None and error.code == protocol.ERR_VERSION
        assert eof and server_ok

    def test_get_key_with_a_missing_tail_a_trailing_byte_or_a_lying_length_is_fatal(self):
        body = frame_body(GetKey(request_id=9, pair=PAIR, bits=256), protocol.PROTOCOL_V4)
        lying = body[:6] + bytes([250]) + b"ab"  # pair[0] claims 250 bytes
        for hostile in (body[:-1], body + b"\x00", lying):
            frame = struct.pack("<I", len(hostile)) + hostile
            error, eof, server_ok = self.raw_exchange(frame, handshake_first=True)
            assert error is not None
            assert (error.request_id, error.code) == (9, protocol.ERR_MALFORMED)
            assert eof and server_ok

    def test_get_key_refusals_are_typed_move_nothing_and_keep_the_connection(self):
        async def scenario():
            store = make_store(bits=1024)
            server = await started_server({PAIR: store})
            refused = [
                (PAIR, 0),
                (PAIR, server.max_reserve_bits + 1),
                (("nobody", "here"), 256),
                (PAIR, 1025),
            ]
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    assert client.version == protocol.PROTOCOL_V4
                    codes = []
                    for pair, bits in refused:
                        with pytest.raises(ServerError) as excinfo:
                            await client.get_key(pair, bits)
                        codes.append(excinfo.value.code)
                        assert store.unreserved_bits == store.available_bits == 1024
                    key = await client.get_key(PAIR, 1024)
                    errors = dict(server.metrics.error_counts)
                    return codes, key, store, server.metrics, errors, dict(server._held)
            finally:
                await server.stop()

        codes, key, store, metrics, errors, held = run(scenario())
        assert codes == [
            protocol.ERR_LIMIT,
            protocol.ERR_LIMIT,
            protocol.ERR_UNKNOWN_PAIR,
            protocol.ERR_EXHAUSTED,
        ]
        assert key.key_bits == 1024 and store.available_bits == 0
        assert metrics.reservations_denied == store.statistics.reservations_denied == 1
        assert metrics.reservations_granted == metrics.keys_served == 1
        assert metrics.requests_by_kind == {"GetKey": 5}
        assert errors == {protocol.ERR_LIMIT: 2, protocol.ERR_UNKNOWN_PAIR: 1, protocol.ERR_EXHAUSTED: 1}
        assert held == {}

    def test_request_level_errors_keep_the_connection(self):
        async def scenario():
            server = await started_server()
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServerError) as unknown_pair:
                        await client.status(("nobody", "here"))
                    with pytest.raises(ServerError) as over_limit:
                        await client.reserve(PAIR, server.max_reserve_bits + 1)
                    # Same connection still serves.
                    key = await client.get_key(PAIR, bits=128)
                    return unknown_pair.value, over_limit.value, key
            finally:
                await server.stop()

        unknown_pair, over_limit, key = run(scenario())
        assert unknown_pair.code == protocol.ERR_UNKNOWN_PAIR
        assert over_limit.code == protocol.ERR_LIMIT
        assert key.key_bits == 128

    def test_an_error_detail_past_the_wire_limit_is_cut_and_keeps_the_connection(self):
        """The detail of an unknown pair quotes both 200-byte names: it
        travels cut to 255 bytes, as a typed request error, on a connection
        that goes on serving."""
        long_pair = ("x" * 200, "y" * 200)

        async def scenario():
            store = KeyStore(long_pair, capacity_bits=1 << 20)
            store.deposit(counter_material(1024))
            server = await started_server({PAIR: make_store(), long_pair: store})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServerError) as unknown_pair:
                        await client.status(("x" * 200, "z" * 200))
                    with pytest.raises(ServerError) as exhausted:
                        await client.get_key(long_pair, bits=2048)
                    connected = client.connected
                    key = await client.get_key(PAIR, bits=128)
                    fatal = server.metrics.fatal_errors
                    return unknown_pair.value, exhausted.value, connected, key, fatal
            finally:
                await server.stop()

        unknown_pair, exhausted, connected, key, fatal = run(scenario())
        assert unknown_pair.code == protocol.ERR_UNKNOWN_PAIR
        assert len(unknown_pair.detail.encode()) == 255
        assert unknown_pair.detail.startswith("no store for pair xxx")
        assert exhausted.code == protocol.ERR_EXHAUSTED
        assert connected and key.key_bits == 128
        assert fatal == 0


# --------------------------------------------------------------------------- #
# Store semantics over the wire
# --------------------------------------------------------------------------- #


class TestStoreSemantics:
    def test_reserve_consume_release_cycle(self):
        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    first = await client.reserve(PAIR, 1024)
                    second = await client.reserve(PAIR, 1024)
                    assert store.reserved_bits == 2048
                    await release(client, second)
                    assert store.reserved_bits == 1024
                    served = await client.consume(first)
                    assert store.reserved_bits == 0
                    # A re-issued CONSUME is idempotent: the replay cache
                    # re-delivers the identical bytes (drawn exactly once).
                    replayed = await client.consume(first)
                    return served, replayed, store, server.metrics
            finally:
                await server.stop()

        served, replayed, store, metrics = run(scenario())
        assert served.key_bits == 1024
        assert replayed.key_bytes == served.key_bytes
        assert metrics.keys_served == 1 and metrics.consume_replays == 1
        assert store.available_bits == 4096 - 1024
        # Both pools advanced in lock-step; the store stays synchronised.
        assert store.local_pool.available_bits == store.remote_pool.available_bits

    def test_exhaustion_is_a_typed_request_error(self):
        async def scenario():
            server = await started_server({PAIR: make_store(bits=1024)})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    await client.get_key(PAIR, bits=1024)
                    with pytest.raises(ServerError) as excinfo:
                        await client.get_key(PAIR, bits=1024)
                    return excinfo.value, server.metrics
            finally:
                await server.stop()

        error, metrics = run(scenario())
        assert error.code == protocol.ERR_EXHAUSTED
        assert metrics.reservations_denied == 1
        assert metrics.keys_served == 1

    def test_served_material_is_the_stores_fifo_prefix(self):
        async def scenario():
            server = await started_server({PAIR: make_store(bits=4096)})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    return [await client.get_key(PAIR, bits=512) for _ in range(3)]
            finally:
                await server.stop()

        served = run(scenario())
        expected = counter_material(4096).to_bytes()
        assert b"".join(key.key_bytes for key in served) == expected[: 3 * 64]

    def test_desynchronised_pools_are_an_internal_error(self):
        """The serve step checks that both pools gave the same bits; a store
        whose remote pool holds other material answers ``internal`` and
        serves nothing."""

        async def scenario():
            store = make_store(bits=4096)
            store.remote_pool.blocks[0] = KeyBlock(BitString.from_int(0, 4096), 0)
            server = await started_server({PAIR: store})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServerError) as excinfo:
                        await client.get_key(PAIR, bits=256)
                    return excinfo.value, server.metrics
            finally:
                await server.stop()

        error, metrics = run(scenario())
        assert error.code == protocol.ERR_INTERNAL
        assert "desynchronised" in error.detail
        assert metrics.keys_served == 0


# --------------------------------------------------------------------------- #
# Concurrency: the no-overlap guarantee, end to end
# --------------------------------------------------------------------------- #


class TestConcurrentClients:
    N_CLIENTS = 8
    REQUESTS_EACH = 6
    BITS = 1024

    def hammer(self, supply_bits):
        """All clients hammer one pair; returns (served chunks, denials)."""

        async def one_client(port, served, denials):
            async with NetworkKmsClient("127.0.0.1", port) as client:
                for _ in range(self.REQUESTS_EACH):
                    try:
                        key = await client.get_key(PAIR, bits=self.BITS)
                    except ServerError as exc:
                        assert exc.code == protocol.ERR_EXHAUSTED
                        denials.append(exc)
                    else:
                        served.append(key.key_bytes)

        async def scenario():
            server = await started_server({PAIR: make_store(bits=supply_bits)})
            try:
                served, denials = [], []
                await asyncio.gather(
                    *(
                        one_client(server.port, served, denials)
                        for _ in range(self.N_CLIENTS)
                    )
                )
                return served, denials, server.metrics
            finally:
                await server.stop()

        return run(scenario())

    def test_no_two_clients_receive_overlapping_material(self):
        total = self.N_CLIENTS * self.REQUESTS_EACH * self.BITS
        served, denials, metrics = self.hammer(supply_bits=total)
        assert not denials
        assert len(served) == self.N_CLIENTS * self.REQUESTS_EACH
        counters = [
            word
            for chunk in served
            for (word,) in struct.iter_unpack(">Q", chunk)
        ]
        assert len(counters) == len(set(counters)), (
            "two clients received overlapping key material"
        )
        assert sorted(counters) == list(range(total // 64))
        assert metrics.fatal_errors == 0

    def test_served_material_is_the_same_at_every_fleet_size(self):
        """One request volume over four pairs, served to 1, 4 and 8 concurrent
        clients: interleaving may reorder who gets which chunk, never which
        material leaves the stores — one served digest, nothing lost."""
        requests, n_pairs = 48, 4
        pairs = [(f"sae-{index}a", f"sae-{index}b") for index in range(n_pairs)]
        per_pair = requests // n_pairs * self.BITS

        def stores():
            built = {}
            for index, pair in enumerate(pairs):
                built[pair] = KeyStore(pair, capacity_bits=1 << 20)
                built[pair].deposit(counter_material(per_pair, first=index << 48))
            return built

        async def level(n_clients):
            server = await started_server(stores())

            async def one_client(client_index):
                async with NetworkKmsClient(
                    "127.0.0.1", server.port, client_id=f"sae-{client_index}"
                ) as client:
                    for request_index in range(requests // n_clients):
                        pair = pairs[(client_index + request_index) % n_pairs]
                        await client.get_key(pair, bits=self.BITS)

            try:
                await asyncio.gather(*(one_client(index) for index in range(n_clients)))
            finally:
                await server.stop()
            return server.metrics.report()

        reports = {n_clients: run(level(n_clients)) for n_clients in (1, 4, 8)}
        assert len({report.served_digest for report in reports.values()}) == 1
        for n_clients, report in reports.items():
            assert report.keys_served == requests, n_clients
            assert report.key_bits_served == requests * self.BITS
            assert not report.protocol_errors, n_clients
            assert report.reservations_denied == 0
            assert report.reserve_latency_p50_seconds <= report.reserve_latency_p99_seconds

    def test_oversubscribed_store_denies_exactly_the_shortfall(self):
        demands = self.N_CLIENTS * self.REQUESTS_EACH
        supply = (demands // 2) * self.BITS
        served, denials, _metrics = self.hammer(supply_bits=supply)
        assert len(served) == demands // 2
        assert len(denials) == demands - demands // 2
        counters = [
            word
            for chunk in served
            for (word,) in struct.iter_unpack(">Q", chunk)
        ]
        assert len(counters) == len(set(counters))

    def test_pipelined_requests_on_one_connection(self):
        async def scenario():
            server = await started_server({PAIR: make_store(bits=1 << 15)})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    keys = await asyncio.gather(
                        *(client.get_key(PAIR, bits=256) for _ in range(16))
                    )
                    return [key.key_bytes for key in keys]
            finally:
                await server.stop()

        chunks = run(scenario())
        counters = [
            word for chunk in chunks for (word,) in struct.iter_unpack(">Q", chunk)
        ]
        assert len(counters) == len(set(counters))


# --------------------------------------------------------------------------- #
# Facade wiring and metrics
# --------------------------------------------------------------------------- #


class TestFacadeAndMetrics:
    def test_mesh_kms_serve_network(self):
        from repro import QKDSystem
        from repro.kms import KmsConfig

        async def scenario():
            mesh = QKDSystem(seed=11).mesh(n_endpoints=3, n_relays=4)
            service = mesh.kms(config=KmsConfig(gateway_pairs=(PAIR_MESH,)))
            store = service.stores[PAIR_MESH]
            store.deposit(counter_material(4096))
            server = service.serve_network(port=0)
            async with server:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    capabilities = await client.capabilities()
                    status = await client.status(PAIR_MESH)
                    key = await client.get_key(PAIR_MESH, bits=512)
            return capabilities, status, key, store

        PAIR_MESH = ("endpoint-0", "endpoint-1")
        capabilities, status, key, store = run(scenario())
        assert PAIR_MESH in capabilities.pairs
        assert status.available_bits >= 4096
        assert key.key_bits == 512
        assert store.statistics.bits_consumed >= 512

    def test_a_kms_front_end_reaps_a_lease_that_lapsed_in_loop_time(self):
        """The front end's leases run on its loop's clock, not on the
        service's simulated clock, which stands still while asyncio serves."""
        from repro import QKDSystem
        from repro.kms import KmsConfig

        PAIR_MESH = ("endpoint-0", "endpoint-1")
        mesh = QKDSystem(seed=11).mesh(n_endpoints=3, n_relays=4)
        service = mesh.kms(config=KmsConfig(gateway_pairs=(PAIR_MESH,)))
        store = service.stores[PAIR_MESH]
        store.deposit(counter_material(4096))
        available = store.available_bits

        async def scenario():
            async with service.serve_network() as server:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    handle = await client.reserve(PAIR_MESH, 1024)
                    await asyncio.sleep(LEASE_SECONDS + 1.0)
                    status = await client.status(PAIR_MESH)
                    with pytest.raises(ServerError) as excinfo:
                        await client.consume(handle)
            return status, excinfo.value, server.metrics

        status, error, metrics = run_virtual(scenario())
        assert (status.reserved_bits, status.unreserved_bits) == (0, available)
        assert error.code == protocol.ERR_UNKNOWN_RESERVATION
        assert metrics.reaped_by_reason == {"lease-expired": 1}
        assert store.reserved_bits == 0 and store.available_bits == available

    def test_a_kms_front_end_continues_the_service_clock(self):
        """A network draw after ``serve()`` sees the service's simulated time
        plus the loop seconds since ``start()``, whatever the loop's clock
        read: a loop up for 77 000 s must not fold that gap into the store's
        depletion rate (it read 0.0034 b/s instead of ~7 when the front end
        kept the loop's own reading)."""
        from repro import QKDSystem

        def rate_after_one_draw(loop_origin):
            service = QKDSystem(seed=7).mesh(n_endpoints=3, n_relays=4).kms()
            service.serve(hours=0.5)
            pair = sorted(service.stores)[0]
            served_rate = service.stores[pair].depletion_rate_bps

            async def scenario():
                loop = asyncio.get_running_loop()
                loop.advance(loop_origin)
                async with service.serve_network() as server:
                    async with NetworkKmsClient("127.0.0.1", server.port) as client:
                        await client.get_key(pair, 256)
                        loop.advance(60.0)
                        status = await client.status(pair)
                return status.depletion_rate_millibps

            return served_rate, run_virtual(scenario())

        served_rate, at_zero = rate_after_one_draw(0.0)
        _, at_day = rate_after_one_draw(77_000.0)
        assert at_zero == at_day
        assert 0.5 * served_rate * 1000 < at_day < 2 * served_rate * 1000

    def test_metrics_report_shape(self):
        async def scenario():
            server = await started_server()
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    await client.capabilities()
                    await client.get_key(PAIR, bits=256)
                    await client.consume(await client.reserve(PAIR, bits=256))
                return server.metrics.report()
            finally:
                await server.stop()

        report = run(scenario())
        assert report.requests == 4  # caps + get_key + reserve + consume
        assert report.requests_by_kind == {
            "Capabilities": 1,
            "GetKey": 1,
            "Reserve": 1,
            "Consume": 1,
        }
        assert report.keys_served == 2
        assert report.key_bits_served == 512
        assert report.reservations_granted == 2
        assert report.requests_per_second > 0
        assert (
            report.reserve_latency_p50_seconds <= report.reserve_latency_p99_seconds
        )
        assert len(report.served_digest) == 64

    def test_the_report_reads_the_99th_percentile_not_the_slowest_reserve(self):
        """101 reserves, one of them a second slow: the 99th percentile is
        the 100th fastest, not the slowest."""
        metrics = NetKmsMetrics()
        for _ in range(100):
            metrics.note_reserve(1e-6, granted=True)
        metrics.note_reserve(1.0, granted=True)
        report = metrics.report()
        error = LatencyHistogram.RELATIVE_ERROR
        assert report.reserve_latency_p50_seconds == pytest.approx(1e-6, rel=error)
        assert report.reserve_latency_p99_seconds == pytest.approx(1e-6, rel=error)
        assert metrics.reserve_latencies.percentile(100) == 1.0

    def test_served_digest_is_order_independent(self):
        from repro.netkms.metrics import NetKmsMetrics

        chunks = [bytes([i]) * 16 for i in range(8)]
        forward, backward = NetKmsMetrics(), NetKmsMetrics()
        for chunk in chunks:
            forward.note_key_served(chunk, len(chunk) * 8)
        for chunk in reversed(chunks):
            backward.note_key_served(chunk, len(chunk) * 8)
        assert forward.served_digest() == backward.served_digest()


# --------------------------------------------------------------------------- #
# Disruption tolerance: reaping, drain, and failing peers
# --------------------------------------------------------------------------- #


class TestReservationReaping:
    def test_disconnect_returns_held_bits_to_the_store(self):
        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            try:
                client = NetworkKmsClient("127.0.0.1", server.port)
                await client.connect()
                await client.reserve(PAIR, 1024)
                assert store.reserved_bits == 1024
                await client.close()  # dies between RESERVE and CONSUME
                # Wait until the server notices the disconnect and reaps.
                for _ in range(200):
                    if not server._held:
                        break
                    await asyncio.sleep(0.01)
                return store, server.metrics
            finally:
                await server.stop()

        store, metrics = run(scenario())
        assert store.reserved_bits == 0
        assert store.available_bits == 4096
        assert metrics.reaped_by_reason == {"disconnect": 1}
        # The no-leak invariant: the reaper's ledger reconciles with the
        # store's own released-bits ledger.
        assert metrics.reaped_bits == store.statistics.bits_released == 1024

    def test_lease_expiry_reaps_while_the_owner_lives(self):
        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    handle = await client.reserve(PAIR, 1024)
                    assert handle.lease_ms == 1000 * LEASE_SECONDS
                    # Outlive the lease; the connection stays up.
                    asyncio.get_running_loop().advance(LEASE_SECONDS + 0.5)
                    freed = server.reap_expired()
                    with pytest.raises(ServerError) as excinfo:
                        await client.consume(handle)
                    # The client recovers by re-reserving on the same
                    # connection; no material was lost or double-served.
                    key = await client.get_key(PAIR, 1024)
                    return freed, excinfo.value, key, store, server.metrics
            finally:
                await server.stop()

        freed, error, key, store, metrics = run_virtual(scenario())
        assert freed == 1024
        assert error.code == protocol.ERR_UNKNOWN_RESERVATION
        assert key.key_bits == 1024
        assert metrics.reaped_by_reason == {"lease-expired": 1}
        assert metrics.reaped_bits == store.statistics.bits_released == 1024

    def test_status_after_a_lapse_reports_the_bits_unreserved(self):
        """No sweep runs and nothing calls ``reap_expired``: the STATUS
        request itself reaps the lapsed lease before it reads the store."""

        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    await client.reserve(PAIR, 1024)
                    held = await client.status(PAIR)
                    asyncio.get_running_loop().advance(LEASE_SECONDS)
                    lapsed = await client.status(PAIR)
                    return held, lapsed, server.metrics
            finally:
                await server.stop()

        held, lapsed, metrics = run_virtual(scenario())
        assert (held.reserved_bits, held.unreserved_bits) == (1024, 3072)
        assert (lapsed.reserved_bits, lapsed.unreserved_bits) == (0, 4096)
        assert metrics.reaped_by_reason == {"lease-expired": 1}

    def test_a_status_buffered_behind_a_paused_write_reaps_a_lapse_first(self):
        """A STATUS that waits behind a slow reader's paused write is
        answered from ``resume_writing``, and it too reaps the lease that
        lapsed meanwhile before it reads the store."""

        async def scenario():
            loop = asyncio.get_running_loop()
            server = await started_server({PAIR: make_store(bits=1 << 20)})
            slow = await SlowReader.connect(server)
            await slow.ask(Reserve(pair=PAIR, bits=1024))
            await slow.ask(Status(pair=PAIR))
            await slow.pause(Status(pair=PAIR))
            server._now = lambda: loop.time() + LEASE_SECONDS
            reaped_before = dict(server.metrics.reaped_by_reason)
            slow.resume()
            granted, held, *served, lapsed = await slow.replies(2 + len(slow.keys) + 1)
            reaped = dict(server.metrics.reaped_by_reason)
            await slow.close()
            await server.stop()
            return reaped_before, granted, held, served, lapsed, reaped

        reaped_before, granted, held, served, lapsed, reaped = run(scenario())
        assert isinstance(granted, ReserveOk) and len(served) >= 2
        assert (held.reserved_bits, held.unreserved_bits) == (1024, held.available_bits - 1024)
        assert isinstance(lapsed, StatusOk)
        assert (lapsed.reserved_bits, lapsed.unreserved_bits) == (0, lapsed.available_bits)
        assert reaped_before == {} and reaped == {"lease-expired": 1}

    @pytest.mark.parametrize("ending", ["close", "stop"])
    def test_a_lapse_found_by_a_closing_connection_or_stop_is_a_lease_reap(self, ending):
        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            client = NetworkKmsClient("127.0.0.1", server.port)
            await client.connect()
            await client.reserve(PAIR, 1024)
            asyncio.get_running_loop().advance(LEASE_SECONDS)
            if ending == "close":
                await client.close()
                await asyncio.sleep(0)  # the server sees the EOF
                reasons = dict(server.metrics.reaped_by_reason)
            await server.stop()
            await client.close()
            return store, reasons if ending == "close" else server.metrics.reaped_by_reason

        store, reasons = run_virtual(scenario())
        assert reasons == {"lease-expired": 1}
        assert store.reserved_bits == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    @pytest.mark.parametrize(
        "field, build",
        [
            (
                "replay_retention_seconds",
                lambda v: NetworkKmsServer({PAIR: make_store()}, replay_retention_seconds=v),
            ),
            ("request_timeout", lambda v: NetworkKmsClient("127.0.0.1", 1, request_timeout=v)),
        ],
    )
    def test_a_timing_input_that_is_not_a_positive_finite_number_is_refused(
        self, field, build, value
    ):
        with pytest.raises(ValueError, match=field):
            build(value)

    def test_stop_reaps_everything_still_held(self):
        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            client = NetworkKmsClient("127.0.0.1", server.port)
            await client.connect()
            await client.reserve(PAIR, 512)
            await client.reserve(PAIR, 512)
            await server.stop(drain_timeout=1.0)
            await client.close()
            return store, server.metrics

        store, metrics = run(scenario())
        assert store.reserved_bits == 0
        assert metrics.reservations_reaped == 2
        assert metrics.reaped_bits == store.statistics.bits_released == 1024


class TestReservationOwnership:
    """A reservation, held or served, answers only connections under the
    HELLO ``client_id`` it was granted to: anyone else naming its id gets the
    unknown-id reply."""

    @staticmethod
    async def two_clients(server):
        a = NetworkKmsClient("127.0.0.1", server.port, client_id="sae-a")
        b = NetworkKmsClient("127.0.0.1", server.port, client_id="sae-b")
        await a.connect()
        await b.connect()
        return a, b

    def test_a_served_key_is_not_replayed_to_another_client(self):
        async def scenario():
            server = await started_server({PAIR: make_store(bits=4096)})
            try:
                a, b = await self.two_clients(server)
                key = await a.get_key(PAIR, 256)
                handle = ReservationHandle(PAIR, key.reservation_id, key.key_bits)
                with pytest.raises(ServerError) as foreign:
                    await b.consume(handle)
                replays_after_b = server.metrics.consume_replays
                replayed = await a.consume(handle)
                await a.close()
                await b.close()
                return key, foreign.value, replays_after_b, replayed, server.metrics
            finally:
                await server.stop()

        key, foreign, replays_after_b, replayed, metrics = run(scenario())
        assert foreign.code == protocol.ERR_UNKNOWN_RESERVATION
        assert replays_after_b == 0
        assert replayed == key and metrics.consume_replays == 1
        assert metrics.keys_served == 1

    def test_a_held_reservation_is_not_served_or_released_to_another_client(self):
        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            try:
                a, b = await self.two_clients(server)
                handle = await a.reserve(PAIR, 128)
                codes = []
                for attempt in (b.consume, lambda held: release(b, held)):
                    with pytest.raises(ServerError) as foreign:
                        await attempt(handle)
                    codes.append(foreign.value.code)
                still_reserved = store.reserved_bits
                key = await a.consume(handle)
                await a.close()
                await b.close()
                return codes, still_reserved, key, store, server.metrics
            finally:
                await server.stop()

        codes, still_reserved, key, store, metrics = run(scenario())
        assert codes == [protocol.ERR_UNKNOWN_RESERVATION] * 2
        assert still_reserved == 128
        assert key.key_bytes == counter_material(4096).to_bytes()[:16]
        assert (metrics.keys_served, metrics.consume_replays) == (1, 0)
        assert store.reserved_bits == 0 and store.available_bits == 4096 - 128

    def test_a_client_that_reconnects_under_its_id_keeps_its_keys_and_reservations(self):
        """The retry path of a client whose connection failed: a new
        connection under the same ``client_id`` is replayed the key it was
        served, and consumes the reservation its old connection — still
        open here, as a stalled one would be — holds."""

        async def scenario():
            server = await started_server({PAIR: make_store(bits=4096)})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port, client_id="sae-a") as a:
                    handle = await a.reserve(PAIR, 256)
                    key = await a.consume(handle)
                    held = await a.reserve(PAIR, 128)
                    async with NetworkKmsClient(
                        "127.0.0.1", server.port, client_id="sae-a"
                    ) as again:
                        replayed = await again.consume(handle)
                        taken = await again.consume(held)
                return key, replayed, taken, server.metrics
            finally:
                await server.stop()

        key, replayed, taken, metrics = run(scenario())
        assert replayed == key
        assert taken.key_bits == 128
        assert (metrics.keys_served, metrics.consume_replays) == (2, 1)


class TestGracefulDrain:
    def test_a_slow_readers_replies_are_delivered_then_it_is_dismissed(self):
        """``stop()`` leaves a reader whose replies still wait to be written:
        once it reads again they all reach it, and with nothing buffered
        behind them the farewell and EOF follow when its write buffer
        drains, well before the drain timeout.  Nobody new can connect
        meanwhile."""

        async def scenario():
            loop = asyncio.get_running_loop()
            store = make_store(bits=1 << 20)
            server = await started_server({PAIR: store})
            slow = await SlowReader.connect(server)
            await slow.pause()
            started = loop.time()
            stop = asyncio.ensure_future(server.stop(drain_timeout=5.0))
            await asyncio.sleep(0.05)
            left_to_read = not stop.done() and slow.connection.conn_id in server._connections
            with pytest.raises(ConnectionError):  # the listener is gone
                await NetworkKmsClient("127.0.0.1", server.port).connect()
            slow.resume()
            replies = await slow.replies(len(slow.keys) + 1)
            rest = await asyncio.wait_for(slow.reader.read(), 2.0)
            await stop
            waited = loop.time() - started
            await slow.close()
            return left_to_read, slow.keys, replies, rest, waited, store, server.metrics

        left_to_read, keys, (*served, farewell), rest, waited, store, metrics = run(scenario())
        assert left_to_read
        assert [(reply.request_id, reply.key_bits) for reply in served] == [
            (request_id, KEY_BITS) for request_id in keys
        ]
        assert isinstance(farewell, Error)
        assert (farewell.request_id, farewell.code) == (0, protocol.ERR_SHUTTING_DOWN)
        assert rest == b""
        assert waited < 2.5  # dismissed once its buffer drained, not at the 5 s timeout
        assert metrics.error_counts == {protocol.ERR_SHUTTING_DOWN: 1}
        assert store.reserved_bits == 0
        assert store.available_bits == (1 << 20) - len(keys) * KEY_BITS

    def test_request_after_drain_gets_typed_shutting_down_error(self):
        async def scenario():
            server = await started_server()
            async with NetworkKmsClient("127.0.0.1", server.port) as client:
                await client.status(PAIR)
                # Flip the drain gate directly (stop() would also close the
                # connection before a request could be written).
                server._draining = True
                with pytest.raises(ServerError) as excinfo:
                    await client.status(PAIR)
                await server.stop(drain_timeout=0.5)
                return excinfo.value

        error = run(scenario())
        assert error.code == protocol.ERR_SHUTTING_DOWN
        assert protocol.ERROR_NAMES[error.code] == "shutting-down"
        assert error.code in protocol.FATAL_ERRORS

    def test_a_reader_that_never_reads_is_aborted_at_the_drain_timeout(self):
        """``stop(drain_timeout=)`` gives up on a reader that never reads:
        the connection is aborted, the reservation it held returned to its
        store, and nothing is left to log."""

        async def scenario():
            loop = asyncio.get_running_loop()
            logged = []
            loop.set_exception_handler(lambda _loop, context: logged.append(context))
            store = make_store(bits=1 << 20)
            server = await started_server({PAIR: store})
            slow = await SlowReader.connect(server)
            await slow.ask(Reserve(pair=PAIR, bits=1024))
            await slow.pause()
            held = store.reserved_bits
            started = loop.time()
            await server.stop(drain_timeout=0.5)
            waited = loop.time() - started
            await slow.close()
            gc.collect()
            return held, waited, slow.keys, store, server, logged

        held, waited, keys, store, server, logged = run(scenario())
        assert held == 1024
        assert 0.5 <= waited < 0.6
        assert store.reserved_bits == 0
        assert store.available_bits == (1 << 20) - len(keys) * KEY_BITS
        assert server.metrics.reaped_by_reason == {"disconnect": 1}
        assert server.metrics.keys_served == len(keys)
        assert server.metrics.connections_closed == server.metrics.connections_opened == 1
        assert server.conservation_fault() is None
        assert logged == []

    _raw_connection = staticmethod(raw_connection)

    def test_idle_connection_is_told_shutting_down_then_closed(self):
        async def scenario():
            server = await started_server()
            reader, writer, version = await self._raw_connection(server)
            await server.stop(drain_timeout=2.0)
            body = await asyncio.wait_for(read_frame(reader), 2.0)
            farewell = decode_body(body, expected_version=version)
            rest = await asyncio.wait_for(reader.read(), 2.0)
            writer.close()
            await writer.wait_closed()
            return farewell, rest, server.metrics

        farewell, rest, metrics = run(scenario())
        assert isinstance(farewell, Error)
        assert (farewell.request_id, farewell.code) == (0, protocol.ERR_SHUTTING_DOWN)
        assert rest == b""  # nothing after the farewell but EOF
        assert metrics.error_counts == {protocol.ERR_SHUTTING_DOWN: 1}
        assert metrics.connections_closed == metrics.connections_opened == 1

    def test_a_consume_buffered_behind_a_paused_write_is_refused_under_its_own_id(self):
        """The replies written before the drain reach the slow reader; the
        CONSUME buffered behind them is refused under its own id and the
        connection closed, so the STATUS behind it gets nothing and the
        reservation it named is reaped with the connection."""

        async def scenario():
            store = make_store(bits=1 << 20)
            server = await started_server({PAIR: store})
            slow = await SlowReader.connect(server)
            await slow.ask(Reserve(pair=PAIR, bits=1024))
            ((_pair, reservation_id),) = server._held
            consume = Consume(pair=PAIR, reservation_id=reservation_id)
            await slow.pause(consume, Status(pair=PAIR))
            stop = asyncio.ensure_future(server.stop(drain_timeout=2.0))
            await asyncio.sleep(0.05)
            slow.resume()
            replies = await slow.replies(1 + len(slow.keys) + 1)
            rest = await asyncio.wait_for(slow.reader.read(), 2.0)
            await stop
            await slow.close()
            return consume.request_id, slow.keys, replies, rest, store, server.metrics

        consume_id, keys, (granted, *served, refused), rest, store, metrics = run(scenario())
        assert isinstance(granted, ReserveOk) and granted.request_id == 1
        assert [(reply.request_id, reply.key_bits) for reply in served] == [
            (request_id, KEY_BITS) for request_id in keys
        ]
        assert isinstance(refused, Error)
        assert (refused.request_id, refused.code) == (consume_id, protocol.ERR_SHUTTING_DOWN)
        assert rest == b""
        assert metrics.error_counts == {protocol.ERR_SHUTTING_DOWN: 1}
        assert metrics.requests_by_kind == {"Reserve": 1, "GetKey": len(keys)}
        assert metrics.reaped_by_reason == {"disconnect": 1}
        assert store.reserved_bits == 0
        assert store.available_bits == (1 << 20) - len(keys) * KEY_BITS

    def test_a_get_key_buffered_behind_a_paused_write_is_refused_under_its_own_id(self):
        async def scenario():
            store = make_store(bits=1 << 20)
            server = await started_server({PAIR: store})
            slow = await SlowReader.connect(server)
            assert slow.version == protocol.PROTOCOL_V4
            behind = [GetKey(pair=PAIR, bits=1024), GetKey(pair=PAIR, bits=1024)]
            await slow.pause(*behind)
            stop = asyncio.ensure_future(server.stop(drain_timeout=2.0))
            await asyncio.sleep(0.05)
            slow.resume()
            replies = await slow.replies(len(slow.keys) + 1)
            rest = await asyncio.wait_for(slow.reader.read(), 2.0)
            await stop
            await slow.close()
            return behind[0].request_id, slow.keys, replies, rest, store, server.metrics

        refused_id, keys, (*served, refused), rest, store, metrics = run(scenario())
        assert [(reply.request_id, reply.key_bits) for reply in served] == [
            (request_id, KEY_BITS) for request_id in keys
        ]
        assert isinstance(refused, Error)
        assert (refused.request_id, refused.code) == (refused_id, protocol.ERR_SHUTTING_DOWN)
        assert rest == b""
        assert metrics.error_counts == {protocol.ERR_SHUTTING_DOWN: 1}
        assert metrics.requests_by_kind == {"GetKey": len(keys)}
        assert store.reserved_bits == 0
        assert store.available_bits == (1 << 20) - len(keys) * KEY_BITS


class TestFailingPeers:
    async def _stub_server(self, behaviour):
        """A server speaking just enough protocol to misbehave on cue.

        ``behaviour(reader, writer)`` runs after a completed handshake.
        """

        async def handler(reader, writer):
            try:
                await read_frame(reader)  # HELLO
                welcome = protocol.Welcome(server_id="stub")
                writer.write(encode_frame(welcome, protocol.PROTOCOL_V4))
                await writer.drain()
                await behaviour(reader, writer)
            finally:
                writer.close()

        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        return server, server.sockets[0].getsockname()[1]

    def test_mid_burst_close_fails_every_pending_future_fast(self):
        """Satellite: a server dying mid-pipelined-burst must fail every
        pending request with ConnectionError — not hang — and the client
        must be reusable after a reconnect."""

        async def die_after_two_frames(reader, writer):
            await read_frame(reader)
            await read_frame(reader)
            writer.transport.abort()

        async def scenario():
            stub, port = await self._stub_server(die_after_two_frames)
            client = NetworkKmsClient("127.0.0.1", port)
            await client.connect()
            burst = [
                asyncio.ensure_future(client.status(PAIR)) for _ in range(6)
            ]
            results = await asyncio.wait_for(
                asyncio.gather(*burst, return_exceptions=True), timeout=5.0
            )
            await client.close()
            stub.close()
            await stub.wait_closed()

            # Same client object reconnects to a real server and serves.
            real = await started_server()
            try:
                client.port = real.port
                await client.connect()
                key = await client.get_key(PAIR, bits=256)
                await client.close()
            finally:
                await real.stop()
            return results, key

        results, key = run(scenario())
        assert len(results) == 6
        assert all(isinstance(r, ConnectionError) for r in results)
        assert key.key_bits == 256

    def test_connect_failure_after_tcp_open_closes_the_socket(self):
        """Satellite: a handshake that dies after the TCP connect must not
        leak the socket, whichever way it dies."""

        async def scenario():
            # Case 1: server closes without a WELCOME (IncompleteReadError).
            async def slam(reader, writer):
                await read_frame(reader)
                writer.close()

            async def garbage(reader, writer):
                await read_frame(reader)
                writer.write(struct.pack("<I", 0xFFFFFFF0))
                await writer.drain()

            outcomes = []
            for behaviour, expected in (
                (slam, asyncio.IncompleteReadError),
                (garbage, ProtocolError),
            ):
                server = await asyncio.start_server(
                    behaviour, host="127.0.0.1", port=0
                )
                port = server.sockets[0].getsockname()[1]
                opened = []

                async def recording(host, port, protocol_factory):
                    transport, connection = await open_connection(host, port, protocol_factory)
                    opened.append(transport)
                    return transport, connection

                client = NetworkKmsClient("127.0.0.1", port, connector=recording)
                with pytest.raises(expected):
                    await client.connect()
                # Teardown ran: no dangling stream, and the client can try
                # again (connect() refuses only while a connection is live).
                outcomes.append(
                    client._connection is None
                    and not client.connected
                    and opened[0].is_closing()
                )
                server.close()
                await server.wait_closed()
            return outcomes

        assert run(scenario()) == [True, True]

    def test_a_hello_write_that_fails_leaves_no_unretrieved_exception(self):
        """The HELLO write itself raising must leave nothing for asyncio to
        log as "Future exception was never retrieved": ``close()`` fails the
        handshake's future, which ``connect()`` never got to await."""

        async def failing_writes(host, port, protocol_factory):
            transport, connection = await open_connection(host, port, protocol_factory)

            def write(data):
                raise ConnectionResetError("write failed")

            transport.write = write
            return transport, connection

        async def scenario():
            seen = []
            asyncio.get_running_loop().set_exception_handler(lambda loop, context: seen.append(context))
            server = await started_server()
            try:
                client = NetworkKmsClient("127.0.0.1", server.port, connector=failing_writes)
                with pytest.raises(ConnectionResetError):
                    await client.connect()
                closed = client._connection is None and not client.connected
                del client
                gc.collect()
                return closed, seen
            finally:
                await server.stop()

        closed, seen = run(scenario())
        assert closed
        assert seen == []

    def test_request_timeout_is_typed_and_releases_the_caller(self):
        from repro.netkms.client import RequestTimeoutError

        async def stall_forever(reader, writer):
            await read_frame(reader)
            await asyncio.sleep(30)

        async def scenario():
            stub, port = await self._stub_server(stall_forever)
            client = NetworkKmsClient("127.0.0.1", port, request_timeout=0.1)
            await client.connect()
            with pytest.raises(RequestTimeoutError):
                await asyncio.wait_for(client.status(PAIR), timeout=5.0)
            await client.close()
            stub.close()
            await stub.wait_closed()

        run(scenario())

    def test_a_bad_prefix_after_welcome_closes_the_connection_and_fails_fast(self):
        """A reply stream that lost frame sync is dead: the pending request
        fails with the typed error, the transport is closed, ``connected``
        turns False, and the next request fails without being written."""
        received = []

        async def bad_prefix(reader, writer):
            received.append(await read_frame(reader))
            writer.write(struct.pack("<I", 0xFFFFFFF0))
            await writer.drain()
            received.append(await reader.read())  # b"" once the client hangs up

        async def scenario():
            stub, port = await self._stub_server(bad_prefix)
            client = NetworkKmsClient("127.0.0.1", port, request_timeout=2.0)
            await client.connect()
            with pytest.raises(ProtocolError) as first:
                await client.status(PAIR)
            connected = client.connected
            transport_closed = client._connection.transport.is_closing()
            with pytest.raises(ConnectionError):
                await client.status(PAIR)
            await asyncio.wait_for(client.close(), 2.0)
            await asyncio.sleep(0.05)
            stub.close()
            await stub.wait_closed()
            return first.value, connected, transport_closed

        error, connected, transport_closed = run(scenario())
        assert error.code == protocol.ERR_OVERSIZED
        assert not connected and transport_closed
        assert len(received) == 2 and received[1] == b""  # one request was written, not two


class TestRequestIds:
    def test_ids_wrap_at_the_u32_limit_and_skip_the_ones_still_pending(self):
        """A connection must outlive 2**32 requests: the header carries the
        id as a u32, so the client starts over at 1 — and never reuses an id
        whose reply is still owed, or that reply would go to the wrong caller.
        Reply frame 1, the first after WELCOME, is held a second, and every
        reply behind it, so the five requests stay owed."""
        held = FaultAction(DELAY, delay_seconds=1.0)
        plane = ScriptedPlane(DeterministicRNG(0), {(SITE_CLIENT_RX, 1): held})

        async def scenario():
            server = await started_server()
            try:
                connector = FaultyConnector(plane)
                async with NetworkKmsClient("127.0.0.1", server.port, connector=connector) as client:
                    client._ids = _request_ids(0xFFFFFFFE)
                    burst = [asyncio.ensure_future(client.status(PAIR)) for _ in range(5)]
                    await asyncio.sleep(0.5)
                    answered = dict(server.metrics.requests_by_kind)
                    straddling = sorted(client._pending)
                    client._ids = _request_ids(0xFFFFFFFF)  # once round already
                    burst.append(asyncio.ensure_future(client.status(PAIR)))
                    return answered, straddling, await asyncio.gather(*burst)
            finally:
                await server.stop()

        answered, straddling, replies = run_virtual(scenario())
        assert answered == {"Status": 5}
        assert straddling == [1, 2, 3, 0xFFFFFFFE, 0xFFFFFFFF]
        assert [reply.request_id for reply in replies] == [0xFFFFFFFE, 0xFFFFFFFF, 1, 2, 3, 4]
        assert all(isinstance(reply, StatusOk) for reply in replies)


# --------------------------------------------------------------------------- #
# The serving path's bookkeeping: reaping by deadline, no task per request
# --------------------------------------------------------------------------- #


class FullScanServer(NetworkKmsServer):
    """The same server, reaping by the oracle's scan of every entry."""

    reap_expired = full_scan_reap_expired


reaper_steps = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "reserve",
                "consume",
                "replay",
                "release",
                "disconnect",
                "advance",
                "step_back",
                "reap_at",
            ]
        ),
        st.integers(0, 1_000),
        st.integers(0, 1_000),
    ),
    min_size=1,
    max_size=30,
)


class TestReaperDifferential:
    """``reap_expired`` looks at its entries only once the clock reaches the
    earliest outstanding deadline; the oracle compares every deadline on
    every call.  Both serve the same requests on one virtual-time loop; the
    loop's clock only moves forward, so a step back is a ``reap_expired``
    at an earlier time."""

    @pytest.mark.parametrize("retention", [None, LEASE_SECONDS / 4])
    @given(steps=reaper_steps)
    @settings(max_examples=40, deadline=None)
    def test_reaping_equals_the_full_scan_oracle_after_every_step(self, retention, steps):
        def build(cls):
            return cls(
                {PAIR: make_store(bits=1 << 12)},
                replay_retention_seconds=retention,
            )

        async def answer(server, message, conn_id):
            try:
                return server._dispatch(message, conn_id)
            except ProtocolError as exc:
                return exc.code

        def state(server):
            store = server.stores[PAIR]
            return (
                store.unreserved_bits,
                store.available_bits,
                set(server._held),
                set(server._served),
                server.metrics.reaped_by_reason,
                server.metrics.reaped_bits,
                server.metrics.consume_replays,
            )

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.advance(25 * LEASE_SECONDS)
            servers = [await build(NetworkKmsServer).start(), await build(FullScanServer).start()]
            granted, consumed = [0], [0]  # reservation ids; 0 is nobody's
            try:
                for name, i, j in steps:
                    conn_id = 1 + i % 3
                    if name == "reserve":
                        message = Reserve(pair=PAIR, bits=8 * (1 + j % 8))
                    elif name == "consume":
                        message = Consume(pair=PAIR, reservation_id=granted[j % len(granted)])
                    elif name == "replay":
                        message = Consume(pair=PAIR, reservation_id=consumed[j % len(consumed)])
                    elif name == "release":
                        message = Release(pair=PAIR, reservation_id=granted[j % len(granted)])
                    else:
                        message = None
                    if message is not None:
                        outcomes = [await answer(server, message, conn_id) for server in servers]
                        if isinstance(outcomes[0], ReserveOk):
                            granted.append(outcomes[0].reservation_id)
                        if isinstance(outcomes[0], ConsumeOk):
                            consumed.append(outcomes[0].reservation_id)
                    elif name == "disconnect":
                        outcomes = [server._reap_connection(conn_id) for server in servers]
                    elif name == "advance":
                        loop.advance(LEASE_SECONDS * (j % 30) / 20)
                        outcomes = [server.reap_expired() for server in servers]
                    elif name == "step_back":
                        earlier = loop.time() - LEASE_SECONDS * (j % 30) / 20
                        outcomes = [reap_at(server, earlier) for server in servers]
                    else:
                        at = loop.time() + LEASE_SECONDS * ((j % 60) / 20 - 0.5)
                        outcomes = [reap_at(server, at) for server in servers]
                    assert outcomes[0] == outcomes[1], (name, i, j)
                    assert state(servers[0]) == state(servers[1]), (name, i, j)
            finally:
                for server in servers:
                    for conn_id in (1, 2, 3):  # as each closing connection would
                        server._reap_connection(conn_id)
                    await server.stop()
            assert state(servers[0]) == state(servers[1])

        # A small replay cache, so eviction by count also takes away the
        # entry whose deadline the server is holding as its earliest.
        with mock.patch.object(server_module, "REPLAY_CACHE_LIMIT", 3):
            run_virtual(scenario())

    def test_a_get_key_with_nothing_due_reads_no_cache_entry_deadline(self):
        """A count, not a timing: the replay cache is full, nothing is due,
        and serving one more key looks at none of its entries' deadlines."""
        reads = []

        class Watched(ServedReservation):
            def __getattribute__(self, name):
                if name == "expires_at":
                    reads.append(name)
                return super().__getattribute__(name)

        async def scenario():
            store = make_store(bits=1 << 15)
            server = await started_server({PAIR: store})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    for _ in range(REPLAY_CACHE_LIMIT + 5):
                        await client.get_key(PAIR, bits=8)
                    assert len(server._served) == REPLAY_CACHE_LIMIT
                    for key, entry in server._served.items():
                        server._served[key] = Watched(**vars(entry))
                    held = await client.reserve(PAIR, bits=8)  # one live lease as well
                    key = await client.get_key(PAIR, bits=8)
                    await release(client, held)
                    return key, len(server._served), server.metrics
            finally:
                await server.stop()

        key, cached, metrics = run(scenario())
        assert key.key_bits == 8
        assert cached == REPLAY_CACHE_LIMIT
        assert metrics.reservations_reaped == 0
        assert reads == []


class TestNoTaskPerRequest:
    def test_two_hundred_get_keys_create_no_task(self):
        """Client and server share the test's loop, so its task factory sees
        both sides: serving a key on a connected client makes no task."""
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def scenario():
            asyncio.get_running_loop().set_task_factory(counting_factory)
            server = await started_server({PAIR: make_store(bits=1 << 15)})
            clients = [NetworkKmsClient("127.0.0.1", server.port) for _ in range(2)]
            try:
                for client in clients:
                    await client.connect()
                    await client.get_key(PAIR, bits=8)

                async def drive(client):
                    return [await client.get_key(PAIR, bits=8) for _ in range(100)]

                drivers = [asyncio.ensure_future(drive(client)) for client in clients]
                created.clear()  # the connections, handlers and drivers exist
                served = await asyncio.gather(*drivers)
                during = list(created)
            finally:
                for client in clients:
                    await client.close()
                await server.stop()
            return served, during, server.metrics

        served, during, metrics = run(scenario())
        assert [len(keys) for keys in served] == [100, 100]
        assert metrics.keys_served == 202
        assert during == []


class TestFraming:
    """Both ends cut frames out of whatever segments the transport delivers:
    a frame split over many segments, many frames in one, and a length
    prefix judged the moment its four bytes are in."""

    FRAMES = [
        encode_frame(Status(request_id=i, pair=PAIR), protocol.PROTOCOL_V4) for i in range(1, 6)
    ] + [encode_frame(GetKey(request_id=6, pair=PAIR, bits=256), protocol.PROTOCOL_V4)]

    def test_the_splitter_returns_the_same_bodies_however_the_bytes_arrive(self):
        stream = b"".join(self.FRAMES)
        bodies = [frame[4:] for frame in self.FRAMES]
        for segment in (1, 3, 7, len(stream)):
            frames = protocol.FrameSplitter()
            out = []
            for start in range(0, len(stream), segment):
                frames.feed(stream[start : start + segment])
                while (body := frames.next_frame()) is not None:
                    out.append(body)
            assert out == bodies, segment
            assert frames.buffer == b""

    @pytest.mark.parametrize(
        "length, code",
        [(0, protocol.ERR_MALFORMED), (1, protocol.ERR_MALFORMED), (1025, protocol.ERR_OVERSIZED)],
    )
    def test_the_splitter_refuses_a_bad_prefix_before_any_body_byte(self, length, code):
        frames = protocol.FrameSplitter(max_frame_bytes=1024)
        frames.feed(struct.pack("<I", length)[:3])
        assert frames.next_frame() is None  # three bytes are not a prefix yet
        frames.feed(struct.pack("<I", length)[3:])
        with pytest.raises(ProtocolError) as excinfo:
            frames.next_frame()
        assert excinfo.value.code == code

    def test_a_server_answers_frames_sent_one_byte_per_segment_and_many_per_segment(self):
        async def scenario():
            server = await started_server()
            try:
                reader, writer, version = await raw_connection(server)
                for byte in self.FRAMES[0]:
                    writer.write(bytes([byte]))
                    await writer.drain()
                    await asyncio.sleep(0.001)
                replies = [decode_body(await read_frame(reader), version)]
                writer.write(b"".join(self.FRAMES[1:]))
                await writer.drain()
                for _ in self.FRAMES[1:]:
                    body = await asyncio.wait_for(read_frame(reader), 2.0)
                    replies.append(decode_body(body, version))
                writer.close()
                await writer.wait_closed()
                return replies, server.metrics
            finally:
                await server.stop()

        replies, metrics = run(scenario())
        assert [reply.request_id for reply in replies] == [1, 2, 3, 4, 5, 6]
        assert [type(reply) for reply in replies] == [StatusOk] * 5 + [ConsumeOk]
        assert metrics.requests_by_kind == {"Status": 5, "GetKey": 1}

    @pytest.mark.parametrize(
        "length, code",
        [(protocol.MAX_FRAME_BYTES + 1, protocol.ERR_OVERSIZED), (1, protocol.ERR_MALFORMED)],
    )
    def test_a_bad_prefix_alone_is_answered_and_the_connection_closed(self, length, code):
        """Only the four prefix bytes are sent — no body byte, no EOF — so a
        server that waits for the body before judging the prefix never
        answers."""

        async def scenario():
            server = await started_server()
            try:
                reader, writer, version = await raw_connection(server)
                writer.write(struct.pack("<I", length))
                await writer.drain()
                body = await asyncio.wait_for(read_frame(reader), 2.0)
                rest = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                await writer.wait_closed()
                return decode_body(body, version), rest
            finally:
                await server.stop()

        error, rest = run(scenario())
        assert isinstance(error, Error)
        assert (error.request_id, error.code) == (0, code)
        assert rest == b""

    def test_eof_mid_frame_reaps_the_connections_held_reservations(self):
        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            try:
                reader, writer, version = await raw_connection(server)
                writer.write(encode_frame(Reserve(request_id=1, pair=PAIR, bits=1024), version))
                granted = decode_body(await read_frame(reader), version)
                held = store.reserved_bits
                frame = encode_frame(Status(request_id=2, pair=PAIR), version)
                writer.write(frame[: len(frame) // 2])
                await writer.drain()
                writer.write_eof()
                rest = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.01)
                return granted, held, rest, store, dict(server.metrics.reaped_by_reason)
            finally:
                await server.stop()

        granted, held, rest, store, reaped = run(scenario())
        assert isinstance(granted, ReserveOk) and held == 1024
        assert rest == b""  # closed without an answer to the half frame
        assert reaped == {"disconnect": 1}
        assert store.reserved_bits == 0 and store.available_bits == 4096

    def test_requests_pipelined_behind_a_paused_write_are_answered_in_order(self):
        async def scenario():
            server = await started_server({PAIR: make_store(bits=1 << 20)})
            try:
                slow = await SlowReader.connect(server)
                behind = [Status(pair=PAIR) for _ in range(3)]
                await slow.pause(*behind)
                await asyncio.sleep(0.05)
                paused = (
                    dict(server.metrics.requests_by_kind),
                    slow.connection.transport.is_reading(),
                )
                slow.resume()
                replies = await slow.replies(len(slow.keys) + len(behind))
                await slow.close()
                return paused, slow.keys, [message.request_id for message in behind], replies
            finally:
                await server.stop()

        (seen, reading), keys, behind, replies = run(scenario())
        assert seen == {"GetKey": len(keys)} and not reading
        assert [reply.request_id for reply in replies] == keys + behind
        assert all(isinstance(reply, StatusOk) for reply in replies[len(keys):])


class TestBackpressure:
    def test_a_client_that_reads_nothing_stops_the_server_reading(self):
        """2 000 pipelined GET_KEYs and not one reply read: past the write
        buffer's high-water mark the server stops answering and stops
        reading, so what it buffers stays bounded; reading the replies lets
        it finish, in order."""
        requests, key_bits = 2_000, 4_096

        async def scenario():
            store = make_store(bits=requests * key_bits)
            server = await started_server({PAIR: store})
            try:
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", server.port))
                reader, writer = await asyncio.open_connection(sock=sock)
                writer.write(encode_frame(Hello(), protocol.FLOOR_VERSION))
                version = decode_body(await read_frame(reader), None).wire_version
                (connection,) = server._connections.values()
                connection.transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                writer.write(
                    b"".join(
                        encode_frame(GetKey(request_id=i, pair=PAIR, bits=key_bits), version)
                        for i in range(1, requests + 1)
                    )
                )
                await asyncio.sleep(0.3)
                stalled = (
                    server.metrics.keys_served,
                    connection.transport.is_reading(),
                    connection.transport.get_write_buffer_size(),
                    connection.transport.get_write_buffer_limits()[1],
                )
                ids = []
                for _ in range(requests):
                    body = await asyncio.wait_for(read_frame(reader), 5.0)
                    ids.append(decode_body(body, version).request_id)
                writer.close()
                await writer.wait_closed()
                return stalled, ids, server.metrics.keys_served
            finally:
                await server.stop()

        (served, reading, buffered, high_water), ids, total = run(scenario())
        reply_bytes = len(
            encode_frame(ConsumeOk(key_bits=key_bits, key_bytes=bytes(key_bits // 8)), 4)
        )
        assert served < requests // 2
        assert not reading
        assert buffered <= high_water + reply_bytes
        assert ids == list(range(1, requests + 1))
        assert total == requests


class TestLatencyHistogram:
    def test_percentiles_are_within_the_stated_error_and_count_and_mean_exact(self):
        rng = np.random.default_rng(5)
        samples = list(np.exp(rng.normal(np.log(30e-6), 1.2, 5_000)))
        samples[:3] = [0.0, 2e-10, 5e3]  # below the floor, and past the last bucket
        histogram = LatencyHistogram()
        for value in samples:
            histogram.add(value)
        assert len(histogram) == len(samples)
        assert histogram.total == pytest.approx(sum(samples), rel=1e-12)
        for q in (1, 25, 50, 90, 99, 99.9):
            exact = percentile(samples, q)
            assert abs(histogram.percentile(q) / exact - 1) <= histogram.RELATIVE_ERROR, q
        assert histogram.percentile(0) == 0.0 and histogram.percentile(100) == 5e3
        assert LatencyHistogram().percentile(50) == 0.0

    def test_histograms_fed_the_same_durations_are_equal(self):
        first, second = LatencyHistogram(), LatencyHistogram()
        for histogram in (first, second):
            for value in (0.0, 2e-6, 0.5, 3.0):
                histogram.add(value)
        assert first == second
        second.add(0.5)
        assert first != second

    def test_fifty_thousand_reserves_take_no_more_memory_than_a_thousand(self):
        def grown(calls):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                metrics = NetKmsMetrics()
                for i in range(calls):
                    metrics.note_reserve(1e-6 * (1 + i % 97), granted=True)
                return tracemalloc.get_traced_memory()[0] - before, metrics
            finally:
                tracemalloc.stop()

        grown(1_000)  # first-call allocations (caches, interned objects)
        small, few = grown(1_000)
        large, many = grown(50_000)
        assert len(few.reserve_latencies) == 1_000 and len(many.reserve_latencies) == 50_000
        # Up to ~100 B of float and int free-list noise either way; one
        # float kept per call would be 49 000 x 32 B more.
        assert large <= small + 1024


class TestServerHoldsNoReferenceToItself:
    def test_a_stopped_server_is_freed_without_the_cycle_collector(self):
        """A server that is its own garbage cycle (a table of bound handlers
        would make it one) keeps its stores, replay cache and per-key metrics
        alive until a full collection: memory that grows with restarts."""

        async def scenario():
            server = await started_server()
            async with NetworkKmsClient("127.0.0.1", server.port) as client:
                await client.get_key(PAIR, bits=256)
            await server.stop()
            return weakref.ref(server)

        gc.collect()
        gc.disable()
        try:
            assert run(scenario())() is None
        finally:
            gc.enable()


# --------------------------------------------------------------------------- #
# get_key leaves the server in one state, however many frames carried it
# --------------------------------------------------------------------------- #

SCRIPT_PAIRS = (("alice", "bob"), ("carol", "dave"), ("nobody", "here"))  # [2] has no store
SCRIPT_MAX_RESERVE_BITS = 2048


def pinned_script():
    """40 served ``get_key``s of 8..1024 bits alternating over two connections
    and two pairs, three refused ones (unknown pair, over the reserve limit, an
    exhausted store) and a deposit that refills the store that ran dry."""
    script = []
    for i in range(40):
        script.append(("get", i % 2, (i // 3) % 2, 8 + (37 * i * i + 101 * i) % 1017))
        if i == 9:
            script.append(("get", 0, 2, 256))
        if i == 19:
            script.append(("get", 1, 0, SCRIPT_MAX_RESERVE_BITS + 1))
        if i == 22:
            script.append(("get", 0, 1, SCRIPT_MAX_RESERVE_BITS))
            script.append(("deposit", 1, 4096))
    return script


async def two_phase_get_key(client, pair, bits):
    """A key as a RESERVE then a CONSUME: the two frames a GET_KEY joins."""
    return await client.consume(await client.reserve(pair, bits))


def run_script(script, *, two_phase):
    """Play ``script`` against a fresh server, fetching each key in one GET_KEY
    or, with ``two_phase``, as a reserve then a consume; returns everything
    the script leaves behind (read before ``stop()``, which clears the replay
    cache) and the request counts, which alone may depend on how many frames
    a key is.  The script runs on a virtual-time loop, whose clock moves
    0.25 s per step from 10 s."""
    fetch = two_phase_get_key if two_phase else NetworkKmsClient.get_key

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.advance(10.0)
        stores = {pair: KeyStore(pair) for pair in SCRIPT_PAIRS[:2]}
        stores[SCRIPT_PAIRS[0]].deposit(counter_material(1 << 15))
        stores[SCRIPT_PAIRS[1]].deposit(counter_material(8192, first=1 << 48))
        server = await started_server(stores, max_reserve_bits=SCRIPT_MAX_RESERVE_BITS)
        clients = [NetworkKmsClient("127.0.0.1", server.port) for _ in range(2)]
        outcomes = []
        deposited = 2 << 48
        try:
            for client in clients:
                assert await client.connect() == protocol.PROTOCOL_V4
            for step in script:
                if step[0] == "get":
                    _, connection, pair, bits = step
                    try:
                        key = await fetch(clients[connection], SCRIPT_PAIRS[pair], bits)
                    except ServerError as exc:
                        outcomes.append(exc.code)
                    else:
                        outcomes.append((key.reservation_id, key.key_bits, key.key_bytes))
                elif step[0] == "deposit":
                    _, pair, bits = step
                    stores[SCRIPT_PAIRS[pair]].deposit(
                        counter_material(bits, first=deposited), now=loop.time()
                    )
                    deposited += bits // 64
                loop.advance(0.25)
            metrics = server.metrics
            state = {
                "stores": [
                    {
                        **vars(store.statistics),
                        "available_bits": store.available_bits,
                        "reserved_bits": store.reserved_bits,
                        "unreserved_bits": store.unreserved_bits,
                        "remote_available_bits": store.remote_pool.available_bits,
                        "depletion_rate_millibps": int(store.depletion_rate_bps * 1000),
                    }
                    for store in stores.values()
                ],
                "keys_served": metrics.keys_served,
                "key_bits_served": metrics.key_bits_served,
                "reservations_granted": metrics.reservations_granted,
                "reservations_denied": metrics.reservations_denied,
                "reserve_latencies": len(metrics.reserve_latencies),
                "error_counts": dict(metrics.error_counts),
                "fatal_errors": metrics.fatal_errors,
                "reservations_reaped": metrics.reservations_reaped,
                "consume_replays": metrics.consume_replays,
                "served_digest": metrics.served_digest(),
                "replay_keys": [
                    (SCRIPT_PAIRS.index(pair), reservation_id)
                    for pair, reservation_id in server._served
                ],
                "replay_bytes": sha256_hex(
                    b"".join(entry.key_bytes for entry in server._served.values())
                ),
                "held": dict(server._held),
                "outcomes": sha256_hex(repr(outcomes).encode()),
                # Read last: taking an id moves the sequence.
                "next_reservation_ids": [next(store._ids) for store in stores.values()],
            }
            return state, dict(metrics.requests_by_kind)
        finally:
            for client in clients:
                await client.close()
            await server.stop()

    return run_virtual(scenario())


#: What ``pinned_script()`` leaves behind, recorded at 617f960 over v3 (a
#: RESERVE and a CONSUME per key).
PINNED_SCRIPT_STATE = {
    "stores": [
        {
            "bits_deposited": 32768,
            "bits_consumed": 8264,
            "bits_expired": 0,
            "deposits": 1,
            "reservations_granted": 21,
            "reservations_denied": 0,
            "reservations_released": 0,
            "bits_released": 0,
            "starved_epochs": 0,
            "available_bits": 24504,
            "reserved_bits": 0,
            "unreserved_bits": 24504,
            "remote_available_bits": 24504,
            "depletion_rate_millibps": 13647,
        },
        {
            "bits_deposited": 12288,
            "bits_consumed": 10097,
            "bits_expired": 0,
            "deposits": 2,
            "reservations_granted": 19,
            "reservations_denied": 1,
            "reservations_released": 0,
            "bits_released": 0,
            "starved_epochs": 0,
            "available_bits": 2191,
            "reserved_bits": 0,
            "unreserved_bits": 2191,
            "remote_available_bits": 2191,
            "depletion_rate_millibps": 15606,
        },
    ],
    "keys_served": 40,
    "key_bits_served": 18361,
    "reservations_granted": 40,
    "reservations_denied": 1,
    "reserve_latencies": 41,
    "error_counts": {
        protocol.ERR_UNKNOWN_PAIR: 1,
        protocol.ERR_LIMIT: 1,
        protocol.ERR_EXHAUSTED: 1,
    },
    "fatal_errors": 0,
    "reservations_reaped": 0,
    "consume_replays": 0,
    "served_digest": "5a65c92adfb689ecc886fc628675e9c86aed3743e2c6c38d2328cef0ebb8dae2",
    # Three keys from one pair, three from the other: ids run 1.. per store.
    "replay_keys": [
        (pair, 3 * block + offset) for block in range(7) for pair in (0, 1) for offset in (1, 2, 3)
    ][:40],
    "replay_bytes": "12b1f1c3b3f1c6bbf02849fe9e5bf6c6bc0a3066e7f623b39a81ead1cf3d66ce",
    "held": {},
    "outcomes": "30885c811f47a4f7bf3f5712f02d4007bb6f948bfeb77a9d59c35bc0f0ca23d3",
    "next_reservation_ids": [22, 20],
}


class TestGetKeyStateEquivalence:
    """A ``get_key`` is a grant and a serve; the server ends in the same state
    whether they arrived as two frames or as one."""

    def test_pinned_script_over_reserve_and_consume(self):
        state, requests = run_script(pinned_script(), two_phase=True)
        assert state == PINNED_SCRIPT_STATE
        assert requests == {"Reserve": 43, "Consume": 40}

    def test_pinned_script_over_get_key(self):
        state, requests = run_script(pinned_script(), two_phase=False)
        assert state == PINNED_SCRIPT_STATE
        assert requests == {"GetKey": 43}

    @given(
        script=st.lists(
            st.one_of(
                st.tuples(
                    st.just("get"),
                    st.integers(0, 1),
                    st.integers(0, 2),
                    st.integers(0, SCRIPT_MAX_RESERVE_BITS + 8),
                ),
                st.tuples(st.just("deposit"), st.integers(0, 1), st.integers(1, 32).map(lambda n: 64 * n)),
                st.tuples(st.just("tick")),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_any_script_leaves_the_same_state_over_two_frames_and_one(self, script):
        two_frames, requests_two = run_script(script, two_phase=True)
        one_frame, requests_one = run_script(script, two_phase=False)
        assert one_frame == two_frames
        assert one_frame["held"] == {}
        assert requests_one.get("GetKey", 0) == requests_two.get("Reserve", 0)
        assert requests_two.get("Consume", 0) == one_frame["keys_served"]

    def test_consume_by_the_id_a_get_key_reply_carried_is_a_replay(self):
        """The reservation a GET_KEY grants is never held, but its reply is
        replayable like any served key: CONSUME by that id re-delivers the
        same bytes and draws nothing."""

        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store})
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    key = await client.get_key(PAIR, bits=1000)
                    handle = ReservationHandle(PAIR, key.reservation_id, key.key_bits)
                    replayed = await client.consume(handle)
                    with pytest.raises(ServerError) as released:
                        await release(client, handle)
                    return key, replayed, released.value, store, server.metrics
            finally:
                await server.stop()

        key, replayed, released, store, metrics = run(scenario())
        assert replayed == key and key.key_bits == 1000
        assert released.code == protocol.ERR_UNKNOWN_RESERVATION  # it was never held
        assert (metrics.keys_served, metrics.consume_replays) == (1, 1)
        assert metrics.requests_by_kind == {"GetKey": 1, "Consume": 1, "Release": 1}
        assert store.available_bits == 4096 - 1000 and store.reserved_bits == 0
