"""Tests for the networked key-delivery front end (repro.netkms).

Four layers of contract:

* the message codec round-trips every kind at every version, and rejects
  malformed bodies with typed errors before any output-sized allocation;
* version negotiation interoperates in both directions (v1 client against
  a v2 server, v2 client against a v1 server) without flag-day breaks;
* hostile frames (truncated header, absurd length prefix, unknown version,
  unknown kind) each close the connection with a typed protocol error and
  leave the server serving other clients;
* concurrent clients hammering one pair's store never receive overlapping
  key material — the reservation contract, proven end to end.
"""

import asyncio
import gc
import hashlib
import struct
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.core.keypool import KeyBlock
from repro.kms.store import KeyStore
from repro.netkms import protocol
from repro.netkms import server as server_module
from repro.netkms.client import NetworkKmsClient, ReservationHandle, _request_ids
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
    negotiate,
)
from repro.netkms.server import REPLAY_CACHE_LIMIT, NetworkKmsServer, ServedReservation
from repro.util.bits import BitString
from tests.oracles.full_scan_reaper import full_scan_reap_expired

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


async def raw_connection(server, hello=None):
    """A handshaken plain stream: the frames the server writes are read
    as they are, with no client reader task between them and the test."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(encode_frame(hello or Hello(), protocol.PROTOCOL_V1))
    await writer.drain()
    welcome = decode_body(await protocol.read_frame(reader), expected_version=None)
    assert isinstance(welcome, Welcome)
    return reader, writer, welcome.wire_version


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
    @pytest.mark.parametrize("version", protocol.SUPPORTED_VERSIONS)
    def test_round_trip(self, message, version):
        body = message.encode(version)
        expected = None if isinstance(message, (Hello, Welcome)) else version
        decoded = decode_body(body, expected_version=expected)
        if isinstance(message, StatusOk) and version < protocol.PROTOCOL_V2:
            # The v2-only field does not travel at v1.
            assert decoded.depletion_rate_millibps is None
            message = StatusOk(**{**message.__dict__, "depletion_rate_millibps": None})
        if isinstance(message, ReserveOk) and version < protocol.PROTOCOL_V3:
            # The v3-only lease term does not travel below v3.
            assert decoded.lease_ms is None
            message = ReserveOk(**{**message.__dict__, "lease_ms": None})
        assert decoded == message

    def test_kinds_live_inside_the_reserved_wire_range(self):
        for message in self.MESSAGES:
            assert wire.KIND_NETKMS_FIRST <= message.KIND <= wire.KIND_NETKMS_LAST

    def test_frame_prefix_matches_body_length(self):
        frame = encode_frame(Status(pair=PAIR), protocol.PROTOCOL_V1)
        (length,) = struct.unpack("<I", frame[:4])
        assert length == len(frame) - 4

    def test_hello_always_encodes_at_the_floor_version(self):
        body = Hello(min_version=2, max_version=2).encode(protocol.PROTOCOL_V2)
        assert body[1] == protocol.PROTOCOL_V1


class TestMalformedBodies:
    def decode_error(self, body, expected_version=1):
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
        body = Status(pair=PAIR).encode(2)
        assert self.decode_error(body, expected_version=1).code == protocol.ERR_VERSION

    def test_truncated_inside_request_id(self):
        body = bytes([protocol.KIND_STATUS, 1, 0, 0])
        assert self.decode_error(body).code == protocol.ERR_MALFORMED

    def test_string_length_exceeding_payload(self):
        body = bytes([protocol.KIND_STATUS, 1]) + b"\x00" * 4 + bytes([200]) + b"ab"
        error = self.decode_error(body)
        assert error.code == protocol.ERR_MALFORMED
        assert "pair[0]" in error.detail

    def test_trailing_garbage_rejected(self):
        body = Status(pair=PAIR).encode(1) + b"\x00"
        assert self.decode_error(body).code == protocol.ERR_MALFORMED

    def test_v2_field_is_trailing_garbage_at_v1(self):
        ok = StatusOk(pair=PAIR, depletion_rate_millibps=5)
        v2_body = ok.encode(2)
        v1_equivalent = bytearray(ok.encode(1))
        assert len(v2_body) > len(v1_equivalent)
        v1_equivalent[1] = 1
        hybrid = bytes(v1_equivalent) + v2_body[len(v1_equivalent) :]
        assert self.decode_error(hybrid).code == protocol.ERR_MALFORMED

    def test_varint_overflow_and_overlength(self):
        prefix = bytes([protocol.KIND_RESERVE, 1]) + b"\x00" * 4 + b"\x00\x00"
        overlong = prefix + b"\xff" * 10 + b"\x01"
        assert self.decode_error(overlong).code == protocol.ERR_MALFORMED
        overflow = prefix + b"\xff" * 9 + b"\x7f"
        assert self.decode_error(overflow).code == protocol.ERR_MALFORMED

    def test_capabilities_pair_count_validated_against_payload(self):
        body = bytes([protocol.KIND_CAPABILITIES_OK, 1]) + b"\x00" * 4
        body += bytes([1, 2]) + b"\x10" + b"\x10" + bytes([255, 255, 3])
        error = self.decode_error(body)
        assert error.code == protocol.ERR_MALFORMED
        assert "pair count" in error.detail

    def test_hello_with_empty_version_range(self):
        body = Hello(min_version=2, max_version=2).encode()
        mutated = bytearray(body)
        mutated[6] = 3  # min > max
        assert self.decode_error(bytes(mutated), None).code == protocol.ERR_MALFORMED

    def test_consume_ok_key_bytes_validated(self):
        with pytest.raises(ValueError):
            ConsumeOk(key_bits=16, key_bytes=b"abc").encode(1)

    def test_get_key_truncated_anywhere_or_one_byte_long_is_malformed(self):
        body = GetKey(request_id=5, pair=PAIR, bits=1 << 14).encode(protocol.PROTOCOL_V4)
        assert decode_body(body, expected_version=4) == GetKey(request_id=5, pair=PAIR, bits=1 << 14)
        for cut in range(len(body)):
            assert self.decode_error(body[:cut], 4).code == protocol.ERR_MALFORMED, cut
        assert self.decode_error(body + b"\x00", 4).code == protocol.ERR_MALFORMED

    def test_hello_offers_every_supported_version_unless_told_otherwise(self):
        hello = Hello()
        assert (hello.min_version, hello.max_version) == (
            protocol.SUPPORTED_VERSIONS[0],
            protocol.SUPPORTED_VERSIONS[-1],
        )
        assert protocol.SUPPORTED_VERSIONS[-1] == protocol.PROTOCOL_V4

    def test_capabilities_ok_advertises_every_supported_version_unless_told_otherwise(self):
        capabilities = CapabilitiesOk()
        assert (capabilities.min_version, capabilities.max_version) == (
            protocol.SUPPORTED_VERSIONS[0],
            protocol.SUPPORTED_VERSIONS[-1],
        )


class TestNegotiation:
    def test_picks_highest_common(self):
        assert negotiate(1, 2, (1, 2)) == 2
        assert negotiate(1, 1, (1, 2)) == 1
        assert negotiate(1, 2, (1,)) == 1
        assert negotiate(2, 9, (1, 2)) == 2

    def test_disjoint_ranges(self):
        assert negotiate(3, 9, (1, 2)) is None
        assert negotiate(5, 3, (1, 2)) is None


# --------------------------------------------------------------------------- #
# Version interop over real connections
# --------------------------------------------------------------------------- #


class TestVersionInterop:
    def interop(self, server_versions, client_versions):
        async def scenario():
            server = await started_server(versions=server_versions)
            try:
                client = NetworkKmsClient(
                    "127.0.0.1", server.port, versions=client_versions
                )
                async with client:
                    status = await client.status(PAIR)
                    key = await client.get_key(PAIR, bits=256)
                    return client.version, status, key
            finally:
                await server.stop()

        return run(scenario())

    def test_v1_client_v2_server(self):
        version, status, key = self.interop((1, 2), (1,))
        assert version == 1
        assert status.depletion_rate_millibps is None
        assert key.key_bits == 256

    def test_v2_client_v1_server(self):
        version, status, key = self.interop((1,), (1, 2))
        assert version == 1
        assert status.depletion_rate_millibps is None
        assert key.key_bits == 256

    def test_v2_both_sides_carries_the_new_field(self):
        version, status, key = self.interop((1, 2), (1, 2))
        assert version == 2
        assert status.depletion_rate_millibps is not None
        assert key.key_bits == 256

    def reserve_interop(self, server_versions, client_versions):
        async def scenario():
            server = await started_server(versions=server_versions)
            try:
                client = NetworkKmsClient(
                    "127.0.0.1", server.port, versions=client_versions
                )
                async with client:
                    handle = await client.reserve(PAIR, bits=256)
                    await client.release(handle)
                    return client.version, handle
            finally:
                await server.stop()

        return run(scenario())

    def test_v2_client_v3_server_gets_no_lease_term(self):
        version, handle = self.reserve_interop((1, 2, 3), (1, 2))
        assert version == 2
        assert handle.lease_ms is None

    def test_v3_client_v2_server_gets_no_lease_term(self):
        version, handle = self.reserve_interop((1, 2), (1, 2, 3))
        assert version == 2
        assert handle.lease_ms is None

    def test_v3_both_sides_carries_the_lease_term(self):
        version, handle = self.reserve_interop((1, 2, 3), (1, 2, 3))
        assert version == 3
        assert handle.lease_ms is not None and handle.lease_ms > 0

    @pytest.mark.parametrize("server_max", protocol.SUPPORTED_VERSIONS)
    @pytest.mark.parametrize("client_max", protocol.SUPPORTED_VERSIONS)
    def test_every_pair_of_generations(self, client_max, server_max):
        """Both directions of every pairing: the lower side's version is
        spoken, each version's fields appear exactly where it says, and the
        key is the same 256 bits however many frames fetched it."""
        seen = []

        async def hook(message):
            seen.append(type(message).__name__)

        async def scenario():
            server = await started_server(
                versions=tuple(range(1, server_max + 1)), request_hook=hook
            )
            try:
                client = NetworkKmsClient(
                    "127.0.0.1", server.port, versions=tuple(range(1, client_max + 1))
                )
                async with client:
                    status = await client.status(PAIR)
                    handle = await client.reserve(PAIR, bits=64)
                    await client.release(handle)
                    key = await client.get_key(PAIR, bits=256)
                    return client.version, status, handle, key, server.metrics.report()
            finally:
                await server.stop()

        version, status, handle, key, report = run(scenario())
        assert version == min(client_max, server_max)
        assert (status.depletion_rate_millibps is not None) == (version >= 2)
        assert (handle.lease_ms is not None) == (version >= 3)
        assert (key.key_bits, key.key_bytes) == (256, counter_material(256).to_bytes())
        fetch = {"GetKey": 1} if version >= 4 else {"Reserve": 2, "Consume": 1}
        assert report.requests_by_kind == {"Status": 1, "Reserve": 1, "Release": 1, **fetch}
        assert sorted(seen) == sorted(
            kind for kind, count in report.requests_by_kind.items() for _ in range(count)
        )
        assert report.keys_served == 1 and not report.protocol_errors

    @pytest.mark.parametrize("server_versions", [(1, 2, 3), (1, 2, 3, 4)])
    def test_v4_kind_on_a_v3_connection_is_an_unknown_kind(self, server_versions):
        """The other direction of "an older peer never sees the new kind": a
        GET_KEY frame on a connection that negotiated 3 does not exist there,
        whether or not the server speaks 4 to somebody else."""
        seen = []

        async def hook(message):
            seen.append(message)

        async def scenario():
            store = make_store()
            server = await started_server(
                {PAIR: store}, versions=server_versions, request_hook=hook
            )
            try:
                reader, writer, version = await raw_connection(server, Hello(max_version=3))
                assert version == 3
                writer.write(encode_frame(GetKey(request_id=77, pair=PAIR, bits=256), 3))
                await writer.drain()
                reply = decode_body(await protocol.read_frame(reader), expected_version=3)
                rest = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                await writer.wait_closed()
                return reply, rest, store, server.metrics
            finally:
                await server.stop()

        reply, rest, store, metrics = run(scenario())
        assert isinstance(reply, Error)
        assert (reply.request_id, reply.code) == (77, protocol.ERR_UNKNOWN_KIND)
        assert rest == b""  # fatal: the connection is closed
        assert metrics.error_counts == {protocol.ERR_UNKNOWN_KIND: 1}
        assert metrics.requests_by_kind == {} and seen == []
        assert store.unreserved_bits == store.available_bits == 1 << 15

    def test_v3_server_negotiates_a_default_client_down_and_serves_two_phase(self):
        """Pinning an older wire needs no knob beyond ``versions``: a default
        client (and a hand-built default HELLO) offers the newest version,
        and gets 3 from a server that stops there."""

        async def scenario():
            server = await started_server(versions=(1, 2, 3))
            try:
                _reader, writer, raw_version = await raw_connection(server)
                writer.close()
                await writer.wait_closed()
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    key = await client.get_key(PAIR, bits=256)
                    return raw_version, client.version, key, server.metrics
            finally:
                await server.stop()

        raw_version, version, key, metrics = run(scenario())
        assert raw_version == version == 3
        assert key.key_bytes == counter_material(256).to_bytes()
        assert metrics.requests_by_kind == {"Reserve": 1, "Consume": 1}

    def test_disjoint_ranges_rejected_with_typed_error(self):
        async def scenario():
            server = await started_server(versions=(1,))
            try:
                client = NetworkKmsClient("127.0.0.1", server.port, versions=(2,))
                with pytest.raises(ServerError) as excinfo:
                    await client.connect()
                await client.close()
                return excinfo.value, server.metrics.report()
            finally:
                await server.stop()

        error, report = run(scenario())
        assert error.code == protocol.ERR_VERSION
        assert report.protocol_errors.get("version-mismatch") == 1


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
                    writer.write(encode_frame(Hello(), protocol.PROTOCOL_V1))
                    await writer.drain()
                    await protocol.read_frame(reader)  # WELCOME
                writer.write(payload)
                await writer.drain()
                writer.write_eof()
                error = None
                # Pre-negotiation rejections travel at the v1 floor; after a
                # handshake the server answers at the negotiated version.
                error_version = server.versions[-1] if handshake_first else None
                try:
                    body = await asyncio.wait_for(protocol.read_frame(reader), 2.0)
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
        body = Status(pair=PAIR).encode(1)
        mutated = bytearray(body)
        mutated[1] = 9
        frame = struct.pack("<I", len(mutated)) + bytes(mutated)
        error, eof, server_ok = self.raw_exchange(frame, handshake_first=True)
        assert error is not None and error.code == protocol.ERR_VERSION
        assert eof and server_ok

    def test_unknown_kind_rejected(self):
        body = bytes([0x3E, protocol.SUPPORTED_VERSIONS[-1]]) + b"\x00" * 4
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
        body = GetKey(request_id=9, pair=PAIR, bits=256).encode(protocol.PROTOCOL_V4)
        lying = body[:6] + bytes([250]) + b"ab"  # pair[0] claims 250 bytes
        for hostile in (body[:-1], body + b"\x00", lying):
            frame = struct.pack("<I", len(hostile)) + hostile
            error, eof, server_ok = self.raw_exchange(frame, handshake_first=True)
            assert error is not None
            assert (error.request_id, error.code) == (9, protocol.ERR_MALFORMED)
            assert eof and server_ok

    def test_get_key_refusals_are_typed_move_nothing_and_keep_the_connection(self):
        seen = []

        async def hook(message):
            seen.append(message)

        async def scenario():
            store = make_store(bits=1024)
            server = await started_server({PAIR: store}, request_hook=hook)
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
        assert [type(message) for message in seen] == [GetKey] * 5  # the hook sees each once
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
                    await client.release(second)
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
            store.remote_pool.blocks[0] = KeyBlock(BitString.zeros(4096), 0)
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

    def test_metrics_report_shape(self):
        async def scenario():
            # Up to v3 a get_key is two requests, and the counts below say so.
            server = await started_server(versions=(1, 2, 3))
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    await client.capabilities()
                    await client.get_key(PAIR, bits=256)
                    await client.get_key(PAIR, bits=256)
                return server.metrics.report()
            finally:
                await server.stop()

        report = run(scenario())
        assert report.requests == 5  # 1 caps + 2 x (reserve + consume)
        assert report.requests_by_kind == {
            "Capabilities": 1,
            "Reserve": 2,
            "Consume": 2,
        }
        assert report.keys_served == 2
        assert report.key_bits_served == 512
        assert report.reservations_granted == 2
        assert report.requests_per_second > 0
        assert (
            report.reserve_latency_p50_seconds <= report.reserve_latency_p99_seconds
        )
        assert len(report.served_digest) == 64

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
        clock = {"t": 100.0}

        async def scenario():
            store = make_store(bits=4096)
            server = await started_server(
                {PAIR: store},
                now=lambda: clock["t"],
                lease_seconds=0.5,
                reap_interval_seconds=None,  # lazy + explicit reaping only
            )
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    handle = await client.reserve(PAIR, 1024)
                    assert handle.lease_ms == 500
                    clock["t"] += 1.0  # outlive the lease; connection stays up
                    freed = server.reap_expired()
                    with pytest.raises(ServerError) as excinfo:
                        await client.consume(handle)
                    # The client recovers by re-reserving on the same
                    # connection; no material was lost or double-served.
                    key = await client.get_key(PAIR, 1024)
                    return freed, excinfo.value, key, store, server.metrics
            finally:
                await server.stop()

        freed, error, key, store, metrics = run(scenario())
        assert freed == 1024
        assert error.code == protocol.ERR_UNKNOWN_RESERVATION
        assert key.key_bits == 1024
        assert metrics.reaped_by_reason == {"lease-expired": 1}
        assert metrics.reaped_bits == store.statistics.bits_released == 1024

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


class TestGracefulDrain:
    def test_in_flight_request_finishes_then_new_ones_are_rejected(self):
        entered = asyncio.Event()
        hold = asyncio.Event()

        async def gate(message):
            if isinstance(message, Consume):
                entered.set()
                await hold.wait()

        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store}, request_hook=gate)
            client = NetworkKmsClient("127.0.0.1", server.port)
            await client.connect()
            handle = await client.reserve(PAIR, 1024)
            consume_task = asyncio.ensure_future(client.consume(handle))
            await entered.wait()
            stop_task = asyncio.ensure_future(server.stop(drain_timeout=2.0))
            await asyncio.sleep(0.05)  # stop is now waiting on the dispatch
            hold.set()
            served = await consume_task
            await stop_task
            await client.close()
            # The listener is gone: nobody new can connect.
            with pytest.raises(ConnectionError):
                await NetworkKmsClient("127.0.0.1", server.port).connect()
            return served, store

        served, store = run(scenario())
        assert served.key_bits == 1024
        assert store.reserved_bits == 0

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

    _raw_connection = staticmethod(raw_connection)

    def test_idle_connection_is_told_shutting_down_then_closed(self):
        async def scenario():
            server = await started_server()
            reader, writer, version = await self._raw_connection(server)
            await server.stop(drain_timeout=2.0)
            body = await asyncio.wait_for(protocol.read_frame(reader), 2.0)
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

    def test_request_pipelined_behind_in_flight_one_is_rejected_under_its_own_id(self):
        entered = asyncio.Event()
        hold = asyncio.Event()

        async def gate(message):
            if isinstance(message, Consume):
                entered.set()
                await hold.wait()

        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store}, request_hook=gate)
            reader, writer, version = await self._raw_connection(server)

            async def reply():
                body = await asyncio.wait_for(protocol.read_frame(reader), 2.0)
                return decode_body(body, expected_version=version)

            writer.write(encode_frame(Reserve(request_id=1, pair=PAIR, bits=1024), version))
            granted = await reply()
            held = Consume(request_id=2, pair=PAIR, reservation_id=granted.reservation_id)
            writer.write(encode_frame(held, version))
            writer.write(encode_frame(Status(request_id=3, pair=PAIR), version))
            await writer.drain()
            await entered.wait()
            stop_task = asyncio.ensure_future(server.stop(drain_timeout=2.0))
            await asyncio.sleep(0.05)  # stop is now waiting on the dispatch
            hold.set()
            replies = [await reply(), await reply()]
            rest = await asyncio.wait_for(reader.read(), 2.0)
            await stop_task
            writer.close()
            await writer.wait_closed()
            return replies, rest, store, server.metrics

        (served, rejected), rest, store, metrics = run(scenario())
        assert isinstance(served, ConsumeOk)
        assert (served.request_id, served.key_bits) == (2, 1024)
        assert isinstance(rejected, Error)
        assert (rejected.request_id, rejected.code) == (3, protocol.ERR_SHUTTING_DOWN)
        assert rest == b""
        assert metrics.error_counts == {protocol.ERR_SHUTTING_DOWN: 1}
        assert metrics.requests_by_kind == {"Reserve": 1, "Consume": 1}
        assert store.reserved_bits == 0 and store.available_bits == 4096 - 1024


    def test_get_key_pipelined_behind_an_in_flight_get_key_is_rejected_under_its_own_id(self):
        entered = asyncio.Event()
        hold = asyncio.Event()

        async def gate(message):
            entered.set()
            await hold.wait()

        async def scenario():
            store = make_store(bits=4096)
            server = await started_server({PAIR: store}, request_hook=gate)
            reader, writer, version = await self._raw_connection(server)
            assert version == protocol.PROTOCOL_V4

            async def reply():
                body = await asyncio.wait_for(protocol.read_frame(reader), 2.0)
                return decode_body(body, expected_version=version)

            writer.write(encode_frame(GetKey(request_id=2, pair=PAIR, bits=1024), version))
            writer.write(encode_frame(GetKey(request_id=3, pair=PAIR, bits=1024), version))
            await writer.drain()
            await entered.wait()
            stop_task = asyncio.ensure_future(server.stop(drain_timeout=2.0))
            await asyncio.sleep(0.05)  # stop is now waiting on the dispatch
            hold.set()
            replies = [await reply(), await reply()]
            rest = await asyncio.wait_for(reader.read(), 2.0)
            await stop_task
            writer.close()
            await writer.wait_closed()
            return replies, rest, store, server.metrics

        (served, rejected), rest, store, metrics = run(scenario())
        assert isinstance(served, ConsumeOk)
        assert (served.request_id, served.key_bits) == (2, 1024)
        assert isinstance(rejected, Error)
        assert (rejected.request_id, rejected.code) == (3, protocol.ERR_SHUTTING_DOWN)
        assert rest == b""
        assert metrics.error_counts == {protocol.ERR_SHUTTING_DOWN: 1}
        assert metrics.requests_by_kind == {"GetKey": 1}
        assert store.reserved_bits == 0 and store.available_bits == 4096 - 1024


class TestFailingPeers:
    async def _stub_server(self, behaviour):
        """A server speaking just enough protocol to misbehave on cue.

        ``behaviour(reader, writer)`` runs after a completed handshake.
        """

        async def handler(reader, writer):
            try:
                await protocol.read_frame(reader)  # HELLO
                welcome = protocol.Welcome(server_id="stub")
                writer.write(encode_frame(welcome, protocol.SUPPORTED_VERSIONS[-1]))
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
            await protocol.read_frame(reader)
            await protocol.read_frame(reader)
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
                await protocol.read_frame(reader)
                writer.close()

            async def garbage(reader, writer):
                await protocol.read_frame(reader)
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
                client = NetworkKmsClient("127.0.0.1", port)
                with pytest.raises(expected):
                    await client.connect()
                # Teardown ran: no dangling stream, and the client can try
                # again (connect() refuses only while a writer is live).
                outcomes.append(
                    client._writer is None
                    and client._reader is None
                    and client._reader_task is None
                )
                server.close()
                await server.wait_closed()
            return outcomes

        assert run(scenario()) == [True, True]

    def test_request_timeout_is_typed_and_releases_the_caller(self):
        from repro.netkms.client import RequestTimeoutError

        async def stall_forever(reader, writer):
            await protocol.read_frame(reader)
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


class TestRequestIds:
    def test_ids_wrap_at_the_u32_limit_and_skip_the_ones_still_pending(self):
        """A connection must outlive 2**32 requests: the header carries the
        id as a u32, so the client starts over at 1 — and never reuses an id
        whose reply is still owed, or that reply would go to the wrong caller."""
        seen = []
        entered, hold = asyncio.Event(), asyncio.Event()

        async def gate(message):
            seen.append(message.request_id)
            if len(seen) == 1:
                entered.set()
                await hold.wait()

        async def scenario():
            server = await started_server(request_hook=gate)
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    client._ids = _request_ids(0xFFFFFFFE)
                    burst = [asyncio.ensure_future(client.status(PAIR)) for _ in range(5)]
                    await entered.wait()  # the first is held; four wait behind it
                    straddling = sorted(client._pending)
                    client._ids = _request_ids(0xFFFFFFFF)  # once round already
                    burst.append(asyncio.ensure_future(client.status(PAIR)))
                    await asyncio.sleep(0)
                    hold.set()
                    return straddling, await asyncio.wait_for(asyncio.gather(*burst), 5.0)
            finally:
                await server.stop()

        straddling, replies = run(scenario())
        assert straddling == [1, 2, 3, 0xFFFFFFFE, 0xFFFFFFFF]
        assert seen == [0xFFFFFFFE, 0xFFFFFFFF, 1, 2, 3, 4]
        assert [reply.request_id for reply in replies] == seen
        assert all(isinstance(reply, StatusOk) for reply in replies)


# --------------------------------------------------------------------------- #
# The serving path's bookkeeping: reaping by deadline, no task per request
# --------------------------------------------------------------------------- #


class FullScanServer(NetworkKmsServer):
    """The same server, reaping by the oracle's scan of every entry."""

    reap_expired = full_scan_reap_expired


LEASE_SECONDS = 2.0

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
    every call.  Both serve the same requests under the same clock."""

    @pytest.mark.parametrize("retention", [None, LEASE_SECONDS / 4])
    @given(steps=reaper_steps)
    @settings(max_examples=40, deadline=None)
    def test_reaping_equals_the_full_scan_oracle_after_every_step(self, retention, steps):
        clock = {"t": 50.0}

        def build(cls):
            return cls(
                {PAIR: make_store(bits=1 << 12)},
                now=lambda: clock["t"],
                lease_seconds=LEASE_SECONDS,
                replay_retention_seconds=retention,
                reap_interval_seconds=None,
            )

        async def answer(server, message, conn_id):
            try:
                return await server._dispatch(message, protocol.PROTOCOL_V3, conn_id)
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
                        clock["t"] += (j % 30) / 10
                        outcomes = [server.reap_expired() for server in servers]
                    elif name == "step_back":
                        clock["t"] -= (j % 30) / 10
                        outcomes = [server.reap_expired() for server in servers]
                    else:
                        at = clock["t"] + (j % 60) / 10 - 1.0
                        outcomes = [server.reap_expired(now=at) for server in servers]
                    assert outcomes[0] == outcomes[1], (name, i, j)
                    assert state(servers[0]) == state(servers[1]), (name, i, j)
            finally:
                for server in servers:
                    await server.stop()
            assert state(servers[0]) == state(servers[1])

        # A small replay cache, so eviction by count also takes away the
        # entry whose deadline the server is holding as its earliest.
        with mock.patch.object(server_module, "REPLAY_CACHE_LIMIT", 3):
            run(scenario())

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
            server = await started_server({PAIR: store}, reap_interval_seconds=None)
            try:
                async with NetworkKmsClient("127.0.0.1", server.port) as client:
                    for _ in range(REPLAY_CACHE_LIMIT + 5):
                        await client.get_key(PAIR, bits=8)
                    assert len(server._served) == REPLAY_CACHE_LIMIT
                    for key, entry in server._served.items():
                        server._served[key] = Watched(**vars(entry))
                    held = await client.reserve(PAIR, bits=8)  # one live lease as well
                    key = await client.get_key(PAIR, bits=8)
                    await client.release(held)
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


def run_script(script, versions):
    """Play ``script`` against a fresh server, both sides offering ``versions``;
    returns everything the script leaves behind (read before ``stop()``, which
    clears the replay cache) and the request counts, which alone may depend on
    how many frames a ``get_key`` is."""
    clock = {"t": 10.0}

    async def scenario():
        stores = {pair: KeyStore(pair) for pair in SCRIPT_PAIRS[:2]}
        stores[SCRIPT_PAIRS[0]].deposit(counter_material(1 << 15))
        stores[SCRIPT_PAIRS[1]].deposit(counter_material(8192, first=1 << 48))
        server = await started_server(
            stores,
            versions=versions,
            max_reserve_bits=SCRIPT_MAX_RESERVE_BITS,
            now=lambda: clock["t"],
            reap_interval_seconds=None,
        )
        clients = [NetworkKmsClient("127.0.0.1", server.port, versions=versions) for _ in range(2)]
        outcomes = []
        deposited = 2 << 48
        try:
            for client in clients:
                assert await client.connect() == versions[-1]
            for step in script:
                if step[0] == "get":
                    _, connection, pair, bits = step
                    try:
                        key = await clients[connection].get_key(SCRIPT_PAIRS[pair], bits)
                    except ServerError as exc:
                        outcomes.append(exc.code)
                    else:
                        outcomes.append((key.reservation_id, key.key_bits, key.key_bytes))
                elif step[0] == "deposit":
                    _, pair, bits = step
                    stores[SCRIPT_PAIRS[pair]].deposit(
                        counter_material(bits, first=deposited), now=clock["t"]
                    )
                    deposited += bits // 64
                clock["t"] += 0.25
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

    return run(scenario())


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
        state, requests = run_script(pinned_script(), versions=(1, 2, 3))
        assert state == PINNED_SCRIPT_STATE
        assert requests == {"Reserve": 43, "Consume": 40}

    def test_pinned_script_over_get_key(self):
        state, requests = run_script(pinned_script(), versions=(1, 2, 3, 4))
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
    def test_any_script_leaves_the_same_state_at_v3_and_v4(self, script):
        two_frames, requests_v3 = run_script(script, versions=(1, 2, 3))
        one_frame, requests_v4 = run_script(script, versions=(1, 2, 3, 4))
        assert one_frame == two_frames
        assert one_frame["held"] == {}
        assert requests_v4.get("GetKey", 0) == requests_v3.get("Reserve", 0)
        assert requests_v3.get("Consume", 0) == one_frame["keys_served"]

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
                        await client.release(handle)
                    return key, replayed, released.value, store, server.metrics
            finally:
                await server.stop()

        key, replayed, released, store, metrics = run(scenario())
        assert replayed == key and key.key_bits == 1000
        assert released.code == protocol.ERR_UNKNOWN_RESERVATION  # it was never held
        assert (metrics.keys_served, metrics.consume_replays) == (1, 1)
        assert metrics.requests_by_kind == {"GetKey": 1, "Consume": 1, "Release": 1}
        assert store.available_bits == 4096 - 1000 and store.reserved_bits == 0
