"""The asyncio client library for the networked key-delivery protocol.

:class:`NetworkKmsClient` is what an SAE (an IKE daemon, a one-time-pad
encryptor, a benchmark worker) uses to draw key from a
:class:`~repro.netkms.server.NetworkKmsServer`: connect (which runs the
HELLO/WELCOME version negotiation), then ``reserve`` / ``consume`` /
``release`` / ``status`` / ``capabilities``, or ``get_key`` — the ETSI GS
QKD 014 shape: one GET_KEY round trip on a connection that negotiated v4,
reserve then consume (two) below that.  Either way the reservation never
leaves ``get_key``, so a lost reply costs the key: it was served and
digested and cannot be fetched again.  Callers that cannot afford that use
:class:`~repro.netkms.resilient.ResilientKmsClient`.

Requests may be issued concurrently from many tasks over one connection:
each carries a fresh request id, a background reader task routes responses
(and typed server errors) back to the issuing task by that id, and the
server answers a connection's frames in arrival order.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Iterator, Optional, Tuple

from repro.netkms import protocol
from repro.netkms.protocol import (
    Capabilities,
    CapabilitiesOk,
    Consume,
    ConsumeOk,
    Error,
    GetKey,
    Hello,
    Message,
    ProtocolError,
    Release,
    ReleaseOk,
    Reserve,
    ReserveOk,
    ServerError,
    Status,
    StatusOk,
    Welcome,
)

Pair = Tuple[str, str]

#: ``connector(host, port)`` opening the transport; the default is plain
#: :func:`asyncio.open_connection`.  The fault plane substitutes a wrapper
#: that injects connection refusals, delays, and frame corruption.
Connector = Callable[
    [str, int], Awaitable[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]
]


def _request_ids(first: int = 1) -> Iterator[int]:
    """Request ids without end: up to the largest the header's u32 carries,
    then round again from 1 (0 is the server's "no request" id)."""
    while True:
        yield from range(first, 0xFFFFFFFF + 1)
        first = 1


class RequestTimeoutError(TimeoutError):
    """A request outlived its per-request timeout.

    After a timeout the connection's state is indeterminate — the reply may
    still arrive (and will be dropped as stale) or the request may never
    have been processed.  Callers that need certainty must reconnect and
    re-issue under the idempotency rules (see docs/API.md "Failure
    semantics"); :class:`~repro.netkms.resilient.ResilientKmsClient` does
    exactly that.
    """


@dataclass
class ReservationHandle:
    """A server-side reservation this client holds."""

    pair: Pair
    reservation_id: int
    bits: int
    #: Lease TTL granted by a v3+ server (milliseconds); ``None`` when the
    #: negotiated version predates leases.
    lease_ms: Optional[int] = None


@dataclass
class ServedKey:
    """Key material the server delivered for one consumed reservation."""

    pair: Pair
    reservation_id: int
    key_bits: int
    key_bytes: bytes


class NetworkKmsClient:
    """One SAE connection to a network KMS.

    Usage::

        client = NetworkKmsClient("127.0.0.1", server.port)
        await client.connect()              # negotiates the version
        key = await client.get_key(pair, bits=1024)
        await client.close()

    or as an async context manager.  ``versions`` narrows what the client
    offers (a v1-only client sets ``versions=(1,)``).  ``request_timeout``
    bounds how long any single request may wait for its reply
    (:class:`RequestTimeoutError` past it; ``None`` waits forever).
    ``connector`` replaces the transport opener — the fault plane's seam.
    """

    def __init__(
        self,
        host: str,
        port: int,
        versions: Tuple[int, ...] = protocol.SUPPORTED_VERSIONS,
        client_id: str = "sae",
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        request_timeout: Optional[float] = None,
        connector: Optional[Connector] = None,
    ):
        if not versions:
            raise ValueError("the client must offer at least one version")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        self.host = host
        self.port = port
        self.versions = tuple(sorted(versions))
        self.client_id = client_id
        self.max_frame_bytes = max_frame_bytes
        self.request_timeout = request_timeout
        self._connector: Connector = connector or asyncio.open_connection
        #: The negotiated protocol version (None until connected).
        self.version: Optional[int] = None
        self.server_id: Optional[str] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = _request_ids()
        self._write_lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def connect(self) -> int:
        """Open the connection and negotiate; returns the agreed version."""
        if self._writer is not None:
            raise RuntimeError("client already connected")
        self._reader, self._writer = await self._connector(self.host, self.port)
        # Until the read loop takes ownership of the socket, *any* exit from
        # the handshake — typed rejection, malformed reply, a frame error or
        # connection cut mid-read — must close what we just opened, or every
        # failed connect leaks a socket.
        try:
            hello = Hello(
                min_version=self.versions[0],
                max_version=self.versions[-1],
                client_id=self.client_id,
            )
            self._writer.write(protocol.encode_frame(hello, protocol.PROTOCOL_V1))
            await self._writer.drain()
            body = await protocol.read_frame(self._reader, self.max_frame_bytes)
            reply = protocol.decode_body(body, expected_version=None)
            if isinstance(reply, Error):
                raise ServerError(reply.code, reply.detail)
            if not isinstance(reply, Welcome):
                raise ProtocolError(
                    protocol.ERR_MALFORMED,
                    f"expected WELCOME, got kind 0x{reply.KIND:02x}",
                )
            version = reply.wire_version
            if not self.versions[0] <= version <= self.versions[-1]:
                raise ProtocolError(
                    protocol.ERR_VERSION,
                    f"server chose v{version}, offered {self.versions}",
                )
        except BaseException:
            await self._teardown()
            raise
        self.version = version
        self.server_id = reply.server_id
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return version

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                # The expected outcome of cancelling the read loop; any
                # other exception is a real bug and must surface.
                pass
            self._reader_task = None
        await self._teardown()

    async def _teardown(self) -> None:
        self._fail_pending(ConnectionError("connection closed"))
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
        self._reader = None
        self._writer = None
        self.version = None

    async def __aenter__(self) -> "NetworkKmsClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    async def status(self, pair: Pair) -> StatusOk:
        """The pair's store levels (v2 adds the depletion rate)."""
        reply = await self._request(Status(pair=pair))
        return self._expect(reply, StatusOk)

    async def capabilities(self) -> CapabilitiesOk:
        reply = await self._request(Capabilities())
        return self._expect(reply, CapabilitiesOk)

    async def reserve(self, pair: Pair, bits: int) -> ReservationHandle:
        reply = await self._request(Reserve(pair=pair, bits=bits))
        ok = self._expect(reply, ReserveOk)
        return ReservationHandle(
            pair=pair,
            reservation_id=ok.reservation_id,
            bits=ok.bits,
            lease_ms=ok.lease_ms,
        )

    async def consume(self, reservation: ReservationHandle) -> ServedKey:
        return await self._key_request(
            Consume(pair=reservation.pair, reservation_id=reservation.reservation_id)
        )

    async def _key_request(self, message: Consume | GetKey) -> ServedKey:
        ok = self._expect(await self._request(message), ConsumeOk)
        return ServedKey(
            pair=message.pair,
            reservation_id=ok.reservation_id,
            key_bits=ok.key_bits,
            key_bytes=ok.key_bytes,
        )

    async def release(self, reservation: ReservationHandle) -> int:
        reply = await self._request(
            Release(pair=reservation.pair, reservation_id=reservation.reservation_id)
        )
        return self._expect(reply, ReleaseOk).reservation_id

    async def get_key(self, pair: Pair, bits: int) -> ServedKey:
        """One key (the ETSI ``get_key`` shape): a single GET_KEY at v4, a
        reserve then a consume on a connection that negotiated less."""
        if (self.version or 0) >= protocol.PROTOCOL_V4:
            return await self._key_request(GetKey(pair=pair, bits=bits))
        reservation = await self.reserve(pair, bits)
        try:
            return await self.consume(reservation)
        except ServerError:
            # The reservation may still be held server-side; free it so the
            # bits do not stay invisible to other clients.
            try:
                await self.release(reservation)
            except (ServerError, ConnectionError):
                pass
            raise

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    @property
    def connected(self) -> bool:
        return self._writer is not None and self.version is not None

    async def _request(self, message: Message) -> Message:
        if self._writer is None or self.version is None:
            raise RuntimeError("client is not connected")
        message.request_id = next(self._ids)
        while message.request_id in self._pending:
            # Round the id space once already and this one still awaits its
            # reply: a second request under it would steal that reply.
            message.request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[message.request_id] = future
        try:
            async with self._write_lock:
                self._writer.write(protocol.encode_frame(message, self.version))
                await self._writer.drain()
            if self.request_timeout is None:
                return await future
            try:
                # ``wait_for`` cancels the future on timeout, so a reply
                # that arrives late is dropped by the read loop's ``done()``
                # guard rather than resolving a request nobody awaits.
                return await asyncio.wait_for(future, self.request_timeout)
            except asyncio.TimeoutError:
                raise RequestTimeoutError(
                    f"{type(message).__name__} request {message.request_id} "
                    f"exceeded {self.request_timeout:.3f}s"
                ) from None
        finally:
            self._pending.pop(message.request_id, None)

    async def _read_loop(self) -> None:
        try:
            while True:
                body = await protocol.read_frame(self._reader, self.max_frame_bytes)
                reply = protocol.decode_body(body, expected_version=self.version)
                future = self._pending.get(reply.request_id)
                if isinstance(reply, Error):
                    error = ServerError(reply.code, reply.detail)
                    if future is not None and not future.done():
                        future.set_exception(error)
                    if reply.code in protocol.FATAL_ERRORS:
                        self._fail_pending(error)
                        return
                elif future is not None and not future.done():
                    future.set_result(reply)
        except asyncio.CancelledError:
            raise
        except (asyncio.IncompleteReadError, ConnectionError):
            self._fail_pending(ConnectionError("server closed the connection"))
        except ProtocolError as exc:
            self._fail_pending(exc)

    def _fail_pending(self, error: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    @staticmethod
    def _expect(reply: Message, expected: type) -> Message:
        if not isinstance(reply, expected):
            raise ProtocolError(
                protocol.ERR_MALFORMED,
                f"expected {expected.__name__}, got {type(reply).__name__}",
            )
        return reply

    def __repr__(self) -> str:
        state = f"v{self.version}" if self.version else "disconnected"
        return f"NetworkKmsClient({self.host}:{self.port}, {state})"
