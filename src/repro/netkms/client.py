"""The asyncio client library for the networked key-delivery protocol.

:class:`NetworkKmsClient` is what an SAE (an IKE daemon, a one-time-pad
encryptor, a benchmark worker) uses to draw key from a
:class:`~repro.netkms.server.NetworkKmsServer`: connect (the HELLO/WELCOME
negotiation), then ``reserve`` / ``consume`` / ``status`` / ``capabilities``,
or ``get_key`` — one GET_KEY round trip.  The
reservation never leaves ``get_key``, so a lost reply costs the key;
callers that cannot afford that use
:class:`~repro.netkms.resilient.ResilientKmsClient`.

Many tasks may issue requests over one connection: each request carries a
fresh id and is written straight to the transport, and the connection's
:class:`asyncio.Protocol` resolves the issuing task's future inside the
callback that received the reply — no reader task, no write lock.  A reply
stream that fails (closed, reset, out of frame sync, a fatal ERROR) closes
the connection on the spot: every pending request fails with that error,
``connected`` turns ``False``, and a later request raises
:class:`ConnectionError` without writing anything.
"""

from __future__ import annotations

import asyncio
import math
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
    Reserve,
    ReserveOk,
    ServerError,
    Status,
    StatusOk,
    Welcome,
)

Pair = Tuple[str, str]

#: ``connector(host, port, protocol_factory)`` opens the connection and
#: returns ``(transport, protocol)``, as :meth:`asyncio.loop.create_connection`
#: does; the default is exactly that.  The fault plane substitutes a wrapper
#: that injects connection refusals, delays, and frame corruption.
Connector = Callable[
    [str, int, Callable[[], asyncio.Protocol]],
    Awaitable[Tuple[asyncio.BaseTransport, asyncio.Protocol]],
]


async def open_connection(host: str, port: int, protocol_factory):
    """The default connector: a plain TCP connection."""
    return await asyncio.get_running_loop().create_connection(protocol_factory, host, port)


def _request_ids(first: int = 1) -> Iterator[int]:
    """Request ids without end: up to the largest the header's u32 carries,
    then round again from 1 (0 is the server's "no request" id)."""
    while True:
        yield from range(first, 0xFFFFFFFF + 1)
        first = 1


class RequestTimeoutError(TimeoutError):
    """A request outlived its per-request timeout.  The reply may still
    arrive (and is dropped) or the request may never have been processed;
    :class:`~repro.netkms.resilient.ResilientKmsClient` reconnects and
    re-issues under the idempotency rules of docs/API.md."""


@dataclass
class ReservationHandle:
    """A server-side reservation this client holds."""

    pair: Pair
    reservation_id: int
    bits: int
    #: The lease TTL the server granted, in milliseconds.
    lease_ms: int = 0


@dataclass
class ServedKey:
    """Key material the server delivered for one consumed reservation."""

    pair: Pair
    reservation_id: int
    key_bits: int
    key_bytes: bytes


class _Connection(asyncio.Protocol):
    """One connection's reply side: frames in, futures resolved."""

    def __init__(self, pending: Dict[int, asyncio.Future]):
        self.pending = pending  # the client's, by request id
        self.frames = protocol.FrameSplitter()
        self.transport = None
        self.version: Optional[int] = None  # as WELCOME announced it
        loop = asyncio.get_running_loop()
        self.welcome = loop.create_future()  # the server's answer to HELLO
        self.closed = loop.create_future()  # resolved once the transport is gone
        #: Why the connection stopped serving; ``None`` while it serves.
        self.failure: Optional[Exception] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        frames = self.frames
        frames.feed(data)
        pending = self.pending
        try:
            while self.failure is None:
                body = frames.next_frame()
                if body is None:
                    return
                reply = protocol.decode_body(body, expected_version=self.version)
                if self.version is None:  # the answer to HELLO; connect() judges it
                    if not self.welcome.done():
                        self.welcome.set_result(reply)
                        if isinstance(reply, Welcome):
                            self.version = reply.wire_version
                    continue
                future = pending.get(reply.request_id)
                if isinstance(reply, Error):
                    error = ServerError(reply.code, reply.detail)
                    if future is not None and not future.done():
                        future.set_exception(error)
                    if reply.code in protocol.FATAL_ERRORS:
                        self.fail(error)
                elif future is not None and not future.done():
                    future.set_result(reply)
        except ProtocolError as exc:
            self.fail(exc)

    def connection_lost(self, exc) -> None:
        if self.version is None:
            # Mid-handshake: the open failed the way a stream read would.
            self.fail(exc or asyncio.IncompleteReadError(bytes(self.frames.buffer), None))
        else:
            self.fail(ConnectionError("server closed the connection"))
        self.closed.set_result(None)

    def fail(self, error: Exception) -> None:
        """Stop serving: close the transport and fail every pending request."""
        if self.failure is None:
            self.failure = error
            self.transport.close()
            if not self.welcome.done():
                self.welcome.set_exception(error)
                # connect() may be past awaiting it (the HELLO write itself
                # failed): mark it retrieved, or asyncio logs it unretrieved.
                self.welcome.exception()
        for future in self.pending.values():
            if not future.done():
                future.set_exception(error)
        self.pending.clear()


class NetworkKmsClient:
    """One SAE connection to a network KMS.

    Usage::

        client = NetworkKmsClient("127.0.0.1", server.port)
        await client.connect()              # negotiates the version
        key = await client.get_key(pair, bits=1024)
        await client.close()

    or as an async context manager.  ``request_timeout`` bounds how long
    any single request may wait for its reply (:class:`RequestTimeoutError`
    past it; ``None`` waits forever).
    ``connector`` replaces the transport opener — the fault plane's seam.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str = "sae",
        request_timeout: Optional[float] = None,
        connector: Optional[Connector] = None,
    ):
        timeout = request_timeout
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"request_timeout must be finite and positive, got {timeout}")
        self.host = host
        self.port = port
        self.client_id = client_id
        self.request_timeout = request_timeout
        self._connector: Connector = connector or open_connection
        #: The negotiated protocol version (None until connected).
        self.version: Optional[int] = None
        self.server_id: Optional[str] = None
        self._connection: Optional[_Connection] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = _request_ids()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def connect(self) -> int:
        """Open the connection and negotiate; returns the agreed version."""
        if self._connection is not None:
            raise RuntimeError("client already connected")
        _transport, self._connection = await self._connector(
            self.host, self.port, lambda: _Connection(self._pending)
        )
        # *Any* exit from the handshake — typed rejection, malformed reply,
        # a frame error or a connection cut mid-read — must close what we
        # just opened, or every failed connect leaks a socket.
        try:
            hello = Hello(client_id=self.client_id)
            self._connection.transport.write(protocol.encode_frame(hello, protocol.FLOOR_VERSION))
            # decode_body refuses a WELCOME announcing a version not offered.
            reply = await self._connection.welcome
            if isinstance(reply, Error):
                raise ServerError(reply.code, reply.detail)
            if not isinstance(reply, Welcome):
                raise ProtocolError(
                    protocol.ERR_MALFORMED,
                    f"expected WELCOME, got kind 0x{reply.KIND:02x}",
                )
        except BaseException:
            await self.close()
            raise
        self.version = reply.wire_version
        self.server_id = reply.server_id
        return self.version

    async def close(self) -> None:
        connection, self._connection = self._connection, None
        self.version = None
        if connection is not None:
            connection.fail(ConnectionError("connection closed"))
            await connection.closed

    async def __aenter__(self) -> "NetworkKmsClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    async def status(self, pair: Pair) -> StatusOk:
        """The pair's store levels and its depletion rate."""
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

    async def get_key(self, pair: Pair, bits: int) -> ServedKey:
        """One key (the ETSI ``get_key`` shape) in a single GET_KEY frame."""
        return await self._key_request(GetKey(pair=pair, bits=bits))

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    @property
    def connected(self) -> bool:
        connection = self._connection
        return connection is not None and connection.failure is None and self.version is not None

    async def _request(self, message: Message) -> Message:
        connection = self._connection
        if connection is None or self.version is None:
            raise RuntimeError("client is not connected")
        if connection.failure is not None:
            raise ConnectionError(f"connection is down: {connection.failure}")
        message.request_id = next(self._ids)
        while message.request_id in self._pending:
            # Round the id space once already and this one still awaits its
            # reply: a second request under it would steal that reply.
            message.request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[message.request_id] = future
        try:
            connection.transport.write(protocol.encode_frame(message, self.version))
            if self.request_timeout is None:
                return await future
            try:
                # ``wait_for`` cancels the future on timeout, so a reply
                # that arrives late is dropped by the ``done()`` guard in
                # ``data_received`` rather than resolving a request nobody
                # awaits.
                return await asyncio.wait_for(future, self.request_timeout)
            except asyncio.TimeoutError:
                raise RequestTimeoutError(
                    f"{type(message).__name__} request {message.request_id} "
                    f"exceeded {self.request_timeout:.3f}s"
                ) from None
        finally:
            self._pending.pop(message.request_id, None)

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
