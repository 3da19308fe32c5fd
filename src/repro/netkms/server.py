"""The asyncio key-delivery server: KeyStores behind a TCP front end.

:class:`NetworkKmsServer` exposes per-pair :class:`~repro.kms.store.KeyStore`
reservoirs to many concurrent SAE clients over the
:mod:`repro.netkms.protocol` framing.  **No two clients ever receive
overlapping key material**: every key is drawn by ``store.draw(reservation)``,
and the store's pools refuse draws that would invade another reservation.

A key leaves a store in two steps, each with one body: the *grant* claims
the bits, the *serve* draws them, counts them once and keeps the reply
replayable.  RESERVE is the grant and a hold under a lease; CONSUME takes
the held reservation (or answers from the replay cache) and serves;
GET_KEY is the grant and the serve inside one handler call, so its
reservation is never held and no lease can lapse in between.

Concurrency model
-----------------

One :class:`asyncio.Protocol` object per connection, and no task per
connection or per request: ``data_received`` splits whole frames out of the
connection's buffer and, for each, decodes it, runs its handler and writes
the reply before it returns, so a connection's requests are answered in
arrival order (clients may pipeline — replies echo the request id).  The
handlers are plain functions over synchronous store operations, so nothing
can run between a request's lookup and its draw: the atomicity that the
no-overlap guarantee needs is structural, not a lock.  Only a slow reader
holds frames back: while the transport's write buffer is past its
high-water mark (``pause_writing``) the connection stops reading, and
``resume_writing`` answers the frames buffered meanwhile, in order.

Leases, reaping and the drain
-----------------------------

A held reservation is a *lease*: it names the connection that made it and
expires :data:`LEASE_SECONDS` after the grant.  Only a connection under that
connection's HELLO ``client_id`` may consume or release it.  A closing
connection's reservations are reaped at once.  Expired leases are reaped
lazily, with no sweep: every request and every closing connection (``stop()``
closes them all) reaps first, which is one comparison until the loop's clock
(all the server's time) reaches the earliest outstanding deadline.
Consumed reservations stay in a bounded **replay cache**, so a CONSUME
retried after a lost reply — on a new connection too, under the
``client_id`` the key was served to — re-delivers the same bytes and draws
nothing.  Another client's held or served reservation reads as an unknown
id.  ``client_id`` is unauthenticated: the rule stops a client reading
another's key by mistake or by counting ids, not one that forges another's
``client_id``.

``stop()`` is itself what signals the drain: it answers every connection
parked between requests with ``SHUTTING_DOWN`` (request id 0) and closes
it.  A slow reader is left to read: the replies already written reach it,
then the first request still buffered is refused under its own id, or,
with none, the same farewell follows; ``drain_timeout`` aborts a reader
that never reads.  Every reservation still held at the end is reaped as
its connection closes.  Malformed frames are answered with a typed ERROR;
the fatal codes (:data:`~repro.netkms.protocol.FATAL_ERRORS`) also close
the connection.
docs/API.md "Failure semantics" has the full contract.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.kms.store import ConservationError, KeyReservation, KeyStore
from repro.kms.store import KeyStoreExhaustedError, ReservationError
from repro.netkms import protocol
from repro.netkms.metrics import NetKmsMetrics
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
    Status,
    StatusOk,
    Welcome,
)

Pair = Tuple[str, str]

#: Largest reservation one request may claim; bounds both the store impact
#: of a hostile RESERVE and the size of the CONSUME_OK reply frame.
MAX_RESERVE_BITS = 1 << 15

#: The lease on a granted reservation (seconds of the loop's clock).  On a
#: virtual-time loop a lapse costs no wall time, so no test needs it shorter.
LEASE_SECONDS = 30.0

#: Most recently consumed reservations kept for idempotent CONSUME replay.
REPLAY_CACHE_LIMIT = 1024


@dataclass
class HeldReservation:
    """One granted-but-unconsumed reservation and its lease terms."""

    reservation: KeyReservation
    #: Connection that created it; its close reaps the reservation, and only
    #: a connection under its HELLO ``client_id`` may consume or release it
    #: (a client that reconnects retries on a new connection, possibly
    #: while the old one is still open).
    owner: int
    #: Loop-clock deadline after which reaping returns the bits.
    expires_at: float


@dataclass
class ServedReservation:
    """A consumed reservation retained for idempotent CONSUME replay."""

    key_bits: int
    key_bytes: bytes
    expires_at: float
    #: The HELLO ``client_id`` it was served to: only a connection under
    #: that id is answered from the entry.
    client_id: Optional[str]


class NetworkKmsServer:
    """Serve ``stores`` (pair -> :class:`KeyStore`) over asyncio TCP.

    Usage::

        server = NetworkKmsServer({pair: store}, port=0)
        await server.start()          # binds; server.port is now real
        ...                           # clients connect / request
        await server.stop()           # graceful drain (see ``stop``)

    or as an async context manager.
    """

    #: The name WELCOME announces to every client.
    server_id = "kme"

    def __init__(
        self,
        stores: Mapping[Pair, KeyStore],
        host: str = "127.0.0.1",
        port: int = 0,
        max_reserve_bits: int = MAX_RESERVE_BITS,
        replay_retention_seconds: Optional[float] = None,
    ):
        self.stores: Dict[Pair, KeyStore] = {
            (str(a), str(b)): store for (a, b), store in stores.items()
        }
        if not self.stores:
            raise ValueError("the server needs at least one pair's store")
        self.host = host
        self.port = port
        self.max_reserve_bits = max_reserve_bits
        #: How long a consumed reservation stays replayable.  Must exceed
        #: the longest client retry window, or a retried CONSUME could miss
        #: the cache and wrongly read as "reaped before consume".
        self.replay_retention_seconds = (
            replay_retention_seconds
            if replay_retention_seconds is not None
            else 10.0 * LEASE_SECONDS
        )
        retention = self.replay_retention_seconds
        if not (math.isfinite(retention) and retention > 0):
            raise ValueError(
                f"replay_retention_seconds must be finite and positive, got {retention}"
            )
        self.metrics = NetKmsMetrics()
        #: The one clock of leases, the replay window and store timestamps:
        #: ``start()`` binds the loop's; until then, the default loop's.
        self._now = time.monotonic
        #: What that clock reads at ``start()``; ``None`` keeps the loop's own
        #: reading.  A KMS front end sets the service's simulated time here
        #: (:meth:`~repro.kms.service.KeyManagementService.serve_network`), so
        #: its stores see one timeline across the service and the network.
        self.time_at_start: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: Held reservations by (pair, reservation id); the id space is the
        #: store's own, so release/consume validate against live state.
        self._held: Dict[Tuple[Pair, int], HeldReservation] = {}
        #: Recently consumed reservations, for idempotent CONSUME replay,
        #: oldest first.
        self._served: OrderedDict[Tuple[Pair, int], ServedReservation] = OrderedDict()
        #: A lower bound on every ``expires_at`` in ``_held`` and ``_served``:
        #: lowered when an entry is added, never raised when one leaves, and
        #: made exact again by each scan.  ``reap_expired`` before it has
        #: nothing to find.
        self._earliest_deadline = math.inf
        self._conn_ids = itertools.count(1)
        #: Open connections, by connection id.
        self._connections: Dict[int, _Connection] = {}
        #: Set by the last connection to close once ``stop()`` waits for it.
        self._all_closed: Optional[asyncio.Future] = None
        self._draining = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "NetworkKmsServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._draining = False
        loop = asyncio.get_running_loop()
        self._now = loop.time
        if self.time_at_start is not None:
            offset = self.time_at_start - loop.time()
            self._now = lambda: loop.time() + offset
        self._server = await loop.create_server(
            lambda: _Connection(self), host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.metrics = NetKmsMetrics()
        return self

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Drain and shut down (see "Leases, reaping and the drain" above);
        connections still open after ``drain_timeout`` are aborted, each
        closing connection reaps what it holds, and the replay cache is
        cleared.  Raises :class:`ConservationError` if a granted reservation
        is then unaccounted for (:meth:`conservation_fault`) or still held."""
        if self._server is None:
            return
        self._draining = True
        for conn in list(self._connections.values()):
            conn.dismiss_if_idle()
        listener, self._server = self._server, None
        listener.close()
        if self._connections:
            self._all_closed = asyncio.get_running_loop().create_future()
            _done, late = await asyncio.wait({self._all_closed}, timeout=drain_timeout)
            if late:
                for conn in list(self._connections.values()):
                    conn.abort()
                await self._all_closed
            self._all_closed = None
        # Since Python 3.12.1 this also waits for every connection to go,
        # so it comes after the drain, not before its timeout.
        await listener.wait_closed()
        self._served.clear()
        fault = self.conservation_fault()
        if fault is None and self._held:
            fault = f"server {self.server_id}: {len(self._held)} reservations held after the drain"
        if fault is not None:
            raise ConservationError(fault)

    async def __aenter__(self) -> "NetworkKmsServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Reaping
    # ------------------------------------------------------------------ #

    def reap_expired(self) -> int:
        """Release reservations whose lease has expired by the loop's clock;
        returns bits freed.

        Runs lazily before every request and on every closing connection.
        Also evicts replay-cache entries past their retention window.  A call before the earliest outstanding deadline
        is one comparison; only a call at or past it looks at the entries,
        and leaves the bound exact.
        """
        now = self._now()
        if now < self._earliest_deadline:
            return 0
        freed = 0
        for key in [k for k, held in self._held.items() if held.expires_at <= now]:
            freed += self._reap_one(key, "lease-expired")
        for key in [k for k, entry in self._served.items() if entry.expires_at <= now]:
            del self._served[key]
        outstanding = itertools.chain(self._held.values(), self._served.values())
        self._earliest_deadline = min((e.expires_at for e in outstanding), default=math.inf)
        return freed

    def _reap_connection(self, conn_id: int) -> int:
        """Release everything a closing connection still holds."""
        freed = 0
        for key in [k for k, held in self._held.items() if held.owner == conn_id]:
            freed += self._reap_one(key, "disconnect")
        return freed

    def _reap_one(self, key: Tuple[Pair, int], reason: str) -> int:
        """Return one held reservation's bits to its store (synchronous —
        no await between the lookup and the release, so reaping can never
        race a consume on the same reservation)."""
        held = self._held.pop(key, None)
        if held is None:
            return 0
        pair = key[0]
        store = self.stores[pair]
        store.release(held.reservation)
        self.metrics.note_reaped(held.reservation.bits, reason)
        return held.reservation.bits

    def conservation_fault(self) -> Optional[str]:
        """``None`` while every reservation this server granted is still
        held in its store, or was served, released by its client, reaped or
        spent by a draw that failed; otherwise the server's numbers."""
        m, held = self.metrics, [entry.reservation for entry in self._held.values()]
        ended = (m.keys_served, m.reservations_released, m.reservations_reaped, m.draws_failed)
        active = sum(reservation.active for reservation in held)
        if m.reservations_granted == len(held) + sum(ended) and active == len(held):
            return None
        return (
            f"server {self.server_id}: {m.reservations_granted} reservations granted,"
            f" {len(held)} held ({active} in their stores), {ended[0]} served, {ended[1]}"
            f" released, {ended[2]} reaped, {ended[3]} spent by failed draws"
        )

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _dispatch(self, message: Message, conn_id: int) -> Message:
        """The reply to ``message``, or the typed refusal; a request that
        reaches its handler is counted and sees lapsed leases reaped."""
        if self._draining:
            # A request not answered before draining began is "new".
            raise ProtocolError(protocol.ERR_SHUTTING_DOWN, "server is draining")
        handler = _HANDLERS.get(message.KIND)
        if handler is None:
            raise ProtocolError(
                protocol.ERR_MALFORMED,
                f"{type(message).__name__} is not a client request",
            )
        self.metrics.note_request(type(message).__name__)
        self.reap_expired()
        return handler(self, message, conn_id)

    # ------------------------------------------------------------------ #
    # Request handlers
    # ------------------------------------------------------------------ #

    def _store_for(self, pair: Pair) -> KeyStore:
        store = self.stores.get(pair)
        if store is None:
            raise ProtocolError(
                protocol.ERR_UNKNOWN_PAIR,
                f"no store for pair {pair[0]}--{pair[1]}",
            )
        return store

    def _on_status(self, message: Status, conn_id: int) -> StatusOk:
        store = self._store_for(message.pair)
        return StatusOk(
            request_id=message.request_id,
            pair=store.pair,
            available_bits=store.available_bits,
            reserved_bits=store.reserved_bits,
            unreserved_bits=store.unreserved_bits,
            low_water_bits=store.low_water_bits,
            high_water_bits=store.high_water_bits,
            capacity_bits=store.capacity_bits,
            depletion_rate_millibps=int(store.depletion_rate_bps * 1000),
        )

    def _on_capabilities(self, message: Capabilities, conn_id: int) -> CapabilitiesOk:
        return CapabilitiesOk(
            request_id=message.request_id,
            max_frame_bytes=protocol.MAX_FRAME_BYTES,
            max_reserve_bits=self.max_reserve_bits,
            pairs=tuple(sorted(self.stores)),
        )

    def _grant(self, store: KeyStore, bits: int, now: float) -> KeyReservation:
        """Step one: claim ``bits`` bits of ``store``."""
        started = time.perf_counter()
        if not 0 < bits <= self.max_reserve_bits:
            raise ProtocolError(
                protocol.ERR_LIMIT,
                f"reserve of {bits} bits outside (0, {self.max_reserve_bits}]",
            )
        try:
            reservation = store.reserve(bits, now=now)
        except KeyStoreExhaustedError as exc:
            self.metrics.note_reserve(time.perf_counter() - started, granted=False)
            raise ProtocolError(protocol.ERR_EXHAUSTED, str(exc)) from None
        self.metrics.note_reserve(time.perf_counter() - started, granted=True)
        return reservation

    def _serve(
        self,
        store: KeyStore,
        reservation: KeyReservation,
        message: Consume | GetKey,
        now: float,
        conn_id: int,
    ) -> ConsumeOk:
        """Step two: draw the reserved bits, count them once, and keep the
        reply replayable, for this client only, for the retention window."""
        # Both endpoints' pools advance in lock-step, exactly as the
        # in-process gateways do, so the store stays synchronised for
        # every later consumer; the (identical) material is served once.
        try:
            key = store.draw(reservation, now)
        except ReservationError as exc:
            self.metrics.draws_failed += 1
            raise ProtocolError(protocol.ERR_INTERNAL, str(exc)) from None
        key_bits, key_bytes = len(key), key.to_bytes()
        self.metrics.note_key_served(key_bytes, key_bits)
        expires_at = now + self.replay_retention_seconds
        self._served[(message.pair, reservation.reservation_id)] = ServedReservation(
            key_bits, key_bytes, expires_at, self._client_id(conn_id)
        )
        if expires_at < self._earliest_deadline:
            self._earliest_deadline = expires_at
        if len(self._served) > REPLAY_CACHE_LIMIT:
            # One entry in, so at most one out: the oldest.
            self._served.popitem(last=False)
        return ConsumeOk(message.request_id, reservation.reservation_id, key_bits, key_bytes)

    def _client_id(self, conn_id: int) -> Optional[str]:
        """The ``client_id`` connection ``conn_id`` said HELLO with."""
        connection = self._connections.get(conn_id)
        return connection.client_id if connection is not None else None

    def _take_held(self, message: Consume | Release, conn_id: int) -> KeyReservation:
        """The held reservation ``message`` names, if the connection that
        holds it said HELLO under ``conn_id``'s ``client_id``; another
        client's reservation reads as no reservation at all."""
        key = (message.pair, message.reservation_id)
        held = self._held.get(key)
        if held is None or self._client_id(held.owner) != self._client_id(conn_id):
            raise ProtocolError(
                protocol.ERR_UNKNOWN_RESERVATION,
                f"no held reservation {message.reservation_id} "
                f"for {message.pair[0]}--{message.pair[1]}",
            )
        del self._held[key]
        return held.reservation

    def _on_reserve(self, message: Reserve, conn_id: int) -> ReserveOk:
        store = self._store_for(message.pair)
        now = self._now()
        reservation = self._grant(store, message.bits, now)
        expires_at = now + LEASE_SECONDS
        self._held[(message.pair, reservation.reservation_id)] = HeldReservation(
            reservation=reservation,
            owner=conn_id,
            expires_at=expires_at,
        )
        if expires_at < self._earliest_deadline:
            self._earliest_deadline = expires_at
        return ReserveOk(
            request_id=message.request_id,
            reservation_id=reservation.reservation_id,
            bits=reservation.bits,
            lease_ms=int(LEASE_SECONDS * 1000),
        )

    def _on_get_key(self, message: GetKey, conn_id: int) -> ConsumeOk:
        store = self._store_for(message.pair)
        now = self._now()
        return self._serve(store, self._grant(store, message.bits, now), message, now, conn_id)

    def _on_consume(self, message: Consume, conn_id: int) -> ConsumeOk:
        store = self._store_for(message.pair)
        now = self._now()
        replay = self._served.get((message.pair, message.reservation_id))
        if replay is not None and replay.client_id == self._client_id(conn_id):
            # Idempotent retry: the reservation was already consumed but
            # the reply may never have reached the client, which may have
            # reconnected since.  Re-deliver the identical bytes; the
            # material was served (and entered the digest) exactly once.
            self.metrics.note_replay()
            return ConsumeOk(
                request_id=message.request_id,
                reservation_id=message.reservation_id,
                key_bits=replay.key_bits,
                key_bytes=replay.key_bytes,
            )
        return self._serve(store, self._take_held(message, conn_id), message, now, conn_id)

    def _on_release(self, message: Release, conn_id: int) -> ReleaseOk:
        store = self._store_for(message.pair)
        store.release(self._take_held(message, conn_id))
        self.metrics.reservations_released += 1
        return ReleaseOk(
            request_id=message.request_id,
            reservation_id=message.reservation_id,
        )

    def _write_error(self, transport, request_id: int, exc: ProtocolError, version: int) -> None:
        self.metrics.note_error(exc.code)
        error = Error(request_id=request_id, code=exc.code, detail=exc.detail)
        transport.write(protocol.encode_frame(error, version))

    def __repr__(self) -> str:
        state = "up" if self._server is not None else "down"
        return (
            f"NetworkKmsServer({len(self.stores)} pairs on "
            f"{self.host}:{self.port}, {state})"
        )


class _Connection(asyncio.Protocol):
    """One client connection: frames in, each answered before the callback
    that completed it returns (see "Concurrency model" above)."""

    def __init__(self, server: NetworkKmsServer):
        self.server = server
        self.conn_id = next(server._conn_ids)
        self.frames = protocol.FrameSplitter()
        self.transport: Optional[asyncio.Transport] = None
        self.version: Optional[int] = None  # until HELLO is answered
        self.client_id: Optional[str] = None  # as HELLO named the client
        #: The write buffer is past its high-water mark: the frames
        #: buffered behind wait for ``resume_writing``.
        self.write_paused = False
        #: The peer half-closed; this end asked to close (or the transport
        #: is gone).
        self.eof = self.closing = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections[self.conn_id] = self
        self.server.metrics.connections_opened += 1

    def data_received(self, data: bytes) -> None:
        self.frames.feed(data)
        self._answer_buffered()

    def eof_received(self) -> bool:
        self.eof = True
        # Keep the socket half-open while buffered requests owe replies.
        return self.write_paused

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self.transport.resume_reading()
        self._answer_buffered()

    def connection_lost(self, exc) -> None:
        self.closing = True
        self._finish()

    def _answer_buffered(self) -> None:
        """Answer every whole frame buffered, in order, until the write
        buffer fills."""
        server = self.server
        while not (self.write_paused or self.closing):
            try:
                body = self.frames.next_frame()
            except ProtocolError as exc:
                # The stream is out of frame sync; report and drop it.
                self._refuse(0, exc)
                return
            if body is None:
                if server._draining and self.version is not None:
                    self.dismiss_if_idle()
                elif self.eof:
                    self._close()
                return
            version = self.version
            if version is None:
                self._handshake(body)
                continue
            try:
                message = protocol.decode_body(body, expected_version=version)
                reply = server._dispatch(message, self.conn_id)
            except ProtocolError as exc:
                self._refuse(_request_id_of(body), exc)
                continue
            self.transport.write(protocol.encode_frame(reply, version))

    def _handshake(self, body: bytes) -> None:
        """Answer HELLO with WELCOME, or refuse (at the floor byte) and close."""
        server = self.server
        try:
            hello = protocol.decode_body(body, expected_version=None)
            if not isinstance(hello, Hello):
                raise ProtocolError(
                    protocol.ERR_MALFORMED,
                    f"expected HELLO, got kind 0x{hello.KIND:02x}",
                )
            if server._draining:
                raise ProtocolError(protocol.ERR_SHUTTING_DOWN, "server is draining")
            version = protocol.negotiate(hello.min_version, hello.max_version)
            if version is None:
                raise ProtocolError(
                    protocol.ERR_VERSION,
                    f"client speaks v{hello.min_version}..v{hello.max_version}, "
                    f"server speaks {list(protocol.SUPPORTED_VERSIONS)}",
                )
        except ProtocolError as exc:
            self._refuse(0, exc)  # every refusal here is fatal
            return
        self.version, self.client_id = version, hello.client_id
        welcome = Welcome(server_id=server.server_id)
        self.transport.write(protocol.encode_frame(welcome, version))

    def _refuse(self, request_id: int, exc: ProtocolError) -> None:
        """Answer a typed error; a fatal one also closes the connection."""
        self.server._write_error(
            self.transport, request_id, exc, self.version or protocol.FLOOR_VERSION
        )
        if exc.fatal:
            self._close()

    def dismiss_if_idle(self) -> None:
        """Tell a connection parked between requests that the server is
        draining, and close it."""
        if self.version is None or self.write_paused or self.closing:
            return
        self._refuse(0, ProtocolError(protocol.ERR_SHUTTING_DOWN, "server is draining"))

    def _close(self) -> None:
        self.closing = True
        self.transport.close()

    def abort(self) -> None:
        self.closing = True
        self.transport.abort()

    def _finish(self) -> None:
        server = self.server
        del server._connections[self.conn_id]
        server.reap_expired()
        server._reap_connection(self.conn_id)
        server.metrics.connections_closed += 1
        closed = server._all_closed
        if not server._connections and closed is not None and not closed.done():
            closed.set_result(None)


#: Request kind -> handler.  (Plain functions, so a server holds no
#: reference to itself.)
_HANDLERS = {
    cls.KIND: handler
    for cls, handler in (
        (Status, NetworkKmsServer._on_status),
        (Capabilities, NetworkKmsServer._on_capabilities),
        (Reserve, NetworkKmsServer._on_reserve),
        (Consume, NetworkKmsServer._on_consume),
        (Release, NetworkKmsServer._on_release),
        (GetKey, NetworkKmsServer._on_get_key),
    )
}


def _request_id_of(body: bytes) -> int:
    """Best-effort request id from a frame that failed to decode."""
    if len(body) >= 6:
        return int.from_bytes(body[2:6], "little")
    return 0
