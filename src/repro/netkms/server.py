"""The asyncio key-delivery server: KeyStores behind a TCP front end.

:class:`NetworkKmsServer` exposes a set of per-pair
:class:`~repro.kms.store.KeyStore` reservoirs to many concurrent SAE clients
over the :mod:`repro.netkms.protocol` framing.  The contract it inherits
from the in-process store layer is the one that matters under concurrency:
**no two clients ever receive overlapping key material**, because every
key is drawn by ``store.draw(reservation)`` and the store's pools refuse
draws that would invade another consumer's reservation.

A key leaves a store in two steps, each with one body: the *grant* claims
the bits, the *serve* draws them, counts them once and keeps the reply
replayable.  RESERVE is the grant and a hold under a lease; CONSUME takes
the held reservation (or answers from the replay cache) and serves; v4's
GET_KEY is the grant and the serve inside one acquisition of the pair's
lock, so its reservation is never held and no lease can lapse in between.

Concurrency model
-----------------

One asyncio task per connection, and no other: the handler reads a frame,
dispatches it and writes the reply inline, so serving a request creates no
task.  Requests on a connection are answered in order (clients may pipeline
— responses echo the request id).  All store operations are synchronous and
are additionally serialized through a per-pair :class:`asyncio.Lock` around
the reserve-bookkeeping and consume-draw sections, so the no-overlap
guarantee does not silently depend on no ``await`` ever creeping between a
lookup and its draw.

Disruption tolerance
--------------------

A reservation is a *lease*, not a grant in perpetuity.  Every held
reservation records the connection that created it and an expiry deadline
(``lease_seconds`` past the grant, advertised to v3 clients as
``lease_ms`` on RESERVE_OK).  Two reapers close the reservation-leak
window a failing peer would otherwise open:

* **disconnect reap** — when a connection closes (peer death, link cut,
  fault injection), every reservation it still holds is released back to
  its store immediately;
* **lease reap** — reservations that outlive their lease (a half-open
  connection the TCP stack has not noticed is dead) are released by the
  periodic sweep (and lazily on every reserve/consume/release), so bits
  can never stay invisible forever.  The server keeps the earliest
  outstanding deadline, so a reap with nothing due — nearly every request
  — costs one comparison; the held reservations and the replay cache are
  looked through only when the clock has reached that deadline.

Consumed reservations enter a bounded **replay cache** for one lease term:
a client that lost the CONSUME_OK to a connection drop can reconnect and
re-issue the same CONSUME, and the server re-delivers the *same* bytes —
the material is drawn (and counted by the served digest) exactly once.
This is what makes CONSUME idempotent and the client's retry loop safe.

``stop()`` drains gracefully, and is itself what signals the drain — a
connection waiting for its next request watches nothing.  ``stop()`` writes
a typed ``SHUTTING_DOWN`` error (request id 0) to every connection parked
between requests and closes it, and closes the listener.  A connection in
mid-dispatch finishes its request and answers it; a request already
pipelined behind that one is rejected with ``SHUTTING_DOWN`` under its own
request id, and the connection closes.  Every still-held reservation is
then reaped so the stores are left clean.

Hostile input
-------------

Frames are validated before anything input-sized is allocated (length
prefix against ``max_frame_bytes``, every interior count against the bytes
present), mirroring the transcript codec's decode-validation contract.
Violations are answered with a typed ERROR frame; fatal codes
(:data:`repro.netkms.protocol.FATAL_ERRORS`) also close the connection,
because an out-of-sync or version-less stream cannot be reframed.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.kms.store import KeyReservation, KeyStore, KeyStoreExhaustedError, ReservationError
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

#: Default lease on a granted reservation (seconds of the server's clock).
DEFAULT_LEASE_SECONDS = 30.0

#: Most recently consumed reservations kept for idempotent CONSUME replay.
REPLAY_CACHE_LIMIT = 1024


@dataclass
class HeldReservation:
    """One granted-but-unconsumed reservation and its lease terms."""

    reservation: KeyReservation
    #: Connection that created it; its close reaps the reservation.  The
    #: owner is a *reaping* responsibility, not an access restriction — a
    #: client that reconnects may legitimately consume by id from a new
    #: connection (racing the old connection's disconnect reap; whichever
    #: side wins, the bits are served or returned exactly once).
    owner: int
    #: Server-clock deadline after which the lease reaper returns the bits.
    expires_at: float


@dataclass
class ServedReservation:
    """A consumed reservation retained for idempotent CONSUME replay."""

    key_bits: int
    key_bytes: bytes
    expires_at: float


@dataclass
class _Connection:
    """What :meth:`NetworkKmsServer.stop` needs to dismiss a connection."""

    writer: asyncio.StreamWriter
    version: int
    #: True while the handler is parked in (or about to enter) its frame
    #: read, i.e. no request of this connection is being dispatched.
    idle: bool = True


class NetworkKmsServer:
    """Serve ``stores`` (pair -> :class:`KeyStore`) over asyncio TCP.

    Usage::

        server = NetworkKmsServer({pair: store}, port=0)
        await server.start()          # binds; server.port is now real
        ...                           # clients connect / request
        await server.stop()           # graceful drain (see ``stop``)

    or as an async context manager.  ``versions`` narrows the protocol
    versions offered (the interop tests run v1-only through v4-capable
    servers against every client generation in both directions).
    ``lease_seconds`` is the reservation lease TTL; ``request_hook`` is an
    awaited seam before every dispatch — the fault plane's stall injector
    plugs in there.
    """

    def __init__(
        self,
        stores: Mapping[Pair, KeyStore],
        host: str = "127.0.0.1",
        port: int = 0,
        versions: Iterable[int] = protocol.SUPPORTED_VERSIONS,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        max_reserve_bits: int = MAX_RESERVE_BITS,
        server_id: str = "kme",
        now: Optional[Callable[[], float]] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        replay_retention_seconds: Optional[float] = None,
        reap_interval_seconds: Optional[float] = 1.0,
        request_hook: Optional[Callable[[Message], Awaitable[None]]] = None,
    ):
        self.stores: Dict[Pair, KeyStore] = {
            (str(a), str(b)): store for (a, b), store in stores.items()
        }
        if not self.stores:
            raise ValueError("the server needs at least one pair's store")
        self.versions = tuple(sorted(set(versions)))
        unknown = set(self.versions) - set(protocol.SUPPORTED_VERSIONS)
        if not self.versions or unknown:
            raise ValueError(f"unsupported protocol versions: {sorted(unknown)}")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.max_reserve_bits = max_reserve_bits
        self.server_id = server_id
        self.lease_seconds = lease_seconds
        #: How long a consumed reservation stays replayable.  Must exceed
        #: the longest client retry window, or a retried CONSUME could miss
        #: the cache and wrongly read as "reaped before consume".
        self.replay_retention_seconds = (
            replay_retention_seconds
            if replay_retention_seconds is not None
            else 10.0 * lease_seconds
        )
        self.reap_interval_seconds = reap_interval_seconds
        self.request_hook = request_hook
        self.metrics = NetKmsMetrics()
        #: Store timestamps for reserve/consume accounting and lease expiry;
        #: injectable so a simulated-clock service can keep its stores' EWMA
        #: (and its leases) in sim time.
        self._now = now or time.monotonic
        self._server: Optional[asyncio.base_events.Server] = None
        #: Held reservations by (pair, reservation id); the id space is the
        #: store's own, so release/consume validate against live state.
        self._held: Dict[Tuple[Pair, int], HeldReservation] = {}
        #: Recently consumed reservations, for idempotent CONSUME replay.
        self._served: Dict[Tuple[Pair, int], ServedReservation] = {}
        #: A lower bound on every ``expires_at`` in ``_held`` and ``_served``:
        #: lowered when an entry is added, never raised when one leaves, and
        #: made exact again by each scan.  ``reap_expired`` before it has
        #: nothing to find.
        self._earliest_deadline = math.inf
        self._locks: Dict[Pair, asyncio.Lock] = {}
        self._conn_ids = itertools.count(1)
        self._conn_tasks: Set[asyncio.Task] = set()
        #: Connections past their handshake, by connection id.
        self._connections: Dict[int, _Connection] = {}
        self._draining = False
        self._reaper_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "NetworkKmsServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._locks = {pair: asyncio.Lock() for pair in self.stores}
        self._draining = False
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.metrics = NetKmsMetrics()
        if self.reap_interval_seconds is not None:
            self._reaper_task = asyncio.ensure_future(self._reap_loop())
        return self

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Drain and shut down.

        ``stop`` itself dismisses every connection parked between requests
        (a typed ``SHUTTING_DOWN`` error under request id 0, then close) and
        closes the listener (no new connections).  A connection in
        mid-dispatch is left alone: its request finishes and is answered,
        any further request gets ``SHUTTING_DOWN`` under its own id, and the
        connection closes.  Connections that have not finished within
        ``drain_timeout`` are cancelled.  Finally every still-held
        reservation is reaped back into its store, so a stopped server
        never leaves bits invisibly reserved.
        """
        if self._server is None:
            return
        self._draining = True
        for conn in list(self._connections.values()):
            self._dismiss_if_idle(conn)
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
            self._reaper_task = None
        pending = set(self._conn_tasks)
        if pending:
            _done, still_running = await asyncio.wait(pending, timeout=drain_timeout)
            for task in still_running:
                task.cancel()
            if still_running:
                await asyncio.gather(*still_running, return_exceptions=True)
        self._reap_all("shutdown")

    async def __aenter__(self) -> "NetworkKmsServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def endpoint(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # ------------------------------------------------------------------ #
    # Reaping
    # ------------------------------------------------------------------ #

    def reap_expired(self, now: Optional[float] = None) -> int:
        """Release reservations whose lease has expired; returns bits freed.

        Runs lazily on every reserve/consume/release and periodically from
        the reaper task; callable directly (e.g. against an injected sim
        clock) for deterministic tests.  Also evicts replay-cache entries
        past their retention window.  A call before the earliest
        outstanding deadline is one comparison; only a call at or past it
        looks at the entries, and leaves the bound exact.
        """
        now = self._now() if now is None else now
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

    def _reap_all(self, reason: str) -> int:
        freed = 0
        for key in list(self._held):
            freed += self._reap_one(key, reason)
        self._served.clear()
        self._earliest_deadline = math.inf
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

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.reap_interval_seconds)
            self.reap_expired()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_opened += 1
        conn_id = next(self._conn_ids)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            version = await self._handshake(reader, writer)
            if version is not None:
                await self._serve_requests(reader, writer, version, conn_id)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer went away; nothing to answer
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._reap_connection(conn_id)
            self.metrics.connections_closed += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # The handler is ending either way; a cancellation racing
                # the close (event-loop teardown) must not log as a leak.
                pass

    async def _handshake(self, reader, writer) -> Optional[int]:
        """Run the HELLO/WELCOME exchange; None means rejected (and closed)."""
        try:
            body = await protocol.read_frame(reader, self.max_frame_bytes)
            hello = protocol.decode_body(body, expected_version=None)
            if not isinstance(hello, Hello):
                raise ProtocolError(
                    protocol.ERR_MALFORMED,
                    f"expected HELLO, got kind 0x{hello.KIND:02x}",
                )
        except ProtocolError as exc:
            await self._send_error(writer, 0, exc, version=protocol.PROTOCOL_V1)
            return None
        if self._draining:
            exc = ProtocolError(protocol.ERR_SHUTTING_DOWN, "server is draining")
            await self._send_error(writer, 0, exc, version=protocol.PROTOCOL_V1)
            return None
        version = protocol.negotiate(hello.min_version, hello.max_version, self.versions)
        if version is None:
            exc = ProtocolError(
                protocol.ERR_VERSION,
                f"client speaks v{hello.min_version}..v{hello.max_version}, "
                f"server speaks {list(self.versions)}",
            )
            await self._send_error(writer, 0, exc, version=protocol.PROTOCOL_V1)
            return None
        await self._send(writer, Welcome(server_id=self.server_id), version)
        return version

    async def _serve_requests(self, reader, writer, version: int, conn_id: int) -> None:
        conn = _Connection(writer, version)
        self._connections[conn_id] = conn
        loop = asyncio.get_running_loop()
        try:
            while True:
                conn.idle = True
                if self._draining:
                    # stop() made its pass while this connection was in
                    # mid-dispatch.  A frame already buffered is read below
                    # without yielding to the loop and meets the gate in
                    # _dispatch; otherwise the read parks and the callback
                    # dismisses this connection as stop() would have.
                    loop.call_soon(self._dismiss_if_idle, conn)
                try:
                    body = await protocol.read_frame(reader, self.max_frame_bytes)
                except ProtocolError as exc:
                    # The stream is out of frame sync; report and drop it.
                    conn.idle = False
                    await self._send_error(writer, 0, exc, version)
                    return
                conn.idle = False
                try:
                    message = protocol.decode_body(body, expected_version=version)
                    response = await self._dispatch(message, version, conn_id)
                except ProtocolError as exc:
                    request_id = _request_id_of(body)
                    await self._send_error(writer, request_id, exc, version)
                    if exc.fatal:
                        return
                    continue
                await self._send(writer, response, version)
        finally:
            del self._connections[conn_id]

    def _dismiss_if_idle(self, conn: _Connection) -> None:
        """Tell a connection parked in its frame read that the server is
        draining, and close it; the handler wakes on the EOF and leaves
        through its peer-went-away exit."""
        if not conn.idle or conn.writer.is_closing():
            return
        exc = ProtocolError(protocol.ERR_SHUTTING_DOWN, "server is draining")
        self._write_error(conn.writer, 0, exc, conn.version)
        conn.writer.close()

    async def _dispatch(self, message: Message, version: int, conn_id: int) -> Message:
        if self._draining:
            # A request that arrives once draining has begun is "new" by
            # definition — in-flight requests are already past this gate.
            raise ProtocolError(protocol.ERR_SHUTTING_DOWN, "server is draining")
        handler = _HANDLERS[version].get(message.KIND)
        if handler is None:
            if message.SINCE > version:
                raise ProtocolError(
                    protocol.ERR_UNKNOWN_KIND,
                    f"kind 0x{message.KIND:02x} does not exist at v{version}",
                )
            raise ProtocolError(
                protocol.ERR_MALFORMED,
                f"{type(message).__name__} is not a client request",
            )
        self.metrics.note_request(type(message).__name__)
        if self.request_hook is not None:
            await self.request_hook(message)
        return await handler(self, message, conn_id)

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

    async def _on_status(self, message: Status, conn_id: int) -> StatusOk:
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

    async def _on_capabilities(self, message: Capabilities, conn_id: int) -> CapabilitiesOk:
        return CapabilitiesOk(
            request_id=message.request_id,
            min_version=self.versions[0],
            max_version=self.versions[-1],
            max_frame_bytes=self.max_frame_bytes,
            max_reserve_bits=self.max_reserve_bits,
            pairs=tuple(sorted(self.stores)),
        )

    def _grant(self, store: KeyStore, bits: int, now: float) -> KeyReservation:
        """Step one, under the pair's lock: claim ``bits`` bits of ``store``."""
        started = time.perf_counter()
        if not 0 < bits <= self.max_reserve_bits:
            raise ProtocolError(
                protocol.ERR_LIMIT,
                f"reserve of {bits} bits outside (0, {self.max_reserve_bits}]",
            )
        self.reap_expired(now)
        try:
            reservation = store.reserve(bits, now=now)
        except KeyStoreExhaustedError as exc:
            self.metrics.note_reserve(time.perf_counter() - started, granted=False)
            raise ProtocolError(protocol.ERR_EXHAUSTED, str(exc)) from None
        self.metrics.note_reserve(time.perf_counter() - started, granted=True)
        return reservation

    def _serve(
        self, store: KeyStore, reservation: KeyReservation, message: Consume | GetKey, now: float
    ) -> ConsumeOk:
        """Step two, under the pair's lock: draw the reserved bits, count
        them once, and keep the reply replayable for the retention window."""
        # Both endpoints' pools advance in lock-step, exactly as the
        # in-process gateways do, so the store stays synchronised for
        # every later consumer; the (identical) material is served once.
        try:
            key = store.draw(reservation, now)
        except ReservationError as exc:
            raise ProtocolError(protocol.ERR_INTERNAL, str(exc)) from None
        key_bytes = key.to_bytes()
        self.metrics.note_key_served(key_bytes, len(key))
        expires_at = now + self.replay_retention_seconds
        self._served[(message.pair, reservation.reservation_id)] = ServedReservation(
            key_bits=len(key),
            key_bytes=key_bytes,
            expires_at=expires_at,
        )
        if expires_at < self._earliest_deadline:
            self._earliest_deadline = expires_at
        if len(self._served) > REPLAY_CACHE_LIMIT:
            # One entry in, so at most one out: the oldest.
            del self._served[next(iter(self._served))]
        return ConsumeOk(
            request_id=message.request_id,
            reservation_id=reservation.reservation_id,
            key_bits=len(key),
            key_bytes=key_bytes,
        )

    async def _on_reserve(self, message: Reserve, conn_id: int) -> ReserveOk:
        store = self._store_for(message.pair)
        async with self._locks[message.pair]:
            now = self._now()
            reservation = self._grant(store, message.bits, now)
            expires_at = now + self.lease_seconds
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
            lease_ms=int(self.lease_seconds * 1000),
        )

    async def _on_get_key(self, message: GetKey, conn_id: int) -> ConsumeOk:
        store = self._store_for(message.pair)
        async with self._locks[message.pair]:
            now = self._now()
            return self._serve(store, self._grant(store, message.bits, now), message, now)

    async def _on_consume(self, message: Consume, conn_id: int) -> ConsumeOk:
        store = self._store_for(message.pair)
        key = (message.pair, message.reservation_id)
        async with self._locks[message.pair]:
            now = self._now()
            self.reap_expired(now)
            replay = self._served.get(key)
            if replay is not None:
                # Idempotent retry: the reservation was already consumed but
                # the reply may never have reached the client.  Re-deliver
                # the identical bytes; the material was served (and entered
                # the digest) exactly once.
                self.metrics.note_replay()
                return ConsumeOk(
                    request_id=message.request_id,
                    reservation_id=message.reservation_id,
                    key_bits=replay.key_bits,
                    key_bytes=replay.key_bytes,
                )
            held = self._held.pop(key, None)
            if held is None:
                raise ProtocolError(
                    protocol.ERR_UNKNOWN_RESERVATION,
                    f"no held reservation {message.reservation_id} "
                    f"for {message.pair[0]}--{message.pair[1]}",
                )
            return self._serve(store, held.reservation, message, now)

    async def _on_release(self, message: Release, conn_id: int) -> ReleaseOk:
        store = self._store_for(message.pair)
        self.reap_expired()
        async with self._locks[message.pair]:
            held = self._held.pop((message.pair, message.reservation_id), None)
            if held is None:
                raise ProtocolError(
                    protocol.ERR_UNKNOWN_RESERVATION,
                    f"no held reservation {message.reservation_id} "
                    f"for {message.pair[0]}--{message.pair[1]}",
                )
            store.release(held.reservation)
        return ReleaseOk(
            request_id=message.request_id,
            reservation_id=message.reservation_id,
        )

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    async def _send(self, writer, message: Message, version: int) -> None:
        writer.write(protocol.encode_frame(message, version))
        await writer.drain()

    async def _send_error(
        self, writer, request_id: int, exc: ProtocolError, version: int
    ) -> None:
        self._write_error(writer, request_id, exc, version)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    def _write_error(self, writer, request_id: int, exc: ProtocolError, version: int) -> None:
        self.metrics.note_error(exc.code)
        error = Error(request_id=request_id, code=exc.code, detail=exc.detail)
        writer.write(protocol.encode_frame(error, version))

    def __repr__(self) -> str:
        state = "up" if self._server is not None else "down"
        return (
            f"NetworkKmsServer({len(self.stores)} pairs on "
            f"{self.host}:{self.port}, {state})"
        )


#: Request kind -> handler, one table per protocol version: a kind is in the
#: tables of the versions that have it and in no other.  (Plain functions, so
#: a server holds no reference to itself.)
_HANDLERS = {
    version: {
        cls.KIND: handler
        for cls, handler in (
            (Status, NetworkKmsServer._on_status),
            (Capabilities, NetworkKmsServer._on_capabilities),
            (Reserve, NetworkKmsServer._on_reserve),
            (Consume, NetworkKmsServer._on_consume),
            (Release, NetworkKmsServer._on_release),
            (GetKey, NetworkKmsServer._on_get_key),
        )
        if cls.SINCE <= version
    }
    for version in protocol.SUPPORTED_VERSIONS
}


def _request_id_of(body: bytes) -> int:
    """Best-effort request id from a frame that failed to decode."""
    if len(body) >= 6:
        return int.from_bytes(body[2:6], "little")
    return 0
