"""Applying fault-plane decisions to asyncio transports.

:class:`FaultyConnector` is a drop-in for the netkms client's ``connector``
seam, ``(host, port, protocol_factory) -> (transport, protocol)``.  It
decides the ``connect`` site (refusals, SYN delays), then wraps the client's
protocol in a :class:`FaultyProtocol` and hands the client a
:class:`FaultyTransport`, so every frame the client sends (``client/tx``,
one per ``write``) or receives (``client/rx``, cut out of the received
bytes) takes one decision: frame ``k`` of a connection takes index ``k`` at
its site.  Injected failures look like real ones — a refused connect, a
write raising :class:`ConnectionResetError`, a connection lost mid-reply —
so the client under test cannot tell chaos from an outage.

A stall at ``client/tx`` holds a request frame, and every later one, long
enough past the client's request timeout that the retry loop must recover:
the server answers it late, as a stalled server would, and the server
itself has one answer path.
Injected delays and stalls are ``asyncio.sleep``: time is the running loop's.
"""

from __future__ import annotations

import asyncio
import struct
from typing import List, Optional, Tuple

from tests.faults.plane import (
    DELAY,
    DROP_AFTER,
    DROP_BEFORE,
    REFUSE,
    SITE_CLIENT_RX,
    SITE_CLIENT_TX,
    SITE_CONNECT,
    STALL,
    TRUNCATE,
    FaultPlane,
)
from repro.netkms import protocol
from repro.netkms.client import open_connection

_PREFIX = struct.Struct("<I")

#: The client's own splitter applies the real frame cap to what it is handed.
_NO_CAP = 0xFFFFFFFF


class FaultyTransport:
    """Wraps the client's transport; each ``write()`` is one frame.

    A stall holds its frame and every later one, in order, and a ``close()``
    meanwhile lets the held frames out first, as a socket's send queue
    would; a cut discards them, as a reset would.
    """

    def __init__(self, inner: asyncio.Transport, plane: FaultPlane):
        self._inner = inner
        self._plane = plane
        #: The frames a stall holds, in order; ``None`` while none is held.
        self._held: Optional[List[bytes]] = None
        self._stall: Optional[asyncio.Task] = None
        self._close_after_stall = False

    def write(self, data: bytes) -> None:
        action = self._plane.decide(SITE_CLIENT_TX)
        if action is None:
            self._send(data)
            return
        if action.kind == DROP_BEFORE:
            self._abort()
            raise ConnectionResetError("injected: connection cut before send")
        if action.kind == TRUNCATE:
            keep = max(1, min(len(data) - 1, int(len(data) * action.keep_fraction)))
            self._send(data[:keep])
            self._abort()
            raise ConnectionResetError(
                f"injected: frame truncated to {keep}/{len(data)} bytes"
            )
        if action.kind == DROP_AFTER:
            # The frame gets out (graceful close flushes it) and the write
            # succeeds; the connection dies before any reply.  Whether the
            # server processed the request is exactly the ambiguity the
            # client's idempotent retry must absorb.
            self._send(data)
            self.close()
            return
        if action.kind == STALL:
            if self._held is None:
                self._held = []
                self._stall = asyncio.ensure_future(self._release(action.delay_seconds))
            self._held.append(data)
            return
        raise AssertionError(f"unhandled tx action {action.kind!r}")

    def _send(self, data: bytes) -> None:
        if self._held is None:
            self._inner.write(data)
        else:
            self._held.append(data)

    async def _release(self, seconds: float) -> None:
        await asyncio.sleep(seconds)
        held, self._held = self._held, None
        for frame in held:
            self._inner.write(frame)
        if self._close_after_stall:
            self._inner.close()

    def _abort(self) -> None:
        if self._stall is not None:
            self._stall.cancel()
        self._held = None
        self._inner.abort()

    def close(self) -> None:
        if self._held is None:
            self._inner.close()
        else:
            self._close_after_stall = True


class FaultyProtocol(asyncio.Protocol):
    """Wraps the client's protocol on the reply path: a cut aborts the
    connection before the frame reaches the client, a truncation hands on
    part of the frame and then aborts, and a delay holds that frame and
    every later one, in order.  A connection lost during a delay is reported
    once the held frames are through, as a stream reader would have seen it.
    """

    def __init__(self, inner: asyncio.Protocol, plane: FaultPlane):
        self._inner = inner
        self._plane = plane
        self._frames = protocol.FrameSplitter(_NO_CAP)
        self._transport = None
        self.client_transport: Optional[FaultyTransport] = None
        self._delay: Optional[asyncio.Task] = None
        self._lost = None  # (exc,) once the transport went during a delay
        self._reported = False

    def connection_made(self, transport) -> None:
        self._transport = transport
        self.client_transport = FaultyTransport(transport, self._plane)
        self._inner.connection_made(self.client_transport)

    def data_received(self, data: bytes) -> None:
        self._frames.feed(data)
        if self._delay is None:
            self._hand_on()

    def _hand_on(self) -> None:
        while self._delay is None:
            try:
                body = self._frames.next_frame()
            except protocol.ProtocolError:
                # Not a frame: the client's own splitter refuses it.
                self._inner.data_received(bytes(self._frames.buffer))
                self._frames.buffer.clear()
                return
            if body is None:
                if self._lost is not None:
                    self._report(*self._lost)
                return
            frame = _PREFIX.pack(len(body)) + body
            action = self._plane.decide(SITE_CLIENT_RX)
            if action is None:
                self._inner.data_received(frame)
            elif action.kind == DROP_BEFORE:
                self._cut(ConnectionResetError("injected: connection cut before reply"))
                return
            elif action.kind == TRUNCATE:
                keep = max(0, min(len(body) - 1, int(len(body) * action.keep_fraction)))
                self._inner.data_received(frame[: _PREFIX.size + keep])
                self._cut(None)
                return
            elif action.kind == DELAY:
                self._delay = asyncio.ensure_future(self._after(action.delay_seconds, frame))
            else:
                raise AssertionError(f"unhandled rx action {action.kind!r}")

    async def _after(self, seconds: float, frame: bytes) -> None:
        await asyncio.sleep(seconds)
        self._delay = None
        if not self._reported:
            self._inner.data_received(frame)
            self._hand_on()

    def _cut(self, exc) -> None:
        self._frames = protocol.FrameSplitter(_NO_CAP)  # nothing unread survives a cut
        self._transport.abort()
        self._report(exc)

    def eof_received(self):
        return self._inner.eof_received()

    def pause_writing(self) -> None:
        self._inner.pause_writing()

    def resume_writing(self) -> None:
        self._inner.resume_writing()

    def connection_lost(self, exc) -> None:
        if self._delay is None:
            self._report(exc)
        else:
            self._lost = (exc,)

    def _report(self, exc) -> None:
        if not self._reported:
            self._reported = True
            self._inner.connection_lost(exc)


class FaultyConnector:
    """A ``connector`` routing everything through a plane: pass it as
    ``NetworkKmsClient(connector=FaultyConnector(plane))`` (or to
    :class:`~repro.netkms.resilient.ResilientKmsClient`); it wraps the
    client's plain TCP connector."""

    def __init__(self, plane: FaultPlane):
        self._plane = plane

    async def __call__(
        self, host: str, port: int, protocol_factory
    ) -> Tuple[FaultyTransport, asyncio.Protocol]:
        action = self._plane.decide(SITE_CONNECT)
        if action is not None:
            if action.kind == REFUSE:
                raise ConnectionRefusedError("injected: connection refused")
            if action.kind == DELAY:
                await asyncio.sleep(action.delay_seconds)
        inner = protocol_factory()
        _transport, faulty = await open_connection(
            host, port, lambda: FaultyProtocol(inner, self._plane)
        )
        return faulty.client_transport, inner


__all__ = ["FaultyConnector", "FaultyProtocol", "FaultyTransport"]
