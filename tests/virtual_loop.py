"""A virtual-time asyncio event loop for the netkms tests.

netkms keeps time on the loop it runs on (``loop.time()``): leases, the
replay window, store timestamps, retry backoff, injected delays and stalls.
So a test that controls the loop's clock controls all of them, and the code
under test needs no clock or sleep parameter.

:class:`VirtualLoop` is a selector event loop whose ``time()`` is a counter:

* when no callback is ready it jumps straight to the next timer instead of
  waiting for it (trio's ``MockClock(autojump_threshold=0)``), so a
  ``sleep(30)``, a request timeout or a stalled request costs no wall time;
* :meth:`VirtualLoop.advance` moves the clock by hand, for a test that
  needs time to pass while nothing waits on a timer;
* ``create_server`` and ``create_connection`` connect in memory: each
  connection is a pair of :class:`MemoryTransport` s that hand each write
  to the peer in a later callback, so the server and the client run
  unchanged.

With no real I/O and a clock that only the loop moves, a run is
deterministic: the same script gives the same replies at the same loop
times.  Nothing ready and no timer pending is a deadlock, and the loop
raises rather than wait forever.  It uses nothing newer than Python 3.10:
:func:`run_virtual` stands in for ``asyncio.run``.
"""

import asyncio
import errno
import itertools
import selectors
from types import SimpleNamespace


class _AutojumpSelector(selectors.DefaultSelector):
    """The loop's selector: never blocks, jumps the clock instead."""

    def __init__(self, loop: "VirtualLoop"):
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        events = super().select(0)
        if events or timeout == 0:
            return events
        if timeout is None:
            raise RuntimeError("virtual loop deadlocked: nothing is ready and no timer is set")
        self._loop.advance(timeout)
        return []


class VirtualLoop(asyncio.SelectorEventLoop):
    """An event loop on a virtual clock, with in-memory connections."""

    def __init__(self):
        self._now = 0.0
        self._listeners = {}
        self._ports = itertools.count(40_000)
        super().__init__(_AutojumpSelector(self))

    def time(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward ``seconds``; timers now due run next."""
        if not seconds >= 0:
            raise ValueError(f"the clock only moves forward, not by {seconds}")
        self._now += seconds

    async def create_server(self, protocol_factory, host=None, port=0, **_kwargs):
        port = port or next(self._ports)
        if (host, port) in self._listeners:
            raise OSError(errno.EADDRINUSE, f"{host}:{port} is in use")
        listener = _Listener(self, protocol_factory, host, port)
        self._listeners[host, port] = listener
        return listener

    async def create_connection(self, protocol_factory, host=None, port=None, **_kwargs):
        listener = self._listeners.get((host, port))
        if listener is None:
            raise ConnectionRefusedError(errno.ECONNREFUSED, f"nothing listens on {host}:{port}")
        client_protocol = protocol_factory()
        server_protocol = listener.protocol_factory()
        client = MemoryTransport(self, client_protocol)
        server = MemoryTransport(self, server_protocol)
        client.peer, server.peer = server, client
        # The server accepts first, as a listening socket would, so it has
        # its transport before the client's first frame arrives.
        self.call_soon(server_protocol.connection_made, server)
        await asyncio.sleep(0)
        client_protocol.connection_made(client)
        return client, client_protocol


class _Listener:
    """What ``create_server`` returns: enough of :class:`asyncio.Server`."""

    def __init__(self, loop, protocol_factory, host, port):
        self._loop = loop
        self._address = (host, port)
        self.protocol_factory = protocol_factory
        self.sockets = [SimpleNamespace(getsockname=lambda: (host, port))]

    def close(self) -> None:
        if self._loop._listeners.get(self._address) is self:
            del self._loop._listeners[self._address]

    async def wait_closed(self) -> None:
        pass


class MemoryTransport(asyncio.Transport):
    """One end of an in-memory connection.

    A write reaches the peer's protocol in a later loop callback, in write
    order; while the peer has paused reading it is queued there.  ``close``
    and ``abort`` stop this end at once (``connection_lost(None)`` follows
    in a callback) and send the peer an EOF behind everything already
    written, as a socket's FIN would; a peer whose ``eof_received`` does not
    ask to stay half-open then closes too.  There is no write buffer, so
    ``pause_writing`` is never called.
    """

    def __init__(self, loop, protocol):
        super().__init__()
        self._loop = loop
        self._protocol = protocol
        self.peer = None
        self._inbox = []  # what arrived while reading was paused, and the EOF
        self._paused = False
        self._closing = False

    def is_closing(self) -> bool:
        return self._closing

    def is_reading(self) -> bool:
        return not (self._paused or self._closing)

    def write(self, data) -> None:
        if data and not self._closing:
            self._loop.call_soon(self.peer._arrive, bytes(data))

    def pause_reading(self) -> None:
        self._paused = True

    def resume_reading(self) -> None:
        if self._paused:
            self._paused = False
            self._loop.call_soon(self._drain_inbox)

    def close(self) -> None:
        if not self._closing:
            self._closing = True
            self._loop.call_soon(self.peer._arrive, None)
            self._loop.call_soon(self._protocol.connection_lost, None)

    abort = close

    def _arrive(self, data) -> None:
        """``data`` from the peer, or ``None`` for its EOF."""
        if self._closing:
            return
        if self._paused or self._inbox:
            self._inbox.append(data)
        elif data is None:
            self._eof()
        else:
            self._protocol.data_received(data)

    def _drain_inbox(self) -> None:
        while self._inbox and self.is_reading():
            data = self._inbox.pop(0)
            if data is None:
                self._eof()
            else:
                self._protocol.data_received(data)

    def _eof(self) -> None:
        if not self._protocol.eof_received():
            self.close()


def run_virtual(main):
    """Run coroutine ``main`` on a fresh :class:`VirtualLoop` and close it,
    as ``asyncio.run`` does for the default loop."""
    loop = VirtualLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
