"""Disruption-tolerant client: retry, reconnect, and exactly-once keys.

:class:`NetworkKmsClient` is deliberately thin — one connection, typed
errors, per-request timeouts, nothing more.  :class:`ResilientKmsClient`
wraps it with the recovery loop a real SAE needs when links flap and
servers stall (the Elastic-TCP-style adaptive backoff from PAPERS.md):

* **reconnect** with capped exponential backoff and *deterministic* jitter
  (drawn from a labeled :class:`~repro.util.rng.DeterministicRNG` stream,
  so a seeded chaos run replays byte-for-byte);
* **a per-kind retry policy** that never violates the one-time-pad
  contract (the table in docs/API.md "Failure semantics"): RESERVE is
  retried freely (a lost grant is an orphan reaped once its lease lapses);
  CONSUME is retried because the server's replay cache
  re-delivers the same bytes, and an ``unknown-reservation`` answer means
  the lease was reaped before any consume, so a fresh reserve is safe.
  GET_KEY is never used: its reply is the only frame naming the
  reservation, so exactly-once needs the two phases;
* **recovery accounting** — every disruption that the loop survives
  records how long service took to resume.

Time is the running loop's: backoff is ``asyncio.sleep``, recovery is timed
with ``loop.time()`` (monotonic wall seconds on asyncio's default loop).
The retry budget, backoff and request timeout are module constants: on a
virtual-time loop a 1 s timeout or a 2 s backoff costs no wall time, so no
test needs them shorter.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional

from repro.netkms import protocol
from repro.netkms.client import (
    Connector,
    NetworkKmsClient,
    Pair,
    RequestTimeoutError,
    ReservationHandle,
    ServedKey,
)
from repro.netkms.protocol import ServerError
from repro.util.rng import DeterministicRNG


class RetriesExhaustedError(ConnectionError):
    """The retry budget ran out before the operation succeeded."""


#: Attempts per operation before :class:`RetriesExhaustedError`.
MAX_ATTEMPTS = 8
#: The first retry's backoff; each later one doubles, up to the cap.
BASE_BACKOFF_SECONDS = 0.05
MAX_BACKOFF_SECONDS = 2.0
#: Each backoff is scaled down by up to this fraction, never lengthened, so
#: a fleet of clients decorrelates without passing the cap.
JITTER_FRACTION = 0.5
#: How long one request waits for its reply before it counts as failed.
REQUEST_TIMEOUT_SECONDS = 1.0


def backoff(attempt: int, rng: DeterministicRNG) -> float:
    """Delay before retry ``attempt`` (1-based): capped doubling, jittered
    by a draw from ``rng`` (the client's labeled stream)."""
    raw = min(BASE_BACKOFF_SECONDS * (2 ** (attempt - 1)), MAX_BACKOFF_SECONDS)
    return raw * (1.0 - JITTER_FRACTION * rng.random())


@dataclass
class RecoveryStats:
    """What the retry loop had to absorb: attempts, retries, reconnects,
    timeouts, abandoned reservations and how long each recovery took."""

    attempts: int = 0
    retries: int = 0
    reconnects: int = 0
    timeouts: int = 0
    reservations_abandoned: int = 0
    #: Loop seconds from each first failure to the operation's eventual
    #: success — the "how long was service interrupted" distribution.
    recovery_seconds: List[float] = field(default_factory=list)


#: Exceptions that mean "the transport failed or the server is going away";
#: the operation may be retried under the per-kind idempotency rules.
def _retryable(exc: BaseException) -> bool:
    if isinstance(exc, (ConnectionError, asyncio.IncompleteReadError)):
        return True
    if isinstance(exc, RequestTimeoutError):
        return True
    if isinstance(exc, ServerError) and exc.code == protocol.ERR_SHUTTING_DOWN:
        return True
    return False


class ResilientKmsClient:
    """A :class:`NetworkKmsClient` that survives faults.

    Usage::

        client = ResilientKmsClient(
            "127.0.0.1", server.port, rng=system.rng.fork_labeled("sae/0")
        )
        key = await client.get_key(pair, bits=1024)   # exactly-once
        await client.close()

    ``rng`` seeds the jitter stream (fork it per client so a fleet
    decorrelates deterministically).
    """

    def __init__(
        self,
        host: str,
        port: int,
        rng: Optional[DeterministicRNG] = None,
        client_id: str = "sae",
        connector: Optional[Connector] = None,
    ):
        self.host = host
        self.port = port
        self.rng = (rng or DeterministicRNG(0)).fork_labeled("retry/jitter")
        self.client_id = client_id
        self.stats = RecoveryStats()
        self._connector = connector
        self._client: Optional[NetworkKmsClient] = None
        self._ever_connected = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()
            self._client = None

    async def __aenter__(self) -> "ResilientKmsClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def _ensure_connected(self) -> NetworkKmsClient:
        if self._client is not None and self._client.connected:
            return self._client
        await self.close()
        client = NetworkKmsClient(
            self.host,
            self.port,
            client_id=self.client_id,
            request_timeout=REQUEST_TIMEOUT_SECONDS,
            connector=self._connector,
        )
        await client.connect()
        if self._ever_connected:
            self.stats.reconnects += 1
        self._ever_connected = True
        self._client = client
        return client

    # ------------------------------------------------------------------ #
    # Retry-safe operations
    # ------------------------------------------------------------------ #

    async def reserve(self, pair: Pair, bits: int) -> ReservationHandle:
        return await self._with_retries(lambda c: c.reserve(pair, bits))

    async def consume(self, reservation: ReservationHandle) -> ServedKey:
        """Consume with retries; raises ``ServerError(unknown-reservation)``
        if the lease was reaped before any consume happened."""
        return await self._with_retries(lambda c: c.consume(reservation))

    async def get_key(self, pair: Pair, bits: int) -> ServedKey:
        """Reserve-then-consume that is exactly-once under faults (the
        one-frame GET_KEY cannot be: see the table).

        A consume retry that answers ``unknown-reservation`` means the
        lease expired and the server reaped the bits *before the first
        consume reached the store* (a consumed reservation would have hit
        the replay cache instead) — so abandoning the handle and
        re-reserving cannot double-serve.
        """
        clock = asyncio.get_running_loop().time
        started = clock()
        interrupted = False
        while True:
            reservation = await self.reserve(pair, bits)
            try:
                key = await self.consume(reservation)
            except ServerError as exc:
                if exc.code != protocol.ERR_UNKNOWN_RESERVATION:
                    raise
                self.stats.reservations_abandoned += 1
                interrupted = True
                continue
            if interrupted:
                self.stats.recovery_seconds.append(clock() - started)
            return key

    # ------------------------------------------------------------------ #
    # The retry loop
    # ------------------------------------------------------------------ #

    async def _with_retries(self, op):
        clock = asyncio.get_running_loop().time
        first_failure: Optional[float] = None
        last_error: Optional[BaseException] = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            self.stats.attempts += 1
            try:
                client = await self._ensure_connected()
                result = await op(client)
            except BaseException as exc:
                if not _retryable(exc):
                    raise
                last_error = exc
                if first_failure is None:
                    first_failure = clock()
                if isinstance(exc, RequestTimeoutError):
                    self.stats.timeouts += 1
                # The connection's state is unknown after any retryable
                # failure; reconnect rather than reuse a wedged stream.
                await self.close()
                if attempt == MAX_ATTEMPTS:
                    break
                self.stats.retries += 1
                delay = backoff(attempt, self.rng)
                if delay > 0:
                    await asyncio.sleep(delay)
                continue
            if first_failure is not None:
                self.stats.recovery_seconds.append(clock() - first_failure)
            return result
        raise RetriesExhaustedError(f"gave up after {MAX_ATTEMPTS} attempts") from last_error

    def __repr__(self) -> str:
        state = "connected" if self._client and self._client.connected else "idle"
        return f"ResilientKmsClient({self.host}:{self.port}, {state})"


__all__ = [
    "RecoveryStats",
    "ResilientKmsClient",
    "RetriesExhaustedError",
]
