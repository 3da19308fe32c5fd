"""Networked key delivery: the KMS served over a versioned binary protocol.

Everything in :mod:`repro.kms` runs in-process; a production QKD network
exposes key material to its consumers over a network API (the ETSI GS QKD
014 shape: per-pair get_key against the local key-management entity).
:mod:`repro.netkms` is that front end:

* :mod:`repro.netkms.protocol` — the length-prefixed binary framing over
  the :mod:`repro.core.wire` kind space (netkms owns ``0x20..0x3F``), with
  explicit version negotiation (HELLO offers a range, the server picks) so
  the protocol can grow fields without flag-day breaks, typed
  :class:`~repro.netkms.protocol.ProtocolError` codes, and hostile-frame
  validation before any output-sized allocation;
* :class:`~repro.netkms.server.NetworkKmsServer` — an asyncio TCP server
  exposing :class:`~repro.kms.store.KeyStore` reserve/consume (plus
  status/capabilities) to many concurrent SAE clients, race-free against
  the stores' reservation semantics;
* :class:`~repro.netkms.client.NetworkKmsClient` — the asyncio client
  library (pipelining by request id, typed server errors, per-request
  timeouts, an injectable connector for fault injection);
* :class:`~repro.netkms.resilient.ResilientKmsClient` — the
  disruption-tolerant wrapper: reconnect with capped exponential backoff
  and deterministic jitter, plus the per-kind idempotent retry policy
  that keeps ``get_key`` exactly-once across drops, stalls, and lease
  reaps (see docs/API.md "Failure semantics");
* :class:`~repro.netkms.metrics.NetKmsMetrics` — per-request wall-clock
  accounting: requests/s, reserve-latency percentiles, protocol-error
  counts, reap/replay counters, and an order-independent served-key
  digest.

Entry point from the facade:
``QKDSystem(seed).mesh(...).kms().serve_network(port=0)`` returns an
unstarted server bound to the service's stores; ``await server.start()``
inside an event loop brings it up.
"""

from repro.netkms.client import (
    NetworkKmsClient,
    RequestTimeoutError,
    ReservationHandle,
    ServedKey,
)
from repro.netkms.metrics import MetricsReport, NetKmsMetrics
from repro.netkms.protocol import (
    PROTOCOL_V1,
    PROTOCOL_V2,
    PROTOCOL_V3,
    PROTOCOL_V4,
    SUPPORTED_VERSIONS,
    ProtocolError,
    ServerError,
)
from repro.netkms.resilient import (
    RecoveryStats,
    ResilientKmsClient,
    RetriesExhaustedError,
    RetryPolicy,
)
from repro.netkms.server import MAX_RESERVE_BITS, NetworkKmsServer

__all__ = [
    "MAX_RESERVE_BITS",
    "MetricsReport",
    "NetKmsMetrics",
    "NetworkKmsClient",
    "NetworkKmsServer",
    "PROTOCOL_V1",
    "PROTOCOL_V2",
    "PROTOCOL_V3",
    "PROTOCOL_V4",
    "ProtocolError",
    "RecoveryStats",
    "RequestTimeoutError",
    "ReservationHandle",
    "ResilientKmsClient",
    "RetriesExhaustedError",
    "RetryPolicy",
    "ServedKey",
    "ServerError",
    "SUPPORTED_VERSIONS",
]
