"""Networked key delivery: the KMS served over a versioned binary protocol.

Everything in :mod:`repro.kms` runs in-process; a production QKD network
exposes key to its consumers over a network API (the ETSI GS QKD 014 shape:
per-pair get_key against the local key-management entity).  This package
is that front end:

* :mod:`repro.netkms.protocol` — length-prefixed frames in the
  ``0x20..0x3F`` kind space of :mod:`repro.core.wire`, HELLO/WELCOME
  version negotiation, typed error codes, hostile-frame validation;
* :class:`~repro.netkms.server.NetworkKmsServer` — KeyStore reserve/consume
  (plus status/capabilities) for many concurrent SAE clients;
* :class:`~repro.netkms.client.NetworkKmsClient` — pipelining by request
  id, typed server errors, per-request timeouts, a fault-injection seam;
* :class:`~repro.netkms.resilient.ResilientKmsClient` — reconnect with
  deterministic backoff and the per-kind retry policy that keeps
  ``get_key`` exactly-once (docs/API.md "Failure semantics");
* :class:`~repro.netkms.metrics.NetKmsMetrics` — requests/s, latency
  percentiles, error and reap counters, an order-independent served digest.

``QKDSystem(seed).mesh(...).kms().serve_network(port=0)`` returns an
unstarted server over the service's stores; ``await server.start()``
brings it up.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.netkms.client": (
            "NetworkKmsClient",
            "RequestTimeoutError",
            "ReservationHandle",
            "ServedKey",
        ),
        "repro.netkms.metrics": ("MetricsReport", "NetKmsMetrics"),
        "repro.netkms.protocol": (
            "PROTOCOL_V4",
            "SUPPORTED_VERSIONS",
            "ProtocolError",
            "ServerError",
        ),
        "repro.netkms.resilient": (
            "RecoveryStats",
            "ResilientKmsClient",
            "RetriesExhaustedError",
        ),
        "repro.netkms.server": ("MAX_RESERVE_BITS", "NetworkKmsServer"),
    },
)
