"""Deterministic fault injection for the networked KMS stack, in tests.

Every injected fault is a pure function of ``(seed, site, op_index)``,
decided from the labeled RNG stream ``faults/<site>/<n>`` — the same
derivation discipline as the lane runtime's ``lane/<i>`` and the KMS
service's ``kms/epoch/<n>`` streams — so any chaos run replays
byte-for-byte from its seed.

* :mod:`tests.faults.plane` — :class:`FaultPlane`, the decision engine
  (stochastic rates per site and kind), plus the site/kind catalogue and
  injection statistics;
* :mod:`tests.faults.net` — application to asyncio transports:
  :class:`FaultyConnector` plugs into the netkms client's ``connector``
  seam, ``(host, port, protocol_factory) -> (transport, protocol)``
  (connect refusals/delays, per-frame drops, truncation, reply delay),
  :func:`stall_hook` into the server's ``request_hook`` (in-server stalls).

The stack state machine (``tests/test_stack_machine.py``), its chaos soak
among its fixed step lists, drives the stack through them on the
virtual-time loop of ``tests/virtual_loop.py``.
"""

from tests.faults.net import FaultyConnector, FaultyProtocol, FaultyTransport, stall_hook
from tests.faults.plane import (
    DELAY,
    DROP_AFTER,
    DROP_BEFORE,
    REFUSE,
    SITE_CLIENT_RX,
    SITE_CLIENT_TX,
    SITE_CONNECT,
    SITE_KINDS,
    SITE_SERVER_REQUEST,
    SITES,
    STALL,
    TRUNCATE,
    FaultAction,
    FaultPlane,
    FaultPlaneStats,
)

__all__ = [
    "DELAY",
    "DROP_AFTER",
    "DROP_BEFORE",
    "REFUSE",
    "SITE_CLIENT_RX",
    "SITE_CLIENT_TX",
    "SITE_CONNECT",
    "SITE_KINDS",
    "SITE_SERVER_REQUEST",
    "SITES",
    "STALL",
    "TRUNCATE",
    "FaultAction",
    "FaultPlane",
    "FaultPlaneStats",
    "FaultyConnector",
    "FaultyProtocol",
    "FaultyTransport",
    "stall_hook",
]
