"""Deterministic fault injection for the networked KMS stack.

The paper's network has to keep serving keys through link cuts, node
failures, and flaky transport; this package makes those failures
*first-class, replayable inputs* instead of hoping CI happens to hit them.
Every injected fault is a pure function of ``(seed, site, op_index)``,
decided from the labeled RNG stream ``faults/<site>/<n>`` — the same
derivation discipline as the lane runtime's ``lane/<i>`` and the KMS
service's ``kms/epoch/<n>`` streams — so any chaos run replays
byte-for-byte from its seed.

* :mod:`repro.faults.plane` — :class:`~repro.faults.plane.FaultPlane`:
  the decision engine (stochastic rates per site and kind drive sweeps),
  plus the site/kind catalogue and injection statistics;
* :mod:`repro.faults.net` — application to asyncio transports:
  :class:`~repro.faults.net.FaultyConnector` plugs into the netkms
  client's ``connector`` seam, ``(host, port, protocol_factory) ->
  (transport, protocol)`` (connect refusals/delays, per-frame drops,
  truncation, reply delay), :func:`~repro.faults.net.stall_hook` into the
  server's ``request_hook`` (in-server stalls).

Build the plane from the experiment's root seed
(``FaultPlane(DeterministicRNG(seed), rates=...)``) and one integer still
determines the entire experiment — physics, key material, *and* the
disruption it survives.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.faults.net": ("FaultyConnector", "FaultyProtocol", "FaultyTransport", "stall_hook"),
        "repro.faults.plane": (
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
        ),
    },
)
