"""QKD networks: meshes of links, trusted relays and untrusted switches.

Point-to-point QKD links have the weaknesses catalogued in section 2 of the
paper — fragility, limited reach, poor scaling of pairwise interconnection —
and sections 3 and 8 describe the DARPA Quantum Network's answer: weave
multiple links into a network.

* :mod:`repro.network.topology` — the network graph (endpoints, relays,
  switches, links with loss budgets and per-link key rates) and the
  interconnection-cost analysis (N·(N-1)/2 point-to-point links versus N
  links through a key-distribution network).
* :mod:`repro.network.relay` — trusted-relay key transport: pairwise QKD keys
  along a path, with the end-to-end key one-time-pad wrapped hop by hop.
* :mod:`repro.network.switches` — untrusted all-optical switch paths: no
  trust in intermediate nodes, but every switch spends insertion loss and the
  photon must survive the whole composite path.
* :mod:`repro.network.routing` — path selection and rerouting around failed
  or eavesdropped links.
"""

from repro.util.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.network.topology": (
            "QKDNetwork",
            "QKDNode",
            "QKDLinkEdge",
            "NodeKind",
            "interconnection_cost",
        ),
        "repro.network.relay": ("TrustedRelayNetwork", "KeyTransportResult"),
        "repro.network.switches": ("UntrustedSwitchNetwork", "SwitchedPathReport"),
        "repro.network.routing": ("PathSelector", "RoutingError"),
    },
)
