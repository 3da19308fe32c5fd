"""The QKD network graph and interconnection-cost analysis.

Nodes are QKD endpoints, trusted relays or untrusted optical switches; edges
are QKD links (or dark-fiber segments, for the optical-switch case)
characterised by their length and by the secret-key rate the analytic link
model predicts for them.  The graph is a
:class:`~repro.network.graph.Graph`, plain insertion-ordered dicts that the
routing, dtn and kms layers search with the functions beside it.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.network.graph import Graph
from repro.optics import model
from repro.util.rng import DeterministicRNG


#: What :meth:`QKDNetwork.route_state` returns: the layout version and the
#: sorted node pairs of the links currently unusable.
RouteState = Tuple[int, FrozenSet[Tuple[str, str]]]


class NodeKind(enum.Enum):
    """Roles a node can play in the DARPA Quantum Network architecture."""

    ENDPOINT = "endpoint"
    TRUSTED_RELAY = "trusted-relay"
    UNTRUSTED_SWITCH = "untrusted-switch"


@dataclass
class QKDNode:
    """One node of the network."""

    name: str
    kind: NodeKind = NodeKind.ENDPOINT


@dataclass
class QKDLinkEdge:
    """One QKD link (or fiber segment) between two adjacent nodes.

    Once :meth:`QKDNetwork.add_link` has put an edge in a network, every
    write to it — through the network's ``cut_link``/``restore_link``/...
    methods or directly, ``edge.operational = False`` — is reported to that
    network as it happens, which keeps its unusable-link set and its
    :meth:`~QKDNetwork.route_state` in step.  So there is no way to change
    what routing reads from an edge (its ``usable`` flag, its length, its
    rate) without the route table's key changing with it: a direct write is
    seen, not refused, and can never yield a stale route.  The edge holds its
    network weakly (the network holds the edge), so a dropped network is
    freed at once and its edges stop reporting.
    """

    node_a: str
    node_b: str
    length_km: float = 10.0
    #: Operational state: a cut fiber or a link shut down due to eavesdropping.
    operational: bool = True
    #: Flagged when the protocol stack on this link has detected eavesdropping
    #: (QBER above threshold); the routing layer then avoids it.
    eavesdropping_detected: bool = False
    #: Cached secret-key rate for the link, bits/second (analytic model).
    secret_key_rate_bps: float = 0.0
    #: A weak reference to the network this edge belongs to, set by
    #: :meth:`QKDNetwork.add_link`.
    _network: Optional["weakref.ref[QKDNetwork]"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        ref = self.__dict__.get("_network")
        if ref is not None and name != "_network":
            network = ref()
            if network is not None:
                network._edge_written(self, name)

    @property
    def usable(self) -> bool:
        return self.operational and not self.eavesdropping_detected

    def endpoints(self) -> Tuple[str, str]:
        return (self.node_a, self.node_b)


class QKDNetwork:
    """A mesh of QKD nodes and links."""

    def __init__(self, rng: Optional[DeterministicRNG] = None):
        self.graph = Graph()
        self.rng = rng or DeterministicRNG(0)
        #: Sorted node pairs of links currently not usable, maintained by
        #: :meth:`_edge_written` so per-epoch consumers (the kms replenishment
        #: scheduler) need not walk all links to find them.
        self._unusable: set = set()
        #: Counts the changes that never revert: a node or link added, a
        #: link's length or rate rewritten.
        self._layout_version = 0
        self._route_state: Optional[RouteState] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_node(self, node: QKDNode) -> None:
        if node.name in self.graph:
            raise ValueError(f"node {node.name!r} already exists")
        self.graph.add_node(node.name, node=node)
        self._layout_changed()

    def add_endpoint(self, name: str) -> QKDNode:
        node = QKDNode(name, NodeKind.ENDPOINT)
        self.add_node(node)
        return node

    def add_relay(self, name: str) -> QKDNode:
        node = QKDNode(name, NodeKind.TRUSTED_RELAY)
        self.add_node(node)
        return node

    def add_switch(self, name: str) -> QKDNode:
        node = QKDNode(name, NodeKind.UNTRUSTED_SWITCH)
        self.add_node(node)
        return node

    def add_link(self, node_a: str, node_b: str, length_km: float = 10.0) -> QKDLinkEdge:
        for name in (node_a, node_b):
            if name not in self.graph:
                raise KeyError(f"unknown node {name!r}")
        edge = QKDLinkEdge(node_a=node_a, node_b=node_b, length_km=length_km)
        edge.secret_key_rate_bps = self.estimate_link_rate(length_km)
        if self.graph.has_edge(node_a, node_b):
            # Re-adding a pair replaces its link with a fresh, usable one.
            self.link(node_a, node_b)._network = None
            self._unusable.discard(tuple(sorted((node_a, node_b))))
        self.graph.add_edge(node_a, node_b, link=edge)
        edge._network = weakref.ref(self)
        self._layout_changed()
        return edge

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def node(self, name: str) -> QKDNode:
        return self.graph.nodes[name]["node"]

    def link(self, node_a: str, node_b: str) -> QKDLinkEdge:
        return self.graph.adj[node_a][node_b]["link"]

    def nodes(self) -> List[QKDNode]:
        return [self.graph.nodes[name]["node"] for name in self.graph.nodes]

    def links(self) -> List[QKDLinkEdge]:
        return [data["link"] for _, _, data in self.graph.edges(data=True)]

    def endpoints(self) -> List[str]:
        return [n.name for n in self.nodes() if n.kind is NodeKind.ENDPOINT]

    def usable_subgraph(self) -> Graph:
        """A copy of the graph containing only usable (up, clean) links."""
        return self.graph.filter_edges(lambda _a, _b, data: data["link"].usable)

    def unusable_link_keys(self) -> List[Tuple[str, str]]:
        """Sorted node pairs of links currently cut, suspended or flagged."""
        return sorted(self._unusable)

    def route_state(self) -> RouteState:
        """Everything a route depends on, as one hashable value.

        The second element is the set of unusable links, which a reroute
        search or a repaired fiber returns to a value it has had before; the
        first counts the changes that never do (nodes and links are only
        ever added, and a rewritten length or rate is not expected back).
        Two moments with equal ``route_state()`` have the same nodes, the
        same links with the same lengths and rates, and the same usable
        flags — the whole input of :meth:`PathSelector.find_path`.
        """
        if self._route_state is None:
            self._route_state = (self._layout_version, frozenset(self._unusable))
        return self._route_state

    def _layout_changed(self) -> None:
        self._layout_version += 1
        self._route_state = None

    def _edge_written(self, edge: QKDLinkEdge, name: str) -> None:
        """One of this network's edges had ``name`` assigned (see
        :class:`QKDLinkEdge`): bring the unusable set and the route state
        in step with it."""
        if name in ("operational", "eavesdropping_detected"):
            key = tuple(sorted(edge.endpoints()))
            if edge.usable:
                self._unusable.discard(key)
            else:
                self._unusable.add(key)
            self._route_state = None
        else:
            self._layout_changed()

    # ------------------------------------------------------------------ #
    # Failure / attack injection
    # ------------------------------------------------------------------ #

    def cut_link(self, node_a: str, node_b: str) -> None:
        """Take a link down (fiber cut or equipment failure)."""
        self.link(node_a, node_b).operational = False

    def restore_link(self, node_a: str, node_b: str) -> None:
        self.link(node_a, node_b).operational = True
        self.link(node_a, node_b).eavesdropping_detected = False

    def suspend_link(self, node_a: str, node_b: str) -> None:
        """Temporarily exclude a link from routing without clearing flags.

        Unlike :meth:`cut_link`/:meth:`restore_link` this pair is for
        short-lived exclusions (an exhausted pad during a reroute search):
        :meth:`resume_link` puts the operational bit back without touching
        the eavesdropping flag, so a quarantined link stays quarantined.
        """
        self.link(node_a, node_b).operational = False

    def resume_link(self, node_a: str, node_b: str) -> None:
        self.link(node_a, node_b).operational = True

    def mark_eavesdropped(self, node_a: str, node_b: str) -> None:
        """Record that this link's QKD protocols detected eavesdropping."""
        self.link(node_a, node_b).eavesdropping_detected = True

    # ------------------------------------------------------------------ #
    # Rates
    # ------------------------------------------------------------------ #

    @staticmethod
    def estimate_link_rate(length_km: float) -> float:
        """Secret-key rate of the paper's link over ``length_km`` of fiber
        (:func:`repro.optics.model.secret_key_rate`)."""
        return model.secret_key_rate(model.ChannelParameters.for_distance(length_km))

    # ------------------------------------------------------------------ #
    # Standard topologies used by the benchmarks
    # ------------------------------------------------------------------ #

    @classmethod
    def point_to_point(cls) -> "QKDNetwork":
        """Alice and Bob joined by one 10 km link, the paper's."""
        net = cls()
        net.add_endpoint("alice")
        net.add_endpoint("bob")
        net.add_link("alice", "bob", 10.0)
        return net

    @classmethod
    def relay_mesh(
        cls,
        n_endpoints: int = 4,
        n_relays: int = 4,
        link_length_km: float = 10.0,
        rng: Optional[DeterministicRNG] = None,
    ) -> "QKDNetwork":
        """A metro-style mesh: a ring of relays with endpoints hanging off it.

        This is the shape the paper sketches for the DARPA Quantum Network:
        BBN, Harvard and BU endpoints joined through a small mesh of relays,
        with enough redundancy that any single link can be lost.  A ring of
        one relay has no ring link: its endpoints all hang off that relay.
        """
        if n_relays < 1:
            raise ValueError(f"a relay mesh needs at least one relay, got {n_relays}")
        net = cls(rng)
        relays = [f"relay-{i}" for i in range(n_relays)]
        for name in relays:
            net.add_relay(name)
        if n_relays > 1:
            for i, name in enumerate(relays):
                net.add_link(name, relays[(i + 1) % n_relays], link_length_km)
        endpoints = [f"endpoint-{i}" for i in range(n_endpoints)]
        for i, name in enumerate(endpoints):
            net.add_endpoint(name)
            net.add_link(name, relays[i % n_relays], link_length_km)
        # Two chords across the relay ring for redundancy.
        added = 0
        for i in range(n_relays):
            for j in range(i + 2, n_relays):
                if added >= 2:
                    break
                if not net.graph.has_edge(relays[i], relays[j]) and (j - i) != n_relays - 1:
                    net.add_link(relays[i], relays[j], link_length_km)
                    added += 1
        return net

    def __repr__(self) -> str:
        return (
            f"QKDNetwork({self.graph.number_of_nodes()} nodes, "
            f"{self.graph.number_of_edges()} links)"
        )


def interconnection_cost(n_enclaves: int) -> Dict[str, int]:
    """Links required to fully interconnect N private enclaves (section 8).

    "QKD networks can greatly reduce the cost of large-scale interconnectivity
    of private enclaves by reducing the required (N x N-1) / 2 point-to-point
    links to as few as N links in the case of a simple star topology."
    """
    if n_enclaves < 0:
        raise ValueError("the number of enclaves must be non-negative")
    return {
        "pairwise_links": n_enclaves * (n_enclaves - 1) // 2,
        "star_links": n_enclaves,
    }
