"""Path selection and rerouting across the QKD mesh.

"When a given point-to-point QKD link within the relay mesh fails — e.g. by
fiber cut or too much eavesdropping or noise — that link is abandoned and
another used instead" (paper section 8).  The :class:`PathSelector` picks
paths over the usable subgraph; the metric can be hop count (fewest trusted
relays exposed to the key), total fiber length, or inverse key rate (the
bottleneck-avoiding choice for sustained key transport).

Route table.  A search draws no randomness and reads only the network's
nodes, its links with their lengths and rates, and each link's usable flag,
so its answer is a pure function of :meth:`QKDNetwork.route_state` and the
query.  :meth:`PathSelector.find_path` therefore keeps one table of answers
per route state it has seen, ``{state: {(source, destination, within):
path}}``, and searches only on a miss.  The tables are keyed by the state
itself, not by a change counter, because the mesh keeps coming back to
states it has been in: a reroute search suspends an exhausted hop and then
resumes it, a cut fiber is repaired.  Exactness needs no invalidation rule —
a state that differs in anything a search reads has a different key (see
:class:`~repro.network.topology.QKDLinkEdge` for why no write can bypass
it), and equal keys mean equal inputs.  The whole table is dropped when it
holds :attr:`PathSelector.MAX_ROUTE_STATES` states; within one state it
holds at most one path per distinct query.  Failed searches are not kept:
they re-run and re-raise with the same text every time.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.network.graph import Graph, NoPath, component, shortest_path
from repro.network.topology import QKDNetwork, RouteState


class RoutingError(Exception):
    """Raised when no usable path exists between two nodes.

    The message always names the source, the destination, and — for a
    disconnected usable subgraph — the set of nodes still reachable from
    the source, so a soak failure log shows *which* partition the mesh
    fell into rather than just that it fell apart.
    """


def frozen_within(within: Optional[Iterable[str]]) -> Optional[FrozenSet[str]]:
    """A ``within`` argument as the frozenset routing works with.

    Public entry points that take ``within`` call this once, so a caller may
    pass any iterable — a one-shot iterator included — and every retry and
    every table lookup below sees the same set.
    """
    if within is None or isinstance(within, frozenset):
        return within
    return frozenset(within)


def _describe_reachable(usable: Graph, source: str) -> str:
    """``"N node(s) reachable from 'src': a, b, c"`` for error messages."""
    reachable = sorted(component(usable, source))
    return (
        f"{len(reachable)} node(s) reachable from {source!r}: "
        f"{', '.join(reachable)}"
    )


class PathSelector:
    """Chooses end-to-end paths across the usable part of the network."""

    METRICS = ("hops", "length", "inverse-rate")
    #: Route states whose answers are kept at once (see the module docstring).
    MAX_ROUTE_STATES = 64

    def __init__(self, network: QKDNetwork, metric: str = "hops"):
        if metric not in self.METRICS:
            raise ValueError(f"metric must be one of {self.METRICS}")
        self.network = network
        self.metric = metric
        self._routes: Dict[
            RouteState, Dict[Tuple[str, str, Optional[FrozenSet[str]]], Tuple[str, ...]]
        ] = {}

    # ------------------------------------------------------------------ #

    def _edge_weight(self, node_a: str, node_b: str, data) -> float:
        link = data["link"]
        if self.metric == "hops":
            return 1.0
        if self.metric == "length":
            return link.length_km
        # inverse-rate: prefer links with plenty of key; guard against zero.
        return 1.0 / max(link.secret_key_rate_bps, 1e-6)

    def _search(
        self, source: str, destination: str, within: Optional[FrozenSet[str]]
    ) -> List[str]:
        """Dijkstra over the usable subgraph (restricted to ``within``)."""
        usable = self.network.usable_subgraph()
        if within is not None:
            usable = usable.subgraph(within)
        for name in (source, destination):
            if name not in usable:
                raise RoutingError(
                    f"unknown node {name!r} in route {source!r} -> {destination!r}"
                    + (" (restricted to within-set)" if within is not None else "")
                )
        try:
            return shortest_path(usable, source, destination, weight=self._edge_weight)
        except NoPath as exc:
            raise RoutingError(
                f"no usable QKD path from {source!r} to {destination!r}; "
                + _describe_reachable(usable, source)
            ) from exc

    def find_path(
        self,
        source: str,
        destination: str,
        within: Optional[Iterable[str]] = None,
    ) -> List[str]:
        """The best usable path, as a list of node names (inclusive of ends).

        Raises :class:`RoutingError` if the usable subgraph does not connect
        the two nodes — the situation a point-to-point deployment is always
        one fiber cut away from, and a mesh is designed to avoid.  With
        ``within`` the search is confined to that node subset (zone-scoped
        queries: a path confined to one zone's members never leaves the
        zone, so a zone scheduler's work stays independent of the rest of
        the mesh); both ends must be members.

        The answer comes from the route table of the network's current
        state when it is there (see the module docstring); the list
        returned is the caller's own either way.
        """
        within = frozen_within(within)
        state = self.network.route_state()
        table = self._routes.get(state)
        if table is None:
            if len(self._routes) >= self.MAX_ROUTE_STATES:
                self._routes.clear()
            table = self._routes[state] = {}
        query = (source, destination, within)
        path = table.get(query)
        if path is None:
            path = table[query] = tuple(self._search(source, destination, within))
        return list(path)

    def path_exists(
        self,
        source: str,
        destination: str,
        within: Optional[Iterable[str]] = None,
    ) -> bool:
        try:
            self.find_path(source, destination, within=within)
            return True
        except RoutingError:
            return False

    def path_length_km(self, path: List[str]) -> float:
        """Total fiber length along a path."""
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.network.link(a, b).length_km
        return total

    def bottleneck_rate_bps(self, path: List[str]) -> float:
        """The lowest per-link key rate along the path (the transport bottleneck)."""
        if len(path) < 2:
            return 0.0
        return min(
            self.network.link(a, b).secret_key_rate_bps for a, b in zip(path, path[1:])
        )

    def relays_on_path(self, path: List[str]) -> List[str]:
        """The intermediate nodes that must be trusted with the key."""
        return [name for name in path[1:-1]]
