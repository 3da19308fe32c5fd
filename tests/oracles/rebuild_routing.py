"""Rebuild-every-call reference for :meth:`repro.network.routing.PathSelector.find_path`.

The body ``find_path`` (and its ``_usable`` helper) had before the selector
kept a route table, kept verbatim as a function of the selector: a fresh
copy of the usable subgraph, a ``within`` view and a fresh Dijkstra on every
call, remembering nothing.  ``usable_subgraph`` reads each link's flags from
the graph itself, never :meth:`QKDNetwork.route_state`, so the oracle cannot
share a stale key with the code under test.  Obvious and slow, imported by
no production code; ``tests/test_network.py`` holds the shipped ``find_path``
to it, path for path and error text for error text.
"""

import networkx as nx

from repro.network.routing import RoutingError, _describe_reachable


def _usable(selector, within):
    usable = selector.network.usable_subgraph()
    if within is None:
        return usable
    allowed = set(within)
    return usable.subgraph(n for n in usable.nodes if n in allowed)


def rebuild_find_path(selector, source, destination, within=None):
    """The best usable path, searched from scratch."""
    usable = _usable(selector, within)
    for name in (source, destination):
        if name not in usable:
            raise RoutingError(
                f"unknown node {name!r} in route {source!r} -> {destination!r}"
                + (" (restricted to within-set)" if within is not None else "")
            )
    try:
        return nx.shortest_path(
            usable, source, destination, weight=selector._edge_weight
        )
    except nx.NetworkXNoPath as exc:
        raise RoutingError(
            f"no usable QKD path from {source!r} to {destination!r}; "
            + _describe_reachable(usable, source)
        ) from exc
