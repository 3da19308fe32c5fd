"""networkx references for the mesh's routing.

:func:`rebuild_find_path` is the body :meth:`repro.network.routing
.PathSelector.find_path` had before the selector kept a route table, as a
function of the selector: a fresh copy of the usable subgraph, a ``within``
restriction and a fresh search on every call, remembering nothing — the
search being networkx's own, run on an ``nx.Graph`` copy of that usable
subgraph.  ``usable_subgraph`` reads each link's flags from the graph
itself, never :meth:`QKDNetwork.route_state`, so the oracle cannot share a
stale key with the code under test.  Obvious and slow, imported by no
production code; ``tests/test_network.py`` holds the shipped ``find_path``
to it, path for path and error text for error text.

:func:`disjoint_paths` counts the mesh's redundancy with networkx's
edge-disjoint paths; no production code needs it.
"""

import networkx as nx

from repro.network.routing import RoutingError, _describe_reachable


def as_networkx(graph):
    """``graph`` as an ``nx.Graph`` whose every neighbour order is the same.

    The copy adds edges in ``graph.edges()`` order, which reproduces each
    neighbour order of a graph that was itself built that way — as every
    graph the routing layer searches is (``Graph.filter_edges`` copies and
    their induced subgraphs).  The check below makes a copy that would
    break ties differently an error, not a quiet pass.
    """
    copy = nx.Graph()
    copy.add_nodes_from(graph.nodes.items())
    copy.add_edges_from(graph.edges(data=True))
    for node, neighbours in graph.adj.items():
        assert list(copy.adj[node]) == list(neighbours), node
    return copy


def rebuild_find_path(selector, source, destination, within=None):
    """The best usable path, searched from scratch."""
    usable = selector.network.usable_subgraph()
    if within is not None:
        allowed = set(within)
        usable = usable.subgraph(n for n in usable.nodes if n in allowed)
    for name in (source, destination):
        if name not in usable:
            raise RoutingError(
                f"unknown node {name!r} in route {source!r} -> {destination!r}"
                + (" (restricted to within-set)" if within is not None else "")
            )
    try:
        return nx.shortest_path(
            as_networkx(usable), source, destination, weight=selector._edge_weight
        )
    except nx.NetworkXNoPath as exc:
        raise RoutingError(
            f"no usable QKD path from {source!r} to {destination!r}; "
            + _describe_reachable(usable, source)
        ) from exc


def disjoint_paths(network, source, destination):
    """Edge-disjoint usable paths between two nodes of ``network``.

    Raises :class:`RoutingError` (naming the reachable node set) when the
    usable subgraph provides no path at all.
    """
    usable = network.usable_subgraph()
    try:
        return [
            list(p)
            for p in nx.edge_disjoint_paths(as_networkx(usable), source, destination)
        ]
    except nx.NetworkXNoPath as exc:
        raise RoutingError(
            f"no edge-disjoint usable QKD paths from {source!r} to "
            f"{destination!r}; " + _describe_reachable(usable, source)
        ) from exc
