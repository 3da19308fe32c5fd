"""The mesh's graph searches, held to networkx over random meshes.

Each example builds a random mesh twice: a :class:`QKDNetwork` and, call
for call, the ``nx.Graph`` the network wrapped when it was built on
networkx.  The meshes are small and dense, with lengths from two values, so
equal-cost paths are everywhere and every answer depends on how ties break.
Every search the contact-graph, custody and zone layers make is run on the
network and, as that layer's code ran it, on the networkx graph; paths,
reachable sets, distances and error texts must all be equal.
"""

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtn import ContactGraphSelector, ContactSchedule, ContactWindow, CustodyTransport
from repro.dtn.policies import ScheduledPolicy
from repro.kms.zones import ZonePlan
from repro.network.graph import shortest_path
from repro.network.relay import TrustedRelayNetwork
from repro.network.routing import PathSelector, RoutingError
from repro.network.topology import QKDNetwork
from repro.util.rng import DeterministicRNG

#: Contact plans an edge may get; ``None`` leaves it unscheduled.
PLANS = (None, [ContactWindow(0.0, 5.0)], [ContactWindow(5.0, 10.0)], [])
TIMES = (0.0, 7.5)


@st.composite
def meshes(draw):
    """``(names, kinds, links)``: node names in insertion order, which are
    relays, and ``(a, b, length, cut, plan)`` per ``add_link`` call."""
    n = draw(st.integers(2, 14))
    order = draw(st.permutations(range(n)))
    names = [f"n{i}" for i in order]
    kinds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    links = draw(
        st.lists(
            st.tuples(
                pair,
                st.sampled_from((1.0, 2.0)),
                st.sampled_from((False, False, False, True)),
                st.sampled_from((0, 0, 1, 2, 3)),
            ),
            min_size=n,
            max_size=3 * n,
        )
    )
    return names, kinds, [(names[i], names[j], *rest) for (i, j), *rest in links]


def build(mesh):
    """The network and its networkx twin, built by the same calls."""
    names, kinds, links = mesh
    net = QKDNetwork()
    twin = nx.Graph()
    for name, relay in zip(names, kinds):
        (net.add_relay if relay else net.add_endpoint)(name)
        twin.add_node(name, node=net.node(name))
    schedule = ContactSchedule()
    for node_a, node_b, length, cut, plan in links:
        twin.add_edge(node_a, node_b, link=net.add_link(node_a, node_b, length))
        net.link(node_a, node_b).operational = not cut
        if PLANS[plan] is not None:
            schedule.set_windows(node_a, node_b, PLANS[plan])
    return net, twin, schedule


def twin_subgraph(twin, keep):
    """``usable_subgraph``/``open_subgraph`` as they were built on networkx:
    every node, and the edges ``keep(a, b)`` passes."""
    subgraph = nx.Graph()
    subgraph.add_nodes_from(twin.nodes(data=True))
    for node_a, node_b, data in twin.edges(data=True):
        if keep(node_a, node_b):
            subgraph.add_edge(node_a, node_b, **data)
    return subgraph


def twin_open_graph(selector, twin, time):
    return twin_subgraph(twin, lambda a, b: selector.edge_open(a, b, time))


def reachable_text(graph, source):
    reachable = sorted(nx.node_connected_component(graph, source))
    return f"{len(reachable)} node(s) reachable from {source!r}: {', '.join(reachable)}"


def answer(search):
    """What a search said: its path, or its RoutingError's text."""
    try:
        return search()
    except RoutingError as exc:
        return str(exc)


def twin_find_path(selector, usable, source, destination):
    try:
        return nx.shortest_path(usable, source, destination, weight=selector._edge_weight)
    except nx.NetworkXNoPath:
        return (
            f"no usable QKD path from {source!r} to {destination!r}; "
            + reachable_text(usable, source)
        )


def twin_live_route(open_graph, distances, custodian, destination):
    """The scheduled policy's live-mode route, as it ran on networkx."""
    reachable = sorted(nx.node_connected_component(open_graph, custodian))
    best = min(
        reachable, key=lambda node: (distances[destination].get(node, math.inf), node)
    )
    if best == custodian:
        return [custodian]
    return nx.shortest_path(open_graph, custodian, best)


def twin_zone_error(twin, plan):
    for zid in plan.zone_ids:
        members = set(plan.zones[zid])
        induced = twin.subgraph(members)
        if members and not nx.is_connected(induced):
            return (
                f"zone {zid!r} is disconnected within itself: "
                f"components {sorted(map(sorted, nx.connected_components(induced)))}"
            )
    return None


@pytest.mark.parametrize("metric", PathSelector.METRICS)
@given(mesh=meshes())
@settings(max_examples=60, deadline=None)
def test_contact_routing_matches_networkx(metric, mesh):
    net, twin, schedule = build(mesh)
    names = list(twin)
    for plan in (schedule, None):
        selector = ContactGraphSelector(net, schedule=plan, metric=metric)
        for time in TIMES:
            open_graph = twin_open_graph(selector, twin, time)
            for source in names:
                assert selector.reachable_at(source, time) == sorted(
                    nx.node_connected_component(open_graph, source)
                )
    selector = PathSelector(net, metric)
    usable = twin_subgraph(twin, lambda a, b: twin.edges[a, b]["link"].usable)
    for source in names:
        for destination in names:
            assert answer(lambda: selector.find_path(source, destination)) == twin_find_path(
                selector, usable, source, destination
            )


@given(mesh=meshes())
@settings(max_examples=60, deadline=None)
def test_custody_searches_match_networkx(mesh):
    net, twin, _schedule = build(mesh)
    names = list(twin)
    transport = CustodyTransport(TrustedRelayNetwork(net), rng=DeterministicRNG(1))
    selector = transport.selector
    distances = {name: nx.single_source_shortest_path_length(twin, name) for name in names}
    policy = ScheduledPolicy()
    open_graph = selector.open_subgraph(0.0)
    twin_open = twin_open_graph(selector, twin, 0.0)
    for source in names:
        for destination in names:
            assert transport.static_distance(source, destination) == distances[
                destination
            ].get(source, math.inf)
            if nx.has_path(twin_open, source, destination):
                assert shortest_path(open_graph, source, destination) == nx.shortest_path(
                    twin_open, source, destination
                )
            assert policy._route(transport, source, destination, 0.0) == twin_live_route(
                twin_open, distances, source, destination
            )


@given(mesh=meshes(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_zone_connectivity_matches_networkx(mesh, data):
    net, twin, _schedule = build(mesh)
    names = list(twin)
    n_zones = data.draw(st.integers(1, len(names)))
    assignment = data.draw(
        st.lists(st.integers(0, n_zones - 1), min_size=len(names), max_size=len(names))
    )
    zones = {}
    for name, zone in zip(names, assignment):
        zones.setdefault(f"z{zone:02d}", []).append(name)
    plan = ZonePlan(zones=zones, gateways={zid: members[0] for zid, members in zones.items()})
    expected = twin_zone_error(twin, plan)
    if expected is None:
        plan.validate(net)
    else:
        with pytest.raises(ValueError) as excinfo:
            plan.validate(net)
        assert str(excinfo.value) == expected
