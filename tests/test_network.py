"""Tests for the QKD network layer: topology, routing, trusted relays, switches."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.otp import PadExhaustedError
from repro.kms.zones import build_metro_mesh
from repro.network.relay import TrustedRelayNetwork
from repro.network.routing import PathSelector, RoutingError
from repro.network.switches import UntrustedSwitchNetwork
from repro.network.topology import NodeKind, QKDNetwork, interconnection_cost
from repro.util.rng import DeterministicRNG
from tests.oracles.rebuild_routing import disjoint_paths, rebuild_find_path


@pytest.fixture
def mesh():
    return QKDNetwork.relay_mesh(n_endpoints=3, n_relays=4, rng=DeterministicRNG(1))


def routable(selector, source, destination):
    """Whether ``find_path`` answers with a route rather than a RoutingError."""
    try:
        selector.find_path(source, destination)
    except RoutingError:
        return False
    return True


class TestTopology:
    def test_node_kinds(self, mesh):
        kinds = {node.kind for node in mesh.nodes()}
        assert NodeKind.ENDPOINT in kinds
        assert NodeKind.TRUSTED_RELAY in kinds
        assert len(mesh.endpoints()) == 3

    def test_duplicate_node_rejected(self):
        net = QKDNetwork()
        net.add_endpoint("a")
        with pytest.raises(ValueError):
            net.add_endpoint("a")

    def test_link_requires_known_nodes(self):
        net = QKDNetwork()
        net.add_endpoint("a")
        with pytest.raises(KeyError):
            net.add_link("a", "missing")

    def test_links_carry_estimated_rates(self, mesh):
        for edge in mesh.links():
            assert edge.secret_key_rate_bps > 0
            assert edge.usable

    def test_longer_links_have_lower_rates(self):
        net = QKDNetwork()
        net.add_endpoint("a")
        net.add_endpoint("b")
        net.add_endpoint("c")
        short = net.add_link("a", "b", 5.0)
        long = net.add_link("b", "c", 40.0)
        assert short.secret_key_rate_bps > long.secret_key_rate_bps

    def test_cut_and_restore(self, mesh):
        edge = mesh.links()[0]
        mesh.cut_link(edge.node_a, edge.node_b)
        assert not mesh.link(edge.node_a, edge.node_b).usable
        mesh.restore_link(edge.node_a, edge.node_b)
        assert mesh.link(edge.node_a, edge.node_b).usable

    def test_mark_eavesdropped(self, mesh):
        edge = mesh.links()[0]
        mesh.mark_eavesdropped(edge.node_a, edge.node_b)
        assert not mesh.link(edge.node_a, edge.node_b).usable
        assert mesh.link(edge.node_a, edge.node_b).operational

    def test_usable_subgraph_excludes_down_links(self, mesh):
        total = mesh.graph.number_of_edges()
        edge = mesh.links()[0]
        mesh.cut_link(edge.node_a, edge.node_b)
        assert mesh.usable_subgraph().number_of_edges() == total - 1

    def test_fail_random_links(self, mesh):
        failed = mesh.fail_random_links(2)
        assert len(failed) == 2
        assert all(not edge.operational for edge in failed)

    def test_point_to_point_topology(self):
        net = QKDNetwork.point_to_point(15.0)
        assert net.graph.number_of_nodes() == 2
        assert net.link("alice", "bob").length_km == 15.0

    def test_interconnection_cost(self):
        assert interconnection_cost(0) == {"pairwise_links": 0, "star_links": 0}
        assert interconnection_cost(4) == {"pairwise_links": 6, "star_links": 4}
        assert interconnection_cost(10)["pairwise_links"] == 45
        with pytest.raises(ValueError):
            interconnection_cost(-1)


class TestRouting:
    def test_find_path_endpoints(self, mesh):
        selector = PathSelector(mesh)
        path = selector.find_path("endpoint-0", "endpoint-1")
        assert path[0] == "endpoint-0"
        assert path[-1] == "endpoint-1"
        assert len(path) >= 3  # must pass through at least one relay

    def test_unknown_node(self, mesh):
        with pytest.raises(RoutingError):
            PathSelector(mesh).find_path("endpoint-0", "nowhere")

    def test_metric_validation(self, mesh):
        with pytest.raises(ValueError):
            PathSelector(mesh, metric="banana")

    def test_avoids_unusable_links(self, mesh):
        selector = PathSelector(mesh)
        path = selector.find_path("endpoint-0", "endpoint-1")
        # Cut the relay-to-relay hop in the middle; the ring provides a detour
        # (the endpoints' single access links, by contrast, have none).
        cut = (path[1], path[2])
        mesh.cut_link(*cut)
        new_path = selector.find_path("endpoint-0", "endpoint-1")
        hops = list(zip(new_path, new_path[1:]))
        assert cut not in hops and tuple(reversed(cut)) not in hops

    def test_no_path_raises(self):
        net = QKDNetwork.point_to_point()
        net.cut_link("alice", "bob")
        selector = PathSelector(net)
        with pytest.raises(RoutingError):
            selector.find_path("alice", "bob")
        assert not routable(selector, "alice", "bob")

    def test_no_path_error_names_ends_and_reachable_set(self):
        net = QKDNetwork()
        for name in ("a", "b", "c", "d"):
            net.add_endpoint(name)
        net.add_link("a", "b", 5.0)
        net.add_link("c", "d", 5.0)
        with pytest.raises(RoutingError) as excinfo:
            PathSelector(net).find_path("a", "d")
        message = str(excinfo.value)
        assert "'a'" in message and "'d'" in message
        assert "2 node(s) reachable from 'a': a, b" in message

    def test_unknown_node_error_names_the_route(self):
        net = QKDNetwork.point_to_point()
        with pytest.raises(RoutingError) as excinfo:
            PathSelector(net).find_path("alice", "nowhere")
        assert "unknown node 'nowhere' in route 'alice' -> 'nowhere'" in str(
            excinfo.value
        )

    def test_disjoint_paths_on_disconnected_pair_raise_with_reachable_set(self):
        net = QKDNetwork()
        for name in ("a", "b", "c"):
            net.add_endpoint(name)
        net.add_link("a", "b", 5.0)
        with pytest.raises(RoutingError) as excinfo:
            disjoint_paths(net, "a", "c")
        message = str(excinfo.value)
        assert "no edge-disjoint usable QKD paths from 'a' to 'c'" in message
        assert "reachable from 'a': a, b" in message

    def test_disjoint_paths_in_mesh(self, mesh):
        paths = disjoint_paths(mesh, "relay-0", "relay-2")
        assert len(paths) >= 2  # the ring plus chords provides redundancy

    def test_length_metric_prefers_shorter_fiber(self):
        net = QKDNetwork()
        for name in ("a", "b", "c"):
            net.add_endpoint(name)
        net.add_link("a", "b", 50.0)
        net.add_link("a", "c", 5.0)
        net.add_link("c", "b", 5.0)
        by_hops = PathSelector(net, metric="hops").find_path("a", "b")
        by_length = PathSelector(net, metric="length").find_path("a", "b")
        assert by_hops == ["a", "b"]
        assert by_length == ["a", "c", "b"]


def _relay_mesh_case():
    net = QKDNetwork.relay_mesh(n_endpoints=3, n_relays=4, rng=DeterministicRNG(1))
    names = [node.name for node in net.nodes()]
    withins = [None, tuple(names), tuple(n for n in names if n != "relay-2"), ("relay-0",)]
    return net, withins


def _metro_mesh_case():
    relays, plan = build_metro_mesh(3, 2, 3, rng=DeterministicRNG(1))
    withins = [None] + [plan.members(zone) for zone in plan.zone_ids]
    return relays.network, withins


def _answer(search):
    """What a search said: its path, or its RoutingError's text."""
    try:
        return search()
    except RoutingError as exc:
        return str(exc)


#: One state change each: ``(net, i, j)`` picks the link (and, where one is
#: needed, a second node or a value) by index.
def _edge(net, i):
    links = net.links()
    return links[i % len(links)]


def _direct_flag_write(net, i, j):
    edge = _edge(net, i)
    if j % 2:
        edge.operational = not edge.operational
    else:
        edge.eavesdropping_detected = not edge.eavesdropping_detected


def _direct_weight_write(net, i, j):
    edge = _edge(net, i)
    if j % 2:
        edge.length_km = 1.0 + j % 40
    else:
        edge.secret_key_rate_bps = float(j % 5000)


def _add_link(net, i, j):
    names = [node.name for node in net.nodes()]
    node_a = names[i % len(names)]
    node_b = names[j % len(names)]
    if node_a != node_b:
        net.add_link(node_a, node_b, 2.0 + (i + j) % 30)


STATE_CHANGES = {
    "cut_link": lambda net, i, j: net.cut_link(*_edge(net, i).endpoints()),
    "restore_link": lambda net, i, j: net.restore_link(*_edge(net, i).endpoints()),
    "suspend_link": lambda net, i, j: net.suspend_link(*_edge(net, i).endpoints()),
    "resume_link": lambda net, i, j: net.resume_link(*_edge(net, i).endpoints()),
    "mark_eavesdropped": lambda net, i, j: net.mark_eavesdropped(*_edge(net, i).endpoints()),
    "fail_random_links": lambda net, i, j: net.fail_random_links(1 + j % 2),
    "add_link": _add_link,
    "direct_flag_write": _direct_flag_write,
    "direct_weight_write": _direct_weight_write,
}

state_changes = st.lists(
    st.tuples(
        st.sampled_from(sorted(STATE_CHANGES)),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=20,
)


class TestRouteTableDifferential:
    """``find_path`` answers from a table keyed by the network's route state;
    the oracle rebuilds the usable subgraph and searches on every call."""

    @pytest.mark.parametrize("build", [_relay_mesh_case, _metro_mesh_case])
    @given(changes=state_changes)
    @settings(max_examples=40, deadline=None)
    def test_find_path_equals_the_rebuild_oracle_after_every_change(self, build, changes):
        net, withins = build()
        selectors = [PathSelector(net, metric) for metric in PathSelector.METRICS]
        names = [node.name for node in net.nodes()]

        def check(i, j):
            for k in range(3):
                source = names[(i + k) % len(names)]
                destination = names[(j + 5 * k) % len(names)] if k < 2 else "nowhere"
                within = withins[(i + j + k) % len(withins)]
                for selector in selectors:
                    expected = _answer(
                        lambda: rebuild_find_path(selector, source, destination, within)
                    )
                    found = _answer(lambda: selector.find_path(source, destination, within))
                    assert found == expected
                    if isinstance(found, list):
                        # The list is the caller's: wrecking it changes nothing.
                        found.append("scribble")
                        found[0] = None
                    again = _answer(
                        # A one-shot iterator is as good a ``within`` as a tuple.
                        lambda: selector.find_path(
                            source, destination, None if within is None else iter(within)
                        )
                    )
                    assert again == expected

        check(0, 1)
        for name, i, j in changes:
            STATE_CHANGES[name](net, i, j)
            check(i, j)
            assert net.unusable_link_keys() == sorted(
                tuple(sorted(edge.endpoints())) for edge in net.links() if not edge.usable
            )

    def test_direct_edge_write_is_seen_at_once(self, mesh):
        selector = PathSelector(mesh)
        before = selector.find_path("endpoint-0", "endpoint-1")
        edge = mesh.link(before[1], before[2])
        edge.operational = False  # no cut_link: written straight to the edge
        detour = selector.find_path("endpoint-0", "endpoint-1")
        assert detour != before
        assert detour == rebuild_find_path(selector, "endpoint-0", "endpoint-1")
        assert tuple(sorted(edge.endpoints())) in mesh.unusable_link_keys()
        edge.operational = True
        assert selector.find_path("endpoint-0", "endpoint-1") == before
        assert mesh.unusable_link_keys() == []

    def test_revisited_state_is_answered_from_its_own_table(self, mesh):
        selector = PathSelector(mesh)
        before = selector.find_path("endpoint-0", "endpoint-1")
        state = mesh.route_state()
        mesh.suspend_link(before[1], before[2])
        assert mesh.route_state() != state
        selector.find_path("endpoint-0", "endpoint-1")
        mesh.resume_link(before[1], before[2])
        assert mesh.route_state() == state
        assert len(selector._routes) == 2
        assert selector.find_path("endpoint-0", "endpoint-1") == before
        assert len(selector._routes) == 2

    def test_table_stays_bounded_under_10000_state_changes(self, mesh):
        selector = PathSelector(mesh)
        rng = DeterministicRNG(9)
        names = sorted(STATE_CHANGES)
        endpoints = mesh.endpoints()
        largest = 0
        for _ in range(10_000):
            change = names[rng.randint(0, len(names) - 1)]
            STATE_CHANGES[change](mesh, rng.randint(0, 10_000), rng.randint(0, 10_000))
            for source in endpoints:
                for destination in endpoints:
                    routable(selector, source, destination)
            assert len(selector._routes) <= PathSelector.MAX_ROUTE_STATES
            largest = max(largest, max(len(table) for table in selector._routes.values()))
        # One entry per distinct query answered, never more.
        assert largest <= len(endpoints) ** 2


class TestTrustedRelay:
    def _loaded(self, mesh, seconds=60.0):
        relay = TrustedRelayNetwork(mesh, DeterministicRNG(5))
        relay.run_links_for(seconds)
        return relay

    @given(pad=st.binary(max_size=96), payload=st.binary(max_size=64))
    def test_cross_hop_spends_exactly_the_payload_or_nothing(self, pad, payload):
        """The one pad-spending primitive: the payload arrives intact, costs
        exactly its length in pad (the *next* pad bytes) and is announced
        once; a pool that cannot cover it is left untouched and unannounced."""
        net = QKDNetwork(DeterministicRNG(1))
        net.add_endpoint("a")
        net.add_endpoint("b")
        net.add_link("a", "b", 5.0)
        relay = TrustedRelayNetwork(net, DeterministicRNG(2))
        relay.bank_pad("a", "b", pad)
        announced = []
        relay.add_pad_listener(announced.append)
        arrived = relay.cross_hop("b", "a", payload)
        remaining = relay.pad_for("a", "b")
        if len(payload) > len(pad):
            assert arrived is None and announced == []
            assert remaining.peek(len(pad)) == pad and remaining.consumed_bytes == 0
            with pytest.raises(PadExhaustedError):
                relay.spend_path_pad([["a", "b"]], payload)
        else:
            assert arrived == payload and announced == [("a", "b")]
            assert remaining.consumed_bytes == len(payload)
            assert remaining.peek(remaining.available_bytes) == pad[len(payload):]

    def test_transport_succeeds_with_key(self, mesh):
        relay = self._loaded(mesh)
        result = relay.transport_key("endpoint-0", "endpoint-1", 256)
        assert result.success
        assert result.key is not None and len(result.key) == 256
        assert result.pad_bits_consumed == 256 * (len(result.path) - 1)

    def test_relays_exposed_are_exactly_the_intermediate_relays(self, mesh):
        relay = self._loaded(mesh)
        result = relay.transport_key("endpoint-0", "endpoint-2", 128)
        assert result.success
        expected = [n for n in result.path[1:-1] if mesh.node(n).kind is NodeKind.TRUSTED_RELAY]
        assert result.relays_exposed == expected
        assert len(result.relays_exposed) >= 1

    def test_transport_fails_without_pairwise_key(self, mesh):
        relay = TrustedRelayNetwork(mesh, DeterministicRNG(6))  # pools never filled
        result = relay.transport_key("endpoint-0", "endpoint-1", 256)
        assert not result.success
        assert "exhausted" in result.failure_reason
        assert result.failed_hop is not None

    def test_pairwise_key_consumed(self, mesh):
        relay = self._loaded(mesh)
        result = relay.transport_key("endpoint-0", "endpoint-1", 256)
        hop = (result.path[0], result.path[1])
        before = relay.pairwise_key_available_bits(*hop)
        relay.transport_key("endpoint-0", "endpoint-1", 256)
        assert relay.pairwise_key_available_bits(*hop) == before - 256

    def test_reroute_after_fiber_cut(self, mesh):
        relay = self._loaded(mesh)
        first = relay.transport_key("endpoint-0", "endpoint-1", 128)
        mesh.cut_link(first.path[1], first.path[2])
        second = relay.transport_with_reroute("endpoint-0", "endpoint-1", 128)
        assert second.success
        assert second.path != first.path

    @pytest.mark.parametrize("container", [tuple, iter])
    def test_reroute_accepts_a_one_shot_within(self, container):
        """``within`` is an ``Iterable``: the reroute retries must see the
        same node set the first attempt saw, not an exhausted iterator."""
        net = QKDNetwork.relay_mesh(2, 4, rng=DeterministicRNG(1))
        relay = TrustedRelayNetwork(net, DeterministicRNG(5))
        relay.run_links_for(60.0)
        preferred = relay.selector.find_path("endpoint-0", "endpoint-1")
        exhausted = relay.pad_for(preferred[1], preferred[2])
        exhausted.encrypt(bytes(exhausted.available_bytes))
        everywhere = container(node.name for node in net.nodes())
        result = relay.transport_with_reroute("endpoint-0", "endpoint-1", 128, within=everywhere)
        assert result.success and result.rerouted
        assert (preferred[1], preferred[2]) not in zip(result.path, result.path[1:])

    def test_point_to_point_has_no_fallback(self):
        net = QKDNetwork.point_to_point()
        relay = TrustedRelayNetwork(net, DeterministicRNG(7))
        relay.run_links_for(60.0)
        net.cut_link("alice", "bob")
        result = relay.transport_with_reroute("alice", "bob", 128)
        assert not result.success

    def test_key_length_validation(self, mesh):
        relay = self._loaded(mesh)
        with pytest.raises(ValueError):
            relay.transport_key("endpoint-0", "endpoint-1", 100)  # not a multiple of 8
        with pytest.raises(ValueError):
            relay.transport_key("endpoint-0", "endpoint-1", 0)


class TestUntrustedSwitches:
    def test_chain_loss_budget(self):
        report = UntrustedSwitchNetwork.chain(2, span_length_km=5.0, switch_insertion_loss_db=0.5)
        assert report.n_switches == 2
        assert report.fiber_length_km == pytest.approx(15.0)
        assert report.total_loss_db == pytest.approx(15.0 * 0.2 + 2 * 0.5)

    def test_more_switches_less_key(self):
        rates = [
            UntrustedSwitchNetwork.chain(k, span_length_km=5.0).secret_key_rate_bps
            for k in range(5)
        ]
        assert all(earlier > later for earlier, later in zip(rates, rates[1:]))

    def test_switches_reduce_reach(self):
        """Same total fiber, more switches -> lower rate (the paper's key point)."""
        direct = UntrustedSwitchNetwork.chain(0, span_length_km=30.0)
        switched = UntrustedSwitchNetwork.chain(2, span_length_km=10.0)
        assert direct.fiber_length_km == switched.fiber_length_km
        assert switched.secret_key_rate_bps < direct.secret_key_rate_bps

    def test_eventually_no_key(self):
        report = UntrustedSwitchNetwork.chain(10, span_length_km=10.0, switch_insertion_loss_db=1.0)
        assert not report.viable

    def test_route_evaluation_over_topology(self):
        net = QKDNetwork()
        net.add_endpoint("src")
        net.add_switch("sw1")
        net.add_switch("sw2")
        net.add_endpoint("dst")
        net.add_link("src", "sw1", 5.0)
        net.add_link("sw1", "sw2", 5.0)
        net.add_link("sw2", "dst", 5.0)
        switched = UntrustedSwitchNetwork(net)
        report = switched.evaluate_path(switched.selector.find_path("src", "dst"))
        assert report.n_switches == 2
        assert report.path == ["src", "sw1", "sw2", "dst"]

    def test_trusted_relay_on_optical_path_rejected(self):
        net = QKDNetwork()
        net.add_endpoint("src")
        net.add_relay("relay")
        net.add_endpoint("dst")
        net.add_link("src", "relay", 5.0)
        net.add_link("relay", "dst", 5.0)
        switched = UntrustedSwitchNetwork(net)
        with pytest.raises(ValueError):
            switched.evaluate_path(["src", "relay", "dst"])

    def test_insertion_loss_validation(self):
        with pytest.raises(ValueError):
            UntrustedSwitchNetwork(QKDNetwork(), switch_insertion_loss_db=-1.0)
