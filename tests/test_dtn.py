"""Disruption-tolerant key relay (repro.dtn): custody transfer, contact
plans, contact-graph routing and the scheduled/epidemic forwarding policies.

The centrepiece is the pinned intermittent soak: a mesh whose only
source-to-destination path is never fully live at any single instant — each
link is open only while the other is closed — still delivers every bundle,
the delivered key material is digest-identical to the always-connected run
(and to the epidemic run of the same scenario), and the custody stores
drain to zero with exact terminal accounting.
"""

import math

import pytest

from repro.dtn import (
    ContactGraphSelector,
    ContactSchedule,
    ContactWindow,
    CustodyBundle,
    CustodyError,
    CustodyStore,
    CustodyTransport,
    DELIVERED,
    EVICTED,
    EXPIRED,
    build_policy,
)
from repro.network.relay import TrustedRelayNetwork
from repro.network.routing import RoutingError
from repro.network.topology import QKDNetwork
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


def line_network():
    """a -- r1 -- b: one path, two links."""
    net = QKDNetwork()
    net.add_endpoint("a")
    net.add_endpoint("b")
    net.add_relay("r1")
    net.add_link("a", "r1", 5.0)
    net.add_link("r1", "b", 5.0)
    return net


def line_relays(prefill_seconds=120.0, seed=7):
    relays = TrustedRelayNetwork(line_network(), rng=DeterministicRNG(seed))
    if prefill_seconds:
        relays.run_links_for(prefill_seconds)
    return relays


def staggered_schedule():
    """The two line links alternate: never both open at the same instant."""
    schedule = ContactSchedule()
    schedule.set_windows("a", "r1", [ContactWindow(0.0, 10.0), ContactWindow(20.0, 30.0)])
    schedule.set_windows("r1", "b", [ContactWindow(10.0, 20.0), ContactWindow(30.0, 40.0)])
    return schedule


# --------------------------------------------------------------------- #
# Contact windows and schedules
# --------------------------------------------------------------------- #


class TestContactSchedule:
    def test_window_validation_and_open_semantics(self):
        with pytest.raises(ValueError):
            ContactWindow(5.0, 4.0)
        window = ContactWindow(1.0, 2.0)
        assert window.open_at(1.0)
        assert not window.open_at(2.0)  # half-open on the right
        assert ContactWindow(0.0, math.inf).open_at(1e9)

    def test_windows_normalised_on_set(self):
        schedule = ContactSchedule()
        schedule.set_windows(
            "a",
            "b",
            [
                ContactWindow(5.0, 5.0),  # zero-duration: dropped
                ContactWindow(10.0, 20.0),
                ContactWindow(0.0, 4.0),
                ContactWindow(18.0, 25.0),  # overlaps: merged
                ContactWindow(25.0, 30.0),  # adjacent: merged
            ],
        )
        assert schedule.windows_for("b", "a") == (
            ContactWindow(0.0, 4.0),
            ContactWindow(10.0, 30.0),
        )

    def test_unscheduled_edge_is_always_open(self):
        schedule = ContactSchedule()
        assert schedule.windows_for("x", "y") is None
        assert schedule.is_open("x", "y", 123.0)
        assert schedule.next_open("x", "y", 123.0) == 123.0

    def test_scheduled_edge_open_exactly_in_windows(self):
        schedule = staggered_schedule()
        assert schedule.is_open("a", "r1", 0.0)
        assert not schedule.is_open("a", "r1", 10.0)
        assert schedule.is_open("a", "r1", 25.0)
        assert not schedule.is_open("a", "r1", 40.0)

    def test_next_open_waits_for_the_next_window(self):
        schedule = staggered_schedule()
        assert schedule.next_open("a", "r1", 5.0) == 5.0
        assert schedule.next_open("a", "r1", 12.0) == 20.0
        assert schedule.next_open("a", "r1", 31.0) is None
        # an empty plan never opens
        schedule.set_windows("a", "r1", [])
        assert schedule.next_open("a", "r1", 0.0) is None

    def test_boundary_times_are_the_distinct_finite_edges(self):
        schedule = staggered_schedule()
        assert schedule.boundary_times() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert schedule.boundary_times(horizon=15.0) == [0.0, 10.0]


# --------------------------------------------------------------------- #
# Contact-graph routing
# --------------------------------------------------------------------- #


class TestContactGraphSelector:
    def test_live_usable_flag_gates_even_scheduled_contacts(self):
        network = line_network()
        selector = ContactGraphSelector(network, schedule=staggered_schedule())
        network.cut_link("a", "r1")
        assert not selector.edge_open("a", "r1", 5.0)

    def test_reachable_at_is_the_open_component(self):
        selector = ContactGraphSelector(line_network(), schedule=staggered_schedule())
        assert selector.reachable_at("a", 5.0) == ["a", "r1"]
        assert selector.reachable_at("a", 15.0) == ["a"]

    def test_earliest_arrival_waits_for_windows(self):
        selector = ContactGraphSelector(line_network(), schedule=staggered_schedule())
        path, arrival = selector.earliest_arrival("a", "b", 0.0)
        assert path == ["a", "r1", "b"]
        assert arrival == 10.0  # cross a--r1 now, wait at r1 until its window
        path, arrival = selector.earliest_arrival("a", "b", 12.0)
        assert arrival == 30.0  # missed a--r1; next chance is [20,30) then [30,40)

    def test_earliest_arrival_requires_a_schedule(self):
        selector = ContactGraphSelector(line_network())
        with pytest.raises(RoutingError, match="contact schedule"):
            selector.earliest_arrival("a", "b", 0.0)

    def test_earliest_arrival_names_the_ever_reachable_set(self):
        schedule = staggered_schedule()
        schedule.set_windows("r1", "b", [])  # b never opens
        selector = ContactGraphSelector(line_network(), schedule=schedule)
        with pytest.raises(RoutingError) as excinfo:
            selector.earliest_arrival("a", "b", 0.0)
        message = str(excinfo.value)
        assert "'a'" in message and "'b'" in message
        assert "a, r1" in message


# --------------------------------------------------------------------- #
# Custody stores
# --------------------------------------------------------------------- #


def make_bundle(bundle_id, bits=256, created_at=0.0, expires_at=100.0):
    return CustodyBundle(
        bundle_id=bundle_id,
        source="a",
        destination="b",
        key=BitString.random(bits, DeterministicRNG(bundle_id + 1)),
        created_at=created_at,
        expires_at=expires_at,
    )


class TestCustodyStore:
    def test_bank_and_occupancy(self):
        store = CustodyStore("r1", capacity_bits=1024)
        assert store.bank(make_bundle(0)) == []
        assert store.occupancy_bits == 256
        assert store.stats.occupancy_peak_bits == 256
        assert store.bundle_ids() == [0]

    def test_oversized_bundle_and_duplicate_are_contract_violations(self):
        store = CustodyStore("r1", capacity_bits=128)
        with pytest.raises(CustodyError, match="exceeds"):
            store.bank(make_bundle(0, bits=256))
        store = CustodyStore("r1", capacity_bits=1024)
        store.bank(make_bundle(0))
        with pytest.raises(CustodyError, match="already"):
            store.bank(make_bundle(0))

    def test_eviction_is_deterministic_and_counted(self):
        store = CustodyStore("r1", capacity_bits=512)
        store.bank(make_bundle(0, expires_at=50.0))
        store.bank(make_bundle(1, expires_at=10.0))
        evicted = store.bank(make_bundle(2, expires_at=99.0))
        # closest expiry goes first, regardless of banking order
        assert [b.bundle_id for b in evicted] == [1]
        assert store.stats.bundles_evicted == 1
        assert store.stats.bits_evicted == 256
        assert store.bundle_ids() == [0, 2]

    def test_take_expired_removes_in_id_order(self):
        store = CustodyStore("r1", capacity_bits=4096)
        store.bank(make_bundle(3, expires_at=10.0))
        store.bank(make_bundle(1, expires_at=5.0))
        store.bank(make_bundle(2, expires_at=50.0))
        expired = store.take_expired(10.0)
        assert [b.bundle_id for b in expired] == [1, 3]
        assert store.stats.bundles_expired == 2
        assert store.bundle_ids() == [2]


# --------------------------------------------------------------------- #
# The custody transport
# --------------------------------------------------------------------- #


class TestCustodyTransport:
    def test_live_mode_delivers_instantly_when_a_path_exists(self):
        transport = CustodyTransport(line_relays(), rng=DeterministicRNG(3))
        bundle = transport.submit("a", "b", 256, now=0.0)
        assert bundle.state == DELIVERED
        assert bundle.hops == 2
        assert bundle.pad_bits_consumed == 512
        assert transport.drained and transport.conservation_fault() is None

    def test_pinned_intermittent_soak_matches_always_connected_digest(self):
        """The tentpole acceptance pin: the only path is never fully live at
        any instant, yet every bundle arrives and the delivered material is
        digest-identical to the always-connected run."""
        schedule = staggered_schedule()
        # no instant of full live path:
        for t in [x / 2 for x in range(0, 80)]:
            assert not (
                schedule.is_open("a", "r1", t) and schedule.is_open("r1", "b", t)
            )

        intermittent = CustodyTransport(
            line_relays(), schedule=schedule, rng=DeterministicRNG(3),
            ttl_seconds=100.0,
        )
        bundles = [intermittent.submit("a", "b", 256, now=0.0) for _ in range(3)]
        assert all(b.live for b in bundles)  # parked at r1, nothing delivered yet
        intermittent.run_until(40.0)
        assert all(b.state == DELIVERED for b in bundles)
        assert [b.delivered_at for b in bundles] == [10.0, 10.0, 10.0]

        connected = CustodyTransport(line_relays(), rng=DeterministicRNG(3))
        for _ in range(3):
            connected.submit("a", "b", 256, now=0.0)

        assert intermittent.delivered_digest == connected.delivered_digest
        # zero custody leaks at drain:
        assert intermittent.drained and intermittent.conservation_fault() is None
        assert all(len(store) == 0 for store in intermittent.stores.values())
        assert intermittent.metrics.terminal_total == 3

    def test_a_hop_short_of_pad_keeps_the_copy_until_pad_is_banked(self):
        """A hop whose pad cannot cover the bundle moves nothing, spends
        nothing and counts a shortage; the copy moves on at a later tick,
        once the link has distilled pad again."""
        relays = line_relays()
        relays.cross_hop("r1", "b", bytes(relays.pairwise_key_available_bits("r1", "b") // 8))
        transport = CustodyTransport(relays, rng=DeterministicRNG(3), ttl_seconds=100.0)
        bundle = transport.submit("a", "b", 256, now=0.0)
        assert transport.locations(bundle) == ["r1"] and bundle.hops == 1
        shortages, spent = transport.metrics.pad_shortages, relays.pairwise_pads.bits_spent
        assert transport.move_copy(bundle, "r1", "b", now=1.0) is False
        assert transport.metrics.pad_shortages == shortages + 1
        assert relays.pairwise_pads.bits_spent == spent and transport.locations(bundle) == ["r1"]
        relays.run_links_for(60.0)
        transport.tick(2.0)
        assert bundle.state == DELIVERED and bundle.hops == 2
        assert transport.drained and transport.conservation_fault() is None

    def test_scheduled_and_epidemic_deliver_the_same_digest(self):
        results = {}
        for policy in ("scheduled", "epidemic"):
            transport = CustodyTransport(
                line_relays(), schedule=staggered_schedule(),
                rng=DeterministicRNG(3), policy=policy, ttl_seconds=100.0,
            )
            for _ in range(3):
                transport.submit("a", "b", 256, now=0.0)
            transport.run_until(40.0)
            assert transport.drained and transport.conservation_fault() is None
            assert transport.metrics.bundles_delivered == 3
            results[policy] = transport.delivered_digest
        assert results["scheduled"] == results["epidemic"]

    def test_epidemic_floods_with_duplicate_suppression(self):
        # diamond: two disjoint routes; epidemic uses both, delivers once.
        net = QKDNetwork()
        for name in ("a", "b"):
            net.add_endpoint(name)
        for name in ("r1", "r2"):
            net.add_relay(name)
        for pair in (("a", "r1"), ("a", "r2"), ("r1", "b"), ("r2", "b")):
            net.add_link(*pair, length_km=5.0)
        relays = TrustedRelayNetwork(net, rng=DeterministicRNG(7))
        relays.run_links_for(120.0)
        transport = CustodyTransport(
            relays, rng=DeterministicRNG(3), policy="epidemic", ttl_seconds=50.0
        )
        bundle = transport.submit("a", "b", 256, now=0.0)
        transport.run_until(3.0)
        assert bundle.state == DELIVERED
        assert transport.metrics.bundles_delivered == 1
        assert transport.metrics.duplicate_copies_purged > 0
        assert transport.drained and transport.conservation_fault() is None

    def test_ttl_expiry_is_terminal_and_never_invades_delivered_material(self):
        schedule = staggered_schedule()
        transport = CustodyTransport(
            line_relays(), schedule=schedule, rng=DeterministicRNG(3),
            ttl_seconds=5.0,  # dies before r1--b ever opens at t=10
        )
        doomed = transport.submit("a", "b", 256, now=0.0)
        transport.run_until(40.0)
        assert doomed.state == EXPIRED
        assert transport.metrics.bundles_expired == 1
        digest_after_expiry = transport.delivered_digest

        # a later bundle whose TTL spans the next contact still delivers,
        # and the expired one contributes nothing to the delivered digest
        survivor = transport.submit("a", "b", 256, now=28.0)
        transport.tick(30.0)
        assert survivor.state == DELIVERED
        assert transport.delivered_digest != digest_after_expiry
        assert transport.drained and transport.conservation_fault() is None

    def test_bounded_storage_evicts_deterministically_and_counts(self):
        schedule = ContactSchedule()
        schedule.set_windows("a", "r1", [ContactWindow(0.0, 10.0)])
        schedule.set_windows("r1", "b", [])  # nothing ever leaves r1

        def run():
            transport = CustodyTransport(
                line_relays(), schedule=schedule, rng=DeterministicRNG(3),
                ttl_seconds=500.0, capacity_bits=512,  # room for two bundles
            )
            bundles = [transport.submit("a", "b", 256, now=0.0) for _ in range(4)]
            return transport, bundles

        (first, first_bundles), (second, second_bundles) = run(), run()
        assert first.metrics.bundles_evicted == 2
        assert [b.state for b in first_bundles] == [
            EVICTED, EVICTED, "", "",
        ]
        # with the destination unreachable even in the future, the scheduled
        # policy parks bundles at the source — that is where eviction bites
        assert first.stores["a"].stats.bundles_evicted == 2
        assert second.metrics.bundles_evicted == first.metrics.bundles_evicted
        assert [b.state for b in second_bundles] == [
            b.state for b in first_bundles
        ]
        assert first.conservation_fault() is None

    def test_submit_rejects_statically_disconnected_destination(self):
        net = line_network()
        net.add_endpoint("island")
        relays = TrustedRelayNetwork(net, rng=DeterministicRNG(7))
        transport = CustodyTransport(relays, rng=DeterministicRNG(3))
        with pytest.raises(RoutingError, match="island"):
            transport.submit("a", "island", 256, now=0.0)
        with pytest.raises(RoutingError, match="unknown node"):
            transport.submit("a", "nowhere", 256, now=0.0)
        assert transport.metrics.bundles_submitted == 0

    def test_static_distance_follows_a_link_added_after_it_was_read(self):
        transport = CustodyTransport(line_relays(), rng=DeterministicRNG(3))
        assert transport.static_distance("a", "b") == 2
        transport.network.add_link("a", "b", 5.0)
        assert transport.static_distance("a", "b") == 1

    def test_submit_accepts_a_destination_linked_after_a_rejection(self):
        net = line_network()
        net.add_endpoint("island")
        relays = TrustedRelayNetwork(net, rng=DeterministicRNG(7))
        relays.run_links_for(120.0)
        transport = CustodyTransport(relays, rng=DeterministicRNG(3))
        with pytest.raises(RoutingError, match="even with every link up"):
            transport.submit("a", "island", 256, now=0.0)
        net.add_link("b", "island", 5.0)
        net.cut_link("b", "island")
        bundle = transport.submit("a", "island", 256, now=0.0)
        # Forwarded as far as the live links go: b, one hop short.
        assert transport.locations(bundle) == ["b"]
        assert transport.metrics.bundles_submitted == 1

    def test_bundle_keys_come_from_labeled_streams(self):
        transport = CustodyTransport(line_relays(), rng=DeterministicRNG(3))
        bundle = transport.submit("a", "b", 256, now=0.0)
        expected = BitString.random(
            256, DeterministicRNG(3).fork_labeled("dtn/bundle/0")
        )
        assert bundle.key.to_bytes() == expected.to_bytes()

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown forwarding policy"):
            build_policy("carrier-pigeon")


# --------------------------------------------------------------------- #
# The relay-layer custody fallback
# --------------------------------------------------------------------- #


class TestCustodyFallback:
    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_bad_ttl_is_refused(self, ttl):
        """A NaN TTL never expires a bundle (``now >= nan`` is never true) and
        poisons the eviction order."""
        with pytest.raises(ValueError, match="ttl_seconds"):
            line_relays().enable_custody(rng=DeterministicRNG(3), ttl_seconds=ttl)

    def test_reroute_banks_instead_of_failing(self):
        relays = line_relays()
        relays.enable_custody(rng=DeterministicRNG(3), ttl_seconds=100.0)
        relays.network.cut_link("r1", "b")
        result = relays.transport_with_reroute("a", "b", key_bits=256, now=0.0)
        assert not result.success
        assert result.custody_accepted
        assert result.custodian == "r1"  # the furthest reachable custodian
        assert result.bundle_id == 0
        assert "banked in custody" in result.failure_reason
        assert relays.custody.stores["r1"].holds(0)

    @pytest.mark.parametrize("policy", ["scheduled", "epidemic"])
    def test_a_zone_confined_bundle_never_leaves_its_zone(self, policy):
        """Zone confinement holds in custody too: a key whose transport was
        confined to a zone parks inside it, spending no pad outside, even
        while a live path leads out of the zone and back."""
        net = line_network()
        net.add_relay("x")  # outside the zone: a detour a -- x -- b
        net.add_link("a", "x", 5.0)
        net.add_link("x", "b", 5.0)
        relays = TrustedRelayNetwork(net, rng=DeterministicRNG(7))
        relays.run_links_for(120.0)
        custody = relays.enable_custody(
            rng=DeterministicRNG(3), ttl_seconds=100.0, policy=policy
        )
        zone = {"a", "r1", "b"}
        detour = [("a", "x"), ("x", "b")]
        pad_outside = [relays.pairwise_key_available_bits(*hop) for hop in detour]
        relays.network.cut_link("r1", "b")
        result = relays.transport_with_reroute("a", "b", key_bits=256, now=0.0, within=zone)
        assert result.custody_accepted and not result.success
        custody.tick(1.0)
        (bundle,) = custody.bundles.values()
        assert bundle.seen <= zone
        relays.network.restore_link("r1", "b")
        custody.tick(2.0)
        assert bundle.state == DELIVERED and bundle.seen <= zone
        assert [relays.pairwise_key_available_bits(*hop) for hop in detour] == pad_outside

    def test_banked_bundle_delivers_after_the_link_heals(self):
        relays = line_relays()
        custody = relays.enable_custody(rng=DeterministicRNG(3), ttl_seconds=100.0)
        delivered = []
        custody.bind(delivered.append)
        relays.network.cut_link("r1", "b")
        relays.transport_with_reroute("a", "b", key_bits=256, now=0.0)
        relays.network.restore_link("r1", "b")
        custody.tick(5.0)
        assert len(delivered) == 1
        assert delivered[0].state == DELIVERED
        assert custody.drained and custody.conservation_fault() is None

    def test_without_custody_reroute_fails_as_before(self):
        relays = line_relays()
        relays.network.cut_link("r1", "b")
        result = relays.transport_with_reroute("a", "b", key_bits=256)
        assert not result.success
        assert not result.custody_accepted
        assert result.custodian is None
