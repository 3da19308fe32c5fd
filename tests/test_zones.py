"""Metro-scale zoning: plans, hierarchical replenishment, zoned delivery.

Covers the PR-10 tentpole: :class:`repro.kms.zones.ZonePlan` construction
and validation, the deterministic metro topology builder, the
:class:`~repro.kms.zones.ZonedReplenisher`'s per-zone link ownership, and
the zoned :class:`~repro.kms.service.KeyManagementService` delivery path —
with the metro soak digest pinned and asserted invariant to worker count.

The flat path's own pin (``tests/test_kms.py::PINNED_SOAK_DIGEST``) is the
other half of the contract: with ``KmsConfig.zones`` left off, nothing in
this PR may change the PR-5 digest.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.api import QKDSystem
from repro.eve import InterceptResendAttack
from repro.kms import (
    AggregateProfile,
    KeyManagementService,
    KmsConfig,
    ReplenishmentConfig,
    ZonePlan,
    ZonedReplenisher,
    build_metro_mesh,
)
from repro.network.topology import QKDNetwork
from repro.util.rng import DeterministicRNG


def tiny_network():
    net = QKDNetwork(DeterministicRNG(1))
    for name in ("r0", "r1"):
        net.add_relay(name)
    for name in ("a", "b", "c", "d"):
        net.add_endpoint(name)
    net.add_link("a", "r0", 5.0)
    net.add_link("b", "r0", 5.0)
    net.add_link("c", "r1", 5.0)
    net.add_link("d", "r1", 5.0)
    net.add_link("r0", "r1", 25.0)
    return net


def tiny_plan():
    """``tiny_network`` split at its one trunk, each relay its zone's gateway."""
    return ZonePlan(
        zones={"z00": ("a", "b", "r0"), "z01": ("c", "d", "r1")},
        gateways={"z00": "r0", "z01": "r1"},
    )


class TestZonePlan:
    def test_duplicate_membership_rejected(self):
        with pytest.raises(ValueError, match="assigned to both"):
            ZonePlan(
                zones={"z0": ("a", "b"), "z1": ("b", "c")},
                gateways={"z0": "a", "z1": "c"},
            )

    def test_gateway_must_be_a_member(self):
        with pytest.raises(ValueError, match="not a member"):
            ZonePlan(zones={"z0": ("a", "b")}, gateways={"z0": "c"})

    def test_every_zone_needs_a_gateway(self):
        with pytest.raises(ValueError, match="without a gateway"):
            ZonePlan(zones={"z0": ("a",), "z1": ("b",)}, gateways={"z0": "a"})

    def test_zone_of_unknown_node_names_the_known_set(self):
        plan = ZonePlan(zones={"z0": ("a",)}, gateways={"z0": "a"})
        with pytest.raises(KeyError, match=r"nobody.*1 zone\(s\): z0"):
            plan.zone_of("nobody")

    def test_validate_rejects_uncovered_and_phantom_nodes(self):
        net = tiny_network()
        partial = ZonePlan(
            zones={"z0": ("a", "b", "r0")}, gateways={"z0": "r0"}
        )
        with pytest.raises(ValueError, match="in no zone"):
            partial.validate(net)
        phantom = tiny_plan()
        phantom = ZonePlan(
            zones={**phantom.zones, "z99": ("ghost",)},
            gateways={**phantom.gateways, "z99": "ghost"},
        )
        with pytest.raises(ValueError, match="not in the mesh"):
            phantom.validate(net)

    def test_validate_rejects_internally_disconnected_zone(self):
        net = tiny_network()
        # a and c only meet through r0/r1, which sit in the other zone.
        plan = ZonePlan(
            zones={"z0": ("a", "c"), "z1": ("b", "d", "r0", "r1")},
            gateways={"z0": "a", "z1": "r0"},
        )
        with pytest.raises(ValueError, match="disconnected within itself"):
            plan.validate(net)

    def test_zone_pairs_and_link_zone(self):
        plan = tiny_plan()
        plan.validate(tiny_network())
        assert plan.zone_pairs() == [("z00", "z01")]
        assert plan.link_zone("a", "r0") == "z00"
        assert plan.link_zone("r0", "r1") is None


class TestMetroMesh:
    def test_shape_and_plan_agree(self):
        relays, plan = build_metro_mesh(
            n_zones=3, endpoints_per_zone=2, relays_per_zone=2
        )
        assert plan.zone_ids == ["z00", "z01", "z02"]
        plan.validate(relays.network)  # covers, connected per zone
        assert plan.gateways["z00"] == "z00-relay-0"
        # Trunk ring: each gateway links to the next zone's gateway.
        assert relays.network.graph.has_edge("z00-relay-0", "z01-relay-0")
        assert relays.network.graph.has_edge("z02-relay-0", "z00-relay-0")

    def test_builder_is_deterministic(self):
        a, plan_a = build_metro_mesh(rng=DeterministicRNG(6))
        b, plan_b = build_metro_mesh(rng=DeterministicRNG(6))
        assert plan_a.zones == plan_b.zones
        assert sorted(a.network.graph.nodes) == sorted(b.network.graph.nodes)

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError, match="must be positive"):
            build_metro_mesh(n_zones=0)


class TestZonedReplenisher:
    def build(self):
        relays, plan = build_metro_mesh(
            n_zones=2, endpoints_per_zone=2, relays_per_zone=2
        )
        return (
            ZonedReplenisher(relays, DeterministicRNG(3), ReplenishmentConfig(), plan),
            relays,
            plan,
        )

    def test_every_link_has_exactly_one_owner(self):
        replenisher, relays, plan = self.build()
        owned = []
        for child in replenisher._children():
            owned.extend(child._edges)
        assert sorted(owned) == sorted(
            tuple(sorted((e.node_a, e.node_b))) for e in relays.network.links()
        )
        # Trunk links belong to the trunk scheduler, not a zone.
        trunk_key = tuple(sorted(("z00-relay-0", "z01-relay-0")))
        assert trunk_key in replenisher.trunk_scheduler._edges
        for zid, child in replenisher.zone_schedulers.items():
            assert trunk_key not in child._edges

    def test_pressure_routes_to_the_owning_scheduler(self):
        replenisher, _, _ = self.build()
        replenisher.note_pressure("z00-relay-0", "z00-relay-1")
        key = tuple(sorted(("z00-relay-0", "z00-relay-1")))
        assert replenisher.zone_schedulers["z00"].pressure[key] == 1.0
        replenisher.note_pressure("z00-relay-0", "z01-relay-0")
        trunk_key = tuple(sorted(("z00-relay-0", "z01-relay-0")))
        assert replenisher.trunk_scheduler.pressure[trunk_key] == 1.0

    def test_unknown_link_raises_keyerror_naming_known_set(self):
        replenisher, _, _ = self.build()
        # A node outside every zone fails at zone lookup, naming the zones.
        with pytest.raises(KeyError, match=r"in no zone.*z00, z01"):
            replenisher.note_pressure("z00-relay-0", "z00-endpoint-0x")
        # Two known same-zone nodes without a link between them fail in the
        # owning zone's scheduler, naming its managed set.
        with pytest.raises(KeyError, match="unknown link"):
            replenisher.note_pressure("z00-endpoint-0", "z00-endpoint-1")

    def test_epoch_merges_children_in_zone_order(self):
        replenisher, _, _ = self.build()
        report = replenisher.run_epoch()
        assert report.epoch_index == 0
        assert replenisher.epoch_index == 1
        # Zone z00's links dispatch before z01's, trunks last.
        owners = []
        for key in report.dispatched:
            owner = replenisher.plan.link_zone(*key)
            owners.append("~trunk" if owner is None else owner)
        assert owners == sorted(owners)
        assert replenisher.selection_seconds > 0.0

    def test_attack_end_and_restore_bring_a_zone_link_back(self):
        """The zoned service runs tests/test_kms.py's attack -> detection ->
        attack ends and the link is restored schedule on a link inside zone
        z00: the link banks pad again.  Without the attack's end, the restore
        alone is re-detected."""
        link = ("z00-relay-0", "z00-relay-1")

        def run(end_attack):
            metro = QKDSystem(seed=7).metro(
                n_zones=2, endpoints_per_zone=2, relays_per_zone=2, prefill_seconds=200.0
            )
            service = metro.kms(
                KmsConfig(replenishment=ReplenishmentConfig(epoch_seconds=120.0, workers=1))
            )
            service.schedule_attack(600.0, *link, InterceptResendAttack(1.0))
            if end_attack:
                service.schedule_attack_end(1800.0, *link)
            service.schedule_link_restore(1800.0, *link)
            report = service.serve(hours=1.0)
            epochs = service.replenisher.reports
            detected = [e.epoch_index for e in epochs if link in e.newly_eavesdropped]
            banked = [e.epoch_index for e in epochs if e.banked_bits.get(link, 0) > 0]
            return report, detected, banked

        restored = 15  # the epoch at t=1800 s
        report, detected, banked = run(end_attack=True)
        assert report.zones == 2
        assert len(detected) == 1 and 5 <= detected[0] < restored
        assert link not in report.eavesdropped_links
        assert not [e for e in banked if detected[0] <= e < restored]
        assert [e for e in banked if e >= restored]
        assert report.completion_accounted

        report, detected, banked = run(end_attack=False)
        assert len(detected) == 2 and detected[1] >= restored
        assert link in report.eavesdropped_links
        assert not [e for e in banked if e >= detected[0]]


#: The zoned soak's determinism pin: sha256 of all delivered end-to-end key
#: material for the scenario below (3 zones, aggregate Poisson demand, a
#: trunk cut at t=20min restored at t=40min).  Identical for every worker
#: count; changing any zoned-dispatch or trunk-draw ordering breaks it.
PINNED_METRO_DIGEST = (
    "ff669de8110fe6561504c4c26082c3bd90380f3fde572c608461cd277db4018d"
)


def metro_service(workers: int, gateway_outage: bool = False):
    """``gateway_outage`` swaps the single trunk cut for the disrupted-trunk
    case: custody on, and zone 0's gateway cut off from both other zones
    for the same twenty minutes."""
    relays, plan = build_metro_mesh(
        n_zones=3,
        endpoints_per_zone=2,
        relays_per_zone=2,
        rng=DeterministicRNG(11),
        prefill_seconds=400.0,
        workers=workers,
    )
    config = (
        KmsConfig(
            replenishment=ReplenishmentConfig(
                epoch_seconds=120.0, workers=workers
            ),
            store_high_water_bits=16_384,
            store_low_water_bits=4_096,
            trunk_capacity_bits=1 << 20,
            trunk_low_water_bits=16_384,
            trunk_high_water_bits=65_536,
        )
        .with_zones(plan)
        .with_workload(
            AggregateProfile.poisson(tunnels=50, mean_interval_seconds=6_000.0)
        )
    )
    if gateway_outage:
        config = replace(config, custody=True, custody_ttl_seconds=3_000.0)
    service = KeyManagementService(relays, config, rng=DeterministicRNG(5))
    for other in ("z01-relay-0", "z02-relay-0") if gateway_outage else ("z01-relay-0",):
        service.schedule_link_cut(1_200.0, "z00-relay-0", other)
        service.schedule_link_restore(2_400.0, "z00-relay-0", other)
    return service


def run_metro_soak(workers: int, hours: float = 1.0):
    return metro_service(workers).serve(hours=hours)


#: The gateway-outage soak's pins: delivered digest, custody digest, and
#: (parked, failed, custody submitted/delivered/expired/evicted/live).
PINNED_GATEWAY_OUTAGE = (
    "b06ffb7eb0d244639763d141ef7c855a096ec36c5adf057fb793f90520e38a86",
    "9b0e68e7061881d8c5b595a04bef6bd83dbaf2c4986cc9d1844ae27811c8bc2e",
    (95, 0, 95, 95, 0, 0, 0),
)


class TestZonedService:
    @pytest.mark.parametrize(
        "zones", [2, {"z00": ("a", "b")}], ids=["zone-count", "member-dict"]
    )
    def test_zones_that_are_not_a_plan_are_refused(self, zones):
        """A zone count or a bare dict fails where it enters, naming the
        value, not in the service's constructor."""
        with pytest.raises(TypeError, match="zones must be a ZonePlan"):
            KmsConfig(zones=zones)
        with pytest.raises(TypeError, match="zones must be a ZonePlan"):
            KmsConfig().with_zones(zones)

    def test_metro_soak_digest_is_pinned_and_worker_invariant(self):
        single = run_metro_soak(workers=1)
        assert single.delivered_digest == PINNED_METRO_DIGEST
        quad = run_metro_soak(workers=4)
        assert quad.delivered_digest == PINNED_METRO_DIGEST
        assert single.completion_accounted and quad.completion_accounted
        assert single.delivered_keys == quad.delivered_keys
        assert single.trunk_keys_delivered == quad.trunk_keys_delivered
        # What the digest does not cover: failure handling and trunk refill.
        for report in (single, quad):
            assert (report.reroutes, report.transports_failed) == (0, 5)
            assert report.trunk_keys_delivered == 362
            assert sum(p["starved_epochs"] for p in report.per_pair.values()) == 0

    def test_zoned_report_accounts_trunks(self):
        report = run_metro_soak(workers=1, hours=0.25)
        assert report.zones == 3
        assert report.trunk_keys_delivered > 0
        assert report.trunk_key_bits == 2_048 * report.trunk_keys_delivered
        assert sorted(report.per_trunk) == ["z00--z01", "z00--z02", "z01--z02"]
        for stats in report.per_trunk.values():
            assert stats["bits_deposited"] > 0

    def test_custody_at_the_gateway_parks_trunk_refills(self):
        """Custody composes with zoning: with a gateway cut off, trunk
        refills park at the gateway and arrive when it is restored — where
        the same outage without custody fails transports (25 of them)."""
        service = metro_service(workers=1, gateway_outage=True)
        # Log every deposit, consumer and trunk: where each custody bundle
        # landed, and what exactly the delivered digest covers.
        deposit_log = []
        for store in [*service.stores.values(), *service.trunk_stores.values()]:
            def deposit(key, now=0.0, _store=store, _deposit=store.deposit):
                deposit_log.append((_store, key.to_bytes()))
                return _deposit(key, now=now)

            store.deposit = deposit
        # The custody layer forgets a bundle once it ends: keep each one.
        submitted = []
        submit = service.custody.submit

        def recording_submit(*args, **kwargs):
            submitted.append(submit(*args, **kwargs))
            return submitted[-1]

        service.custody.submit = recording_submit
        report = service.serve(hours=1.0)
        assert report.transports_parked > 0
        assert report.transports_failed == 0
        assert report.custody_delivered > 0
        assert report.completion_accounted and report.custody_accounted
        assert (
            report.delivered_digest,
            report.custody_delivered_digest,
            (
                report.transports_parked,
                report.transports_failed,
                report.custody_submitted,
                report.custody_delivered,
                report.custody_expired,
                report.custody_evicted,
                report.custody_live,
            ),
        ) == PINNED_GATEWAY_OUTAGE

        # Only trunk refills parked, and every bundle was banked in its trunk
        # store.  Arriving is not a delivery: the delivered digest and count
        # are exactly the consumer-store deposits, in order (a trunk key gets
        # there when a cross-zone pair draws it, like any other trunk key).
        trunk_of = {store.pair: store for store in service.trunk_stores.values()}
        deposits = set(deposit_log)
        for bundle in submitted:
            trunk = trunk_of[bundle.source, bundle.destination]
            assert (trunk, bundle.key.to_bytes()) in deposits
        replay = hashlib.sha256()
        consumer_deposits = 0
        for store, key in deposit_log:
            if store.pair in trunk_of:
                continue
            consumer_deposits += 1
            replay.update(f"{store.pair[0]}--{store.pair[1]}|{8 * len(key)}|".encode())
            replay.update(key)
        assert replay.hexdigest() == report.delivered_digest
        assert report.delivered_keys == consumer_deposits
        assert report.trunk_keys_delivered == len(deposit_log) - consumer_deposits

        pair_of_workers = metro_service(workers=2, gateway_outage=True).serve(hours=1.0)
        assert pair_of_workers.delivered_digest == report.delivered_digest
        assert pair_of_workers.custody_delivered_digest == report.custody_delivered_digest

    @pytest.mark.parametrize("custody_first", [True, False])
    def test_custody_and_zones_compose_in_either_order(self, custody_first):
        relays, plan = build_metro_mesh(
            n_zones=2, endpoints_per_zone=2, relays_per_zone=2,
            rng=DeterministicRNG(9), prefill_seconds=200.0,
        )
        base = KmsConfig(replenishment=ReplenishmentConfig(epoch_seconds=300.0, workers=1))
        config = (
            replace(base, custody=True).with_zones(plan)
            if custody_first
            else replace(base.with_zones(plan), custody=True)
        )
        service = KeyManagementService(relays, config, rng=DeterministicRNG(2))
        report = service.serve(hours=0.1)
        assert report.zones == 2 and service.custody is not None
        assert report.delivered_keys > 0 and report.trunk_keys_delivered > 0
        assert report.completion_accounted and report.custody_accounted

    def test_intra_zone_delivery_stays_in_zone(self):
        relays, plan = build_metro_mesh(
            n_zones=2, endpoints_per_zone=2, relays_per_zone=2,
            rng=DeterministicRNG(4), prefill_seconds=300.0,
        )
        pair = ("z00-endpoint-0", "z00-endpoint-1")
        service = KeyManagementService(
            relays,
            KmsConfig(
                gateway_pairs=(pair,),
                replenishment=ReplenishmentConfig(epoch_seconds=600.0, workers=1),
                store_high_water_bits=8_192,
            ).with_zones(plan),
            rng=DeterministicRNG(8),
        )
        service.serve(hours=0.25)
        members = set(plan.members("z00"))
        path = service._feeds[pair].last_path
        assert path, "intra-zone pair was never delivered to"
        assert set(path) <= members

    def test_metro_facade_adopts_the_plan(self):
        metro = QKDSystem(seed=12).metro(
            n_zones=2, endpoints_per_zone=2, relays_per_zone=2,
            prefill_seconds=0.0,
        )
        service = metro.kms()
        assert service.zone_plan is not None
        assert service.zone_plan.zones == metro.zone_plan.zones
        # An explicit plan on the config wins over the mesh's own.
        merged = ZonePlan(
            zones={"z00": tuple(sorted(metro.relays.network.graph.nodes))},
            gateways={"z00": metro.zone_plan.gateways["z00"]},
        )
        override = metro.kms(KmsConfig().with_zones(merged))
        assert override.zone_plan is merged
        assert metro.endpoints() == tuple(
            sorted(metro.relays.network.endpoints())
        )

    def test_large_pair_index_addressing_is_parseable(self):
        """Pairs 0-255 keep ``10.<index>``; from 256 on, CGNAT space."""
        import ipaddress

        for index in (3, 255, 256, 300):
            alice, bob, src, dst = KeyManagementService._pair_addressing(index)
            assert alice.startswith("10." if index < 256 else "100."), index
            if index < 256:
                assert (alice, src) == (f"10.{index}.0.1", f"10.{index}.1.0/24")
            assert ipaddress.ip_address(alice) != ipaddress.ip_address(bob)
            assert ipaddress.ip_network(src) != ipaddress.ip_network(dst)
