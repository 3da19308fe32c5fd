"""Zoned key management: shard a metro mesh so scheduling stays per-zone.

The paper sketches a metro-area network; PR 5's flat
:class:`~repro.kms.service.KeyManagementService` walks every link and every
store per epoch, which stops scaling long before "metro".  This module
shards the mesh into **zones**:

* every node belongs to exactly one zone (:class:`ZonePlan`), and each
  zone names one **gateway** node — its border crossing;
* replenishment runs hierarchically (:class:`ZonedReplenisher`): each zone
  has its own :class:`~repro.kms.scheduler.ReplenishmentScheduler` managing
  only the links internal to the zone, plus one **trunk** scheduler for the
  zone-crossing links, so per-epoch scheduling cost is proportional to the
  zone, not the mesh;
* intra-zone consumer pairs are served by live transport confined to the
  zone (``within=`` routing); inter-zone pairs draw end-to-end key from a
  per-zone-pair **trunk store** refilled gateway-to-gateway, then spend
  only their two zones' segment pads carrying it the last miles (see
  :meth:`~repro.kms.service.KeyManagementService._draw_from_trunk`, the
  supply :meth:`~repro.kms.service.KeyManagementService._deliver` fills
  such a store from; trunk refill is an ordinary transport-fed fill).

Determinism contract: zone membership, gateway election and dispatch order
are pure functions of ``(seed, config)``.  Zones run in sorted zone-id
order, the trunk scheduler last; each zone scheduler derives its epoch
streams from its own labeled fork (``zone/<id>``, ``zone/trunk``), so a
zone's key material never depends on another zone's epoch, and the whole
mesh's soak digest is invariant to worker count exactly as in the flat
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.kms.scheduler import EpochReport, ReplenishmentConfig, ReplenishmentScheduler
from repro.kms.store import KeyStore, KeyStoreExhaustedError
from repro.network.graph import connected_components
from repro.network.relay import KeyTransportResult, TrustedRelayNetwork
from repro.network.routing import RoutingError
from repro.network.topology import NodeKind, QKDNetwork
from repro.util.rng import DeterministicRNG

ZoneId = str
Pair = Tuple[str, str]

#: Fiber length of every link inside a metro zone.
ZONE_LINK_KM = 5.0
#: Fiber length of every gateway-to-gateway trunk link.
TRUNK_KM = 25.0


@dataclass
class ZonePlan:
    """Which zone each node belongs to, and each zone's gateway node."""

    #: Zone id -> sorted member node names (every mesh node exactly once).
    zones: Dict[ZoneId, Tuple[str, ...]]
    #: Zone id -> the member node that anchors inter-zone trunks.
    gateways: Dict[ZoneId, str]

    def __post_init__(self) -> None:
        self.zones = {zid: tuple(sorted(members)) for zid, members in self.zones.items()}
        self._zone_of: Dict[str, ZoneId] = {}
        for zid, members in self.zones.items():
            for name in members:
                if name in self._zone_of:
                    raise ValueError(
                        f"node {name!r} assigned to both zone "
                        f"{self._zone_of[name]!r} and zone {zid!r}"
                    )
                self._zone_of[name] = zid
        for zid, gateway in self.gateways.items():
            if zid not in self.zones:
                raise ValueError(f"gateway for unknown zone {zid!r}")
            if gateway not in self.zones[zid]:
                raise ValueError(
                    f"gateway {gateway!r} is not a member of zone {zid!r}"
                )
        missing = set(self.zones) - set(self.gateways)
        if missing:
            raise ValueError(f"zones without a gateway: {sorted(missing)}")

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def zone_ids(self) -> List[ZoneId]:
        return sorted(self.zones)

    def zone_of(self, node: str) -> ZoneId:
        try:
            return self._zone_of[node]
        except KeyError:
            known = ", ".join(sorted(self.zones))
            raise KeyError(
                f"node {node!r} is in no zone; {len(self.zones)} zone(s): {known}"
            ) from None

    def members(self, zone_id: ZoneId) -> Tuple[str, ...]:
        return self.zones[zone_id]

    def zone_pairs(self) -> List[Tuple[ZoneId, ZoneId]]:
        """Every unordered zone pair, sorted — one trunk store each."""
        ids = self.zone_ids
        return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]

    def same_zone(self, pair: Pair) -> bool:
        return self.zone_of(pair[0]) == self.zone_of(pair[1])

    def link_zone(self, node_a: str, node_b: str) -> Optional[ZoneId]:
        """The zone owning an intra-zone link, or ``None`` for a trunk."""
        za, zb = self.zone_of(node_a), self.zone_of(node_b)
        return za if za == zb else None

    # ------------------------------------------------------------------ #
    # Construction / validation
    # ------------------------------------------------------------------ #

    def validate(self, network: QKDNetwork) -> None:
        """Check the plan covers this mesh and every zone hangs together.

        Raises ``ValueError`` naming the offending zone or node: a node the
        plan does not cover, a member the mesh does not have, or a zone
        whose induced subgraph is disconnected (its gateway could never
        reach every member without leaving the zone).
        """
        mesh_nodes = set(network.graph.nodes)
        planned = set(self._zone_of)
        unplanned = mesh_nodes - planned
        if unplanned:
            raise ValueError(f"mesh nodes in no zone: {sorted(unplanned)}")
        phantom = planned - mesh_nodes
        if phantom:
            raise ValueError(f"zoned nodes not in the mesh: {sorted(phantom)}")
        for zid in self.zone_ids:
            members = set(self.zones[zid])
            components = connected_components(network.graph.subgraph(members))
            if len(components) > 1:
                raise ValueError(
                    f"zone {zid!r} is disconnected within itself: "
                    f"components {sorted(map(sorted, components))}"
                )

    @classmethod
    def partition(cls, network: QKDNetwork, n_zones: int) -> "ZonePlan":
        """A deterministic ``n_zones``-way partition of an existing mesh.

        Seeds one zone per evenly spaced relay (sorted relay order) and
        grows them by multi-source BFS with sorted frontier/neighbour
        order, so the assignment is a pure function of the topology.  Each
        zone's gateway is its member with the most links into other zones
        (ties to the lexicographically smallest name).
        """
        if n_zones < 1:
            raise ValueError("need at least one zone")
        nodes = sorted(network.graph.nodes)
        if n_zones > len(nodes):
            raise ValueError(
                f"cannot split {len(nodes)} node(s) into {n_zones} zones"
            )
        relays = sorted(
            n.name for n in network.nodes() if n.kind is NodeKind.TRUSTED_RELAY
        )
        seeds_from = relays if len(relays) >= n_zones else nodes
        seeds = [seeds_from[i * len(seeds_from) // n_zones] for i in range(n_zones)]
        zone_ids = [f"z{i:02d}" for i in range(n_zones)]
        assignment: Dict[str, ZoneId] = {}
        frontier: List[Tuple[str, ZoneId]] = []
        for zid, seed in zip(zone_ids, seeds):
            assignment[seed] = zid
            frontier.append((seed, zid))
        while frontier:
            node, zid = frontier.pop(0)
            for neighbour in sorted(network.graph.neighbors(node)):
                if neighbour not in assignment:
                    assignment[neighbour] = zid
                    frontier.append((neighbour, zid))
        unreached = [n for n in nodes if n not in assignment]
        if unreached:
            raise ValueError(
                f"mesh is disconnected; unreachable from every seed: {unreached}"
            )
        zones = {
            zid: tuple(sorted(n for n, z in assignment.items() if z == zid))
            for zid in zone_ids
        }
        gateways: Dict[ZoneId, str] = {}
        for zid, members in zones.items():
            def cross_degree(name: str) -> int:
                return sum(
                    1
                    for neighbour in network.graph.neighbors(name)
                    if assignment[neighbour] != zid
                )

            gateways[zid] = min(members, key=lambda n: (-cross_degree(n), n))
        return cls(zones=zones, gateways=gateways)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{zid}:{len(m)}" for zid, m in sorted(self.zones.items()))
        return f"ZonePlan({len(self.zones)} zones — {sizes})"


def build_metro_mesh(
    n_zones: int = 4,
    endpoints_per_zone: int = 4,
    relays_per_zone: int = 3,
    rng: Optional[DeterministicRNG] = None,
    prefill_seconds: float = 0.0,
    workers: Optional[int] = None,
) -> Tuple[TrustedRelayNetwork, ZonePlan]:
    """A metro-area mesh of zones plus the plan describing it.

    Each zone is a relay ring with endpoints hanging off it (the familiar
    :meth:`~repro.network.topology.QKDNetwork.relay_mesh` shape, one per
    neighbourhood); zone gateways (``z<k>-relay-0``) join in a trunk ring,
    with one cross-chord for redundancy once four or more zones exist.
    Node names are ``z<k>-relay-<i>`` / ``z<k>-endpoint-<j>``.
    """
    if n_zones < 1 or endpoints_per_zone < 1 or relays_per_zone < 1:
        raise ValueError("zones, endpoints and relays per zone must be positive")
    rng = rng or DeterministicRNG(0)
    net = QKDNetwork(rng.fork("topology"))
    zone_ids = [f"z{z:02d}" for z in range(n_zones)]
    zones: Dict[ZoneId, Tuple[str, ...]] = {}
    gateways: Dict[ZoneId, str] = {}
    for z, zid in enumerate(zone_ids):
        relays = [f"{zid}-relay-{i}" for i in range(relays_per_zone)]
        for name in relays:
            net.add_relay(name)
        if relays_per_zone == 2:
            net.add_link(relays[0], relays[1], ZONE_LINK_KM)
        elif relays_per_zone > 2:
            for i, name in enumerate(relays):
                net.add_link(name, relays[(i + 1) % relays_per_zone], ZONE_LINK_KM)
        endpoints = [f"{zid}-endpoint-{j}" for j in range(endpoints_per_zone)]
        for j, name in enumerate(endpoints):
            net.add_endpoint(name)
            net.add_link(name, relays[j % relays_per_zone], ZONE_LINK_KM)
        zones[zid] = tuple(sorted(relays + endpoints))
        gateways[zid] = relays[0]
    if n_zones == 2:
        net.add_link(gateways[zone_ids[0]], gateways[zone_ids[1]], TRUNK_KM)
    elif n_zones > 2:
        for z in range(n_zones):
            net.add_link(
                gateways[zone_ids[z]], gateways[zone_ids[(z + 1) % n_zones]], TRUNK_KM
            )
        if n_zones >= 4:
            a, b = gateways[zone_ids[0]], gateways[zone_ids[n_zones // 2]]
            if not net.graph.has_edge(a, b):
                net.add_link(a, b, TRUNK_KM)
    plan = ZonePlan(zones=zones, gateways=gateways)
    relays_net = TrustedRelayNetwork(net, rng=rng.fork("transport"))
    # Zero means no prefill and takes no refill epoch; any other value,
    # NaN and negatives included, goes to run_links_for, which checks it.
    if prefill_seconds != 0:
        relays_net.run_links_for(prefill_seconds, workers=workers)
    return relays_net, plan


class ZonedReplenisher:
    """Hierarchical replenishment: one scheduler per zone, one for trunks.

    Duck-types the slice of :class:`ReplenishmentScheduler` the service
    drives — :meth:`run_epoch`, :meth:`note_pressure`,
    :meth:`attach_attack`/:meth:`detach_attack` — and routes each call to
    the scheduler owning the link (its zone's, or the trunk scheduler for
    zone-crossing links).  Epochs run zones in sorted zone-id order, the
    trunk scheduler last, and merge the children's reports into one
    :class:`~repro.kms.scheduler.EpochReport`.  It also supplies the
    service's cross-zone stores (:meth:`draw_from_trunk`).
    """

    def __init__(
        self,
        relays: TrustedRelayNetwork,
        rng: DeterministicRNG,
        config: ReplenishmentConfig,
        plan: ZonePlan,
    ):
        self.relays = relays
        self.plan = plan
        self.config = config
        self.epoch_index = 0
        self.reports: List[EpochReport] = []
        zone_links: Dict[ZoneId, List[Pair]] = {zid: [] for zid in plan.zone_ids}
        trunk_links: List[Pair] = []
        for edge in relays.network.links():
            key = tuple(sorted((edge.node_a, edge.node_b)))
            owner = plan.link_zone(edge.node_a, edge.node_b)
            if owner is None:
                trunk_links.append(key)
            else:
                zone_links[owner].append(key)
        self.zone_schedulers: Dict[ZoneId, ReplenishmentScheduler] = {
            zid: ReplenishmentScheduler(
                relays,
                rng.fork_labeled(f"zone/{zid}"),
                self.config,
                links=zone_links[zid],
            )
            for zid in plan.zone_ids
        }
        self.trunk_scheduler: Optional[ReplenishmentScheduler] = (
            ReplenishmentScheduler(
                relays,
                rng.fork_labeled("zone/trunk"),
                self.config,
                links=trunk_links,
            )
            if trunk_links
            else None
        )

    # ------------------------------------------------------------------ #

    def _children(self) -> List[ReplenishmentScheduler]:
        schedulers = [self.zone_schedulers[zid] for zid in self.plan.zone_ids]
        if self.trunk_scheduler is not None:
            schedulers.append(self.trunk_scheduler)
        return schedulers

    def _owner(self, node_a: str, node_b: str) -> ReplenishmentScheduler:
        zone = self.plan.link_zone(node_a, node_b)
        if zone is None:
            if self.trunk_scheduler is None:
                raise KeyError(
                    f"no trunk scheduler for cross-zone link {node_a!r}--{node_b!r}"
                )
            return self.trunk_scheduler
        return self.zone_schedulers[zone]

    @property
    def selection_seconds(self) -> float:
        """Total link-selection overhead across every child scheduler."""
        return sum(child.selection_seconds for child in self._children())

    def note_pressure(self, node_a: str, node_b: str) -> None:
        self._owner(node_a, node_b).note_pressure(node_a, node_b)

    def attach_attack(self, node_a: str, node_b: str, attack: object) -> None:
        self._owner(node_a, node_b).attach_attack(node_a, node_b, attack)

    def detach_attack(self, node_a: str, node_b: str) -> None:
        self._owner(node_a, node_b).detach_attack(node_a, node_b)

    def run_epoch(self) -> EpochReport:
        """One epoch across every zone, merged in zone order."""
        merged = EpochReport(epoch_index=self.epoch_index)
        for child in self._children():
            report = child.run_epoch()
            merged.dispatched.extend(report.dispatched)
            merged.skipped_unusable.extend(report.skipped_unusable)
            merged.banked_bits.update(report.banked_bits)
            merged.newly_eavesdropped.extend(report.newly_eavesdropped)
        self.epoch_index += 1
        self.reports.append(merged)
        return merged

    # ---- cross-zone supply --------------------------------------------- #

    def _zone_legs(self, pair: Pair) -> List[List[str]]:
        """The two last-mile paths an inter-zone delivery must pad-spend:
        source to its zone gateway, destination's gateway to destination —
        each confined to its own zone (a gateway's own leg is just itself).
        Raises RoutingError when a leg has no usable in-zone path."""
        plan = self.plan
        find_path = self.relays.selector.find_path
        zone_a, zone_b = plan.zone_of(pair[0]), plan.zone_of(pair[1])
        return [
            find_path(pair[0], plan.gateways[zone_a], within=plan.members(zone_a)),
            find_path(plan.gateways[zone_b], pair[1], within=plan.members(zone_b)),
        ]

    def draw_from_trunk(
        self, trunk: KeyStore, pair: Pair, bits: int, now: float
    ) -> KeyTransportResult:
        """The next ``bits`` of key for one cross-zone store, from its zone
        pair's trunk.

        End-to-end key is drawn (lockstep, both pools) from the trunk store,
        then carried over the two in-zone legs by spending their pairwise
        pads, all or nothing — the relay RNG is never touched, so intra-zone
        key material is independent of inter-zone traffic.  A failed draw's
        ``path`` names the hops whose pad it was short of."""
        try:
            legs = self._zone_legs(pair)
        except RoutingError as exc:
            return KeyTransportResult(success=False, failure_reason=str(exc))
        try:
            reservation = trunk.reserve(bits, now=now)
        except KeyStoreExhaustedError as exc:
            # The gateway-to-gateway path refills an exhausted trunk.
            return KeyTransportResult(
                success=False,
                path=self.relays.preferred_path(*trunk.pair),
                failure_reason=str(exc),
            )
        shortage = self.relays.path_pad_shortage(legs, bits // 8)
        if shortage is not None:
            trunk.release(reservation)
            return KeyTransportResult(success=False, path=list(shortage), failed_hop=shortage)
        key = trunk.draw(reservation, now)
        consumed = self.relays.spend_path_pad(legs, key.to_bytes())
        return KeyTransportResult(
            success=True, path=legs[0] + legs[1], key=key, pad_bits_consumed=consumed
        )

    def __repr__(self) -> str:
        trunk = 1 if self.trunk_scheduler is not None else 0
        return (
            f"ZonedReplenisher({len(self.zone_schedulers)} zones + {trunk} trunk, "
            f"epochs={self.epoch_index})"
        )
