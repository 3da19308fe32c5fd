"""The continuous-operation key-management runtime.

This is the subsystem the paper's network needs once it stops being a
benchmark and starts being *operated*: a relay mesh runs as a long-lived
system under the simulated event clock, links distill pairwise key epoch by
epoch, the relay layer spends that key transporting end-to-end keys into
per-peer-pair stores, and a fleet of IPsec gateway pairs drains the stores
through IKE rekey negotiations driven by a traffic workload — all while
links get cut, eavesdropped and DoS'd mid-run.

:class:`KeyManagementService` wires the pieces together:

* a :class:`~repro.network.relay.TrustedRelayNetwork` (mesh topology,
  pairwise pads, routed key transport with reroute);
* one :class:`~repro.kms.store.KeyStore` and one
  :class:`~repro.ipsec.gateway.GatewayPair` per consumer pair, the
  gateways' IKE daemons drawing straight from the store's synchronised
  pools;
* a :class:`~repro.kms.scheduler.ReplenishmentScheduler` dispatching
  distillation epochs (priority by depletion, output invariant to worker
  count);
* a :class:`~repro.kms.workload.TrafficWorkload` generating rekey demand;
* an :class:`~repro.sim.clock.EventScheduler` sequencing everything in
  simulated time.

Delivery has one seam.  Every store — flat pair, same-zone pair, cross-zone
pair, trunk — gets a *supply* once, at assembly (``_feed_for``): a routed
transport between its own ends, or a lock-step draw from a trunk store
carried over the two in-zone legs.  One loop (``_fill``) asks the supply
for keys and one step (``_bank``) deposits and accounts each — the step a
custody bundle also takes when it arrives late, so custody composes with
zoning: a trunk refill whose gateway is cut off parks like any transport.

Failure handling is the point, not an afterthought: a store that cannot
cover a rekey queues the demand as a *waiter* with a timeout (the paper's
Phase-2 "not enough QKD bits before timeout" failure), feeds pressure back
into the replenishment priorities, and is drained FIFO as soon as delivery
catches up; a cut or eavesdropped link triggers reroute inside the relay
layer and starvation accounting here — never a crash and never a deadlock.

The soak acceptance property: the sha256 digest of all delivered end-to-end
key material is **bit-identical for any worker count**, because every
parallel fan-out works on labeled-fork streams and commits in a fixed
order, while everything sequential is driven by the event clock's total
order.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, ClassVar, Deque, Dict, List, Optional, Set, Tuple, Union

if TYPE_CHECKING:  # imported lazily at runtime: a key server loads no relay, IPsec or DTN code
    from repro.dtn.store import CustodyBundle
    from repro.dtn.transport import CustodyMetrics, CustodyTransport
    from repro.ipsec.gateway import GatewayPair
    from repro.kms.zones import ZonePlan
    from repro.netkms.server import NetworkKmsServer
    from repro.network.relay import KeyTransportResult, TrustedRelayNetwork
    from repro.sim.clock import ScheduledEvent

from repro.ipsec.spd import QBLOCK_BITS, NegotiationError, SecurityPolicy
from repro.kms.indexing import DROP, EMIT, LazyPriorityHeap
from repro.kms.scheduler import ReplenishmentConfig, ReplenishmentScheduler
from repro.kms.store import ConservationError, KeyStore, KeyStoreExhaustedError
from repro.kms.workload import (
    AggregateProfile,
    AggregateWorkload,
    TrafficWorkload,
    WorkloadProfile,
)
from repro.util.bits import BitString
from repro.util.latency import LatencyHistogram
from repro.util.rng import DeterministicRNG

Pair = Tuple[str, str]


def percentile(values: List[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values`` (0 for empty)."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return ordered[rank - 1]


@dataclass
class KmsConfig:
    """Every operating knob of the key-management runtime."""

    #: Consumer pairs; ``None`` means every unordered pair of mesh endpoints.
    gateway_pairs: Optional[Tuple[Pair, ...]] = None
    #: Bits one Phase-2 negotiation draws from each pool: the one Qblock a
    #: consumer's AES policy (the :class:`SecurityPolicy` defaults) asks for.
    rekey_draw_bits: ClassVar[int] = QBLOCK_BITS
    #: How long a starving rekey may wait for key before it times out
    #: (the paper's Phase-2 timeout concern).
    rekey_timeout_seconds: float = 30.0
    #: End-to-end key bits moved per mesh transport into a store.
    transport_key_bits: int = 2_048
    store_capacity_bits: int = 1 << 20
    store_low_water_bits: int = 8_192
    store_high_water_bits: int = 32_768
    #: Age limit for stored key (None disables expiry).
    max_key_age_seconds: Optional[float] = None
    replenishment: ReplenishmentConfig = field(default_factory=ReplenishmentConfig)
    #: Disruption tolerance: when on, transports that find no live path —
    #: flat, zone-confined or trunk refill alike — are parked as custody
    #: bundles (see :mod:`repro.dtn`) instead of starving.
    #: Off by default — the pinned always-connected soak digest must not
    #: change.
    custody: bool = False
    custody_ttl_seconds: float = 600.0
    custody_capacity_bits: int = 1 << 20
    #: ``"scheduled"`` (contact-graph routing) or ``"epidemic"`` (flooding).
    custody_policy: str = "scheduled"
    #: Metro-scale sharding: ``None`` runs the flat mesh (the pinned-digest
    #: path), an int partitions the mesh into that many zones
    #: (:meth:`ZonePlan.partition`), an explicit :class:`ZonePlan` is used
    #: as given.
    zones: Union["ZonePlan", int, None] = None
    #: Sizing of the per-zone-pair trunk stores inter-zone pairs draw from.
    trunk_capacity_bits: int = 1 << 22
    trunk_low_water_bits: int = 65_536
    trunk_high_water_bits: int = 262_144
    #: Demand model the service builds its workload from when no workload
    #: instance is passed in: a :class:`WorkloadProfile` (one arrival
    #: process per tunnel) or an :class:`AggregateProfile` (compound
    #: arrivals per pair class — millions of tunnels, no per-tunnel
    #: objects).  ``None`` keeps the historical default Poisson profile.
    workload: Union["WorkloadProfile", "AggregateProfile", None] = None

    def __post_init__(self) -> None:
        if self.transport_key_bits <= 0 or self.transport_key_bits % 8:
            raise ValueError("transport key bits must be a positive multiple of 8")
        timeout = self.rekey_timeout_seconds
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"rekey_timeout_seconds must be finite and positive, got {timeout!r}")
        age = self.max_key_age_seconds
        if age is not None and not (math.isfinite(age) and age > 0):
            raise ValueError(
                f"max_key_age_seconds must be None or finite and positive, got {age!r}"
            )
        low, high = self.store_low_water_bits, self.store_high_water_bits
        if not 0 <= low <= high <= self.store_capacity_bits:
            raise ValueError("store water marks must satisfy 0 <= low <= high <= capacity")
        ttl = self.custody_ttl_seconds
        if self.custody and not (math.isfinite(ttl) and ttl > 0):
            raise ValueError(f"custody_ttl_seconds must be finite and positive, got {ttl!r}")
        if self.zones is not None:
            if isinstance(self.zones, int) and self.zones < 1:
                raise ValueError("zones must name at least one zone")
            if not 0 < self.trunk_low_water_bits <= self.trunk_high_water_bits:
                raise ValueError("trunk low water must be in (0, high water]")
            if self.trunk_high_water_bits > self.trunk_capacity_bits:
                raise ValueError("trunk high water cannot exceed trunk capacity")

    # ---- fluent builders (the config-first facade composes these) ------- #

    def with_zones(self, zones: Union["ZonePlan", int]) -> "KmsConfig":
        """This config, zoned (see :attr:`zones`)."""
        return replace(self, zones=zones)

    def with_workload(
        self, profile: Union["WorkloadProfile", "AggregateProfile"]
    ) -> "KmsConfig":
        """This config with a demand model (see :attr:`workload`)."""
        return replace(self, workload=profile)

    def with_replenishment(self, **overrides) -> "KmsConfig":
        """This config with :class:`ReplenishmentConfig` fields overridden."""
        return replace(self, replenishment=replace(self.replenishment, **overrides))

    def with_lanes(self, **overrides) -> "KmsConfig":
        """This config distilling real Monte-Carlo epochs in this process.

        ``mode="montecarlo"`` and ``workers=1``: the epoch's links run one
        lane at a time through the slot→key loop, no pool.  Any
        :class:`ReplenishmentConfig` field may be overridden, those two
        included.
        """
        return self.with_replenishment(**{"mode": "montecarlo", "workers": 1, **overrides})


@dataclass
class RekeyWaiter:
    """A rekey demand parked until its store can cover it (or it times out)."""

    pair: Pair
    demanded_at: float
    needed_bits: int
    resolved: bool = False
    timeout_event: Optional[ScheduledEvent] = None


@dataclass
class _Feed:
    """One store and where its key comes from — decided once, at assembly,
    and read by :meth:`KeyManagementService._supply`."""

    store: KeyStore
    #: Transport between the store's own ends is confined to these nodes
    #: (its zone); ``None`` routes across the whole mesh.
    within: Optional[Tuple[str, ...]] = None
    #: Trunk key is intermediate (re-drawn per inter-zone delivery): it feeds
    #: trunk accounting, not the delivered digest, counters or reroutes.
    trunk: bool = False
    #: The trunk store a cross-zone store draws from instead of transport.
    source: Optional[KeyStore] = None
    #: Path of the last key supplied, for reroute detection.
    last_path: Optional[List[str]] = None


@dataclass
class KmsMetrics:
    """Counters accumulated over a service run."""

    demands: int = 0
    rekeys_completed: int = 0
    rekeys_timed_out: int = 0
    rekeys_failed: int = 0
    starvation_events: int = 0
    delivered_keys: int = 0
    delivered_key_bits: int = 0
    reroutes: int = 0
    transports_failed: int = 0
    #: Deliveries banked with the custody layer instead of failing.
    transports_parked: int = 0
    epochs_run: int = 0
    pad_bits_banked: int = 0
    phase1_reestablishments: int = 0
    #: End-to-end keys banked gateway-to-gateway into trunk stores.
    trunk_keys_delivered: int = 0
    trunk_key_bits: int = 0
    #: Supplied key bits a full store had no room for (late custody key).
    key_bits_dropped: int = 0
    #: Wall-clock seconds the service spent ordering work (expiry sweeps,
    #: needy-store heap maintenance) — link selection inside the
    #: replenisher is timed by the scheduler itself, and the report's
    #: ``scheduler_overhead_seconds`` is the two together.
    ordering_seconds: float = 0.0
    #: Demand-to-completion wait of every completed rekey, in constant
    #: memory; its running ``total`` keeps the mean exact.
    rekey_latency: LatencyHistogram = field(default_factory=LatencyHistogram)


@dataclass
class SoakReport:
    """What a :meth:`KeyManagementService.serve` run sustained.

    The counters are not declared here.  ``metrics`` and ``custody`` are
    copies of the service's and the custody layer's accumulators, taken at
    the horizon, and the report reads through to them: ``report.demands``
    is ``report.metrics.demands``, and ``report.custody_expired`` is
    ``report.custody.bundles_expired`` (all zero with ``KmsConfig.custody``
    off).  Declared below is what no accumulator counts: the service's
    state at the horizon, and the figures derived from the counters.
    """

    simulated_seconds: float
    metrics: KmsMetrics
    custody: CustodyMetrics
    pending_waiters: int
    eavesdropped_links: Tuple[Pair, ...]
    #: sha256 over all delivered end-to-end key material, in delivery order
    #: — the soak determinism pin.
    delivered_digest: str
    keys_per_second: float
    key_bits_per_second: float
    rekey_latency_p50_seconds: float
    rekey_latency_p99_seconds: float
    rekey_latency_mean_seconds: float
    #: Wall-clock scheduling cost: the service's ordering
    #: (``metrics.ordering_seconds``) plus the replenisher's link selection.
    #: E21 reports it as ``kms.sched_overhead_s``; the E20 rows gate the
    #: scheduler's growth on a count of heap pops instead, not on wall time.
    scheduler_overhead_seconds: float
    scheduler_overhead_per_epoch_seconds: float
    per_pair: Dict[str, Dict[str, float]] = field(default_factory=dict)
    custody_live: int = 0
    custody_occupancy_peak_bits: int = 0
    #: Order-independent sha256 over custody-delivered key material.
    custody_delivered_digest: str = ""
    #: Metro accounting (all zero/empty with ``KmsConfig.zones`` off).
    zones: int = 0
    per_trunk: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: The owners' verdicts at the horizon: every demand is in a terminal or
    #: pending state, and every custody bundle in one (``conservation_fault``).
    completion_accounted: bool = True
    custody_accounted: bool = True

    def __getattr__(self, name: str):
        # Only reached for a name the report does not hold itself.
        if name.startswith("__"):
            raise AttributeError(name)
        if name.startswith("custody_"):
            return getattr(self.custody, "bundles_" + name[len("custody_") :])
        return getattr(self.metrics, name)


class KeyManagementService:
    """Runs a relay mesh as a long-lived key-delivery system."""

    POLICY_NAME = "kms"

    def __init__(
        self,
        relays: TrustedRelayNetwork,
        config: Optional[KmsConfig] = None,
        workload: Optional[TrafficWorkload] = None,
        rng: Optional[DeterministicRNG] = None,
    ):
        from repro.sim.clock import EventScheduler, SimClock

        self.relays = relays
        self.config = config or KmsConfig()
        self.rng = rng or DeterministicRNG(0)
        self.clock = SimClock()
        self.events = EventScheduler(self.clock)
        self.workload = workload or self._build_workload()
        self.zone_plan: Optional[ZonePlan] = None
        if self.config.zones is not None:
            from repro.kms.zones import ZonePlan, ZonedReplenisher

            plan = (
                self.config.zones
                if isinstance(self.config.zones, ZonePlan)
                else ZonePlan.partition(relays.network, self.config.zones)
            )
            plan.validate(relays.network)
            self.zone_plan = plan
            self.replenisher: ReplenishmentScheduler = ZonedReplenisher(
                relays,
                self.rng.fork_labeled("replenisher"),
                self.config.replenishment,
                plan,
            )
        else:
            self.replenisher = ReplenishmentScheduler(
                relays, self.rng.fork_labeled("replenisher"), self.config.replenishment
            )
        self.metrics = KmsMetrics()
        self._digest = hashlib.sha256()
        self._served = False
        #: Front ends built over these stores (:meth:`serve_network`).
        self._servers: List["NetworkKmsServer"] = []
        self.custody: Optional["CustodyTransport"] = None
        if self.config.custody:
            self.custody = relays.enable_custody(
                rng=self.rng.fork_labeled("custody"),
                policy=self.config.custody_policy,
                ttl_seconds=self.config.custody_ttl_seconds,
                capacity_bits=self.config.custody_capacity_bits,
            )
            self.custody.bind(self._on_custody_delivered)

        self.pairs: List[Pair] = sorted(
            tuple(p) for p in (self.config.gateway_pairs or self._default_pairs())
        )
        if not self.pairs:
            raise ValueError("the service needs at least one gateway pair")
        self.stores: Dict[Pair, KeyStore] = {}
        self.gateways: Dict[Pair, GatewayPair] = {}
        self._waiters: Dict[Pair, Deque[RekeyWaiter]] = {
            pair: deque() for pair in self.pairs
        }
        #: Indexed replacement for the per-epoch full-store scan: a store is
        #: a member while it is below high water or has unresolved waiters,
        #: and the drain order equals the old ``(-priority, pair)`` sort.
        self._needy = LazyPriorityHeap()
        #: Pairs the heap must reclassify before its next drain: their store
        #: changed level (every store's level hook is this set's ``add``, so
        #: no store refers back to the service) or they queued a waiter.
        self._changed: Set[Pair] = set()
        #: One armed ``(deadline, pair)`` entry per pair whose oldest block
        #: can expire; re-armed after each sweep/deposit.
        self._expiry_heap: List[Tuple[float, Pair]] = []
        self._expiry_armed: Dict[Pair, float] = {}
        #: One feed per consumer pair, and per trunk in zone-pair order.
        self._feeds: Dict[Pair, _Feed] = {}
        self._trunk_feeds: List[_Feed] = []
        #: The feeds that can park key in custody, by their bundles'
        #: ``(source, destination)``.  A cross-zone consumer pair never
        #: transports, so a gateway pair here can only mean the trunk.
        self._parking: Dict[Pair, _Feed] = {}
        #: One trunk store per unordered zone pair, keyed ``(zone_a, zone_b)``.
        self.trunk_stores: Dict[Tuple[str, str], KeyStore] = {}
        if self.zone_plan is not None:
            for za, zb in self.zone_plan.zone_pairs():
                trunk = KeyStore(
                    (self.zone_plan.gateways[za], self.zone_plan.gateways[zb]),
                    capacity_bits=self.config.trunk_capacity_bits,
                    low_water_bits=self.config.trunk_low_water_bits,
                    high_water_bits=self.config.trunk_high_water_bits,
                )
                self.trunk_stores[(za, zb)] = trunk
                self._trunk_feeds.append(self._transported(_Feed(trunk, trunk=True)))
        for index, pair in enumerate(self.pairs):
            self._build_pair(index, pair)

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #

    def _default_pairs(self) -> List[Pair]:
        endpoints = sorted(self.relays.network.endpoints())
        return [(a, b) for i, a in enumerate(endpoints) for b in endpoints[i + 1 :]]

    def _build_workload(self) -> TrafficWorkload:
        profile = self.config.workload
        stream = self.rng.fork_labeled("workload-root")
        if isinstance(profile, AggregateProfile):
            return AggregateWorkload(profile, stream)
        return TrafficWorkload(profile or WorkloadProfile.poisson(), stream)

    @staticmethod
    def _pair_addressing(index: int) -> Tuple[str, str, str, str]:
        """Gateway addresses and policy networks for the ``index``-th pair.

        The first 256 pairs keep the historical ``10.<index>`` scheme (the
        pinned soak digest covers gateway construction); metro-scale fleets
        continue into CGNAT space, splitting one /24 per pair into two /25
        policy networks.  Address uniqueness beyond that is not required —
        every pair has its own SPD.
        """
        if index < 256:
            return (
                f"10.{index}.0.1",
                f"10.{index}.0.2",
                f"10.{index}.1.0/24",
                f"10.{index}.2.0/24",
            )
        hi, lo = divmod(index - 256, 256)
        second = 64 + hi % 192
        return (
            f"100.{second}.{lo}.1",
            f"100.{second}.{lo}.2",
            f"100.{second}.{lo}.0/25",
            f"100.{second}.{lo}.128/25",
        )

    def _build_pair(self, index: int, pair: Pair) -> None:
        from repro.ipsec.gateway import GatewayPair

        for name in pair:
            if name not in self.relays.network.graph:
                raise KeyError(f"unknown mesh node {name!r} in gateway pair {pair}")
        config = self.config
        store = KeyStore(
            pair,
            capacity_bits=config.store_capacity_bits,
            low_water_bits=config.store_low_water_bits,
            high_water_bits=config.store_high_water_bits,
            max_key_age_seconds=config.max_key_age_seconds,
        )
        alice_address, bob_address, source_net, destination_net = self._pair_addressing(
            index
        )
        gateways = GatewayPair(
            store.local_pool,
            store.remote_pool,
            clock=self.clock,
            rng=self.rng.fork_labeled(f"gateway/{pair[0]}--{pair[1]}"),
            alice_name=f"{pair[0]}-gw",
            bob_name=f"{pair[1]}-gw",
            alice_address=alice_address,
            bob_address=bob_address,
        )
        gateways.add_symmetric_policy(
            SecurityPolicy(
                name=self.POLICY_NAME,
                source_network=source_net,
                destination_network=destination_net,
                lifetime_seconds=3600.0,
            )
        )
        gateways.establish()
        self.stores[pair] = store
        self.gateways[pair] = gateways
        self._feeds[pair] = self._feed_for(store)
        # Wire the level hook after establish(): every deposit/draw/expiry
        # from here on re-indexes the pair in the needy heap.
        store.on_level_change = self._changed.add
        self._changed.add(pair)

    def _transported(self, feed: _Feed) -> _Feed:
        """Register a feed supplied by routed transport between its store's
        own ends — the only kind that can park key with the custody layer."""
        if self.custody is not None:
            self._parking[feed.store.pair] = feed
        return feed

    def _feed_for(self, store: KeyStore) -> _Feed:
        """Where a consumer store's key comes from: transport across the
        flat mesh, transport confined to the pair's zone, or — for a
        cross-zone pair — draws from the zone pair's trunk store."""
        plan = self.zone_plan
        if plan is None:
            return self._transported(_Feed(store))
        if plan.same_zone(store.pair):
            zone = plan.members(plan.zone_of(store.pair[0]))
            return self._transported(_Feed(store, within=zone))
        trunk = self.trunk_stores[tuple(sorted(map(plan.zone_of, store.pair)))]
        return _Feed(store, source=trunk)

    # ---- needy-store indexing ------------------------------------------ #

    def _classify_pair(self, pair: Pair):
        store = self.stores[pair]
        if store.available_bits >= store.high_water_bits and not any(
            not w.resolved for w in self._waiters[pair]
        ):
            return (DROP, None)
        return (EMIT, (-store.refill_priority(), pair))

    def _drain_needy(self) -> List[Pair]:
        """Reclassify the changed pairs, then drain the needy heap.

        Deferring the pushes to here emits exactly what pushing on every
        change would: a pair's sort key and membership only move when it
        changes (it lands in ``_changed``) or when a waiter resolves, which
        only makes it less needy, and the drain self-heals those.  Sort keys
        end in the pair, so the order the changed pairs are pushed in never
        matters.
        """
        classify = self._classify_pair
        for pair in self._changed:
            self._needy.push(pair, classify)
        self._changed.clear()
        return self._needy.drain(classify)

    # ------------------------------------------------------------------ #
    # Failure / attack injection (arm before serve())
    # ------------------------------------------------------------------ #

    def _require_link(self, node_a: str, node_b: str) -> None:
        """Fail at arm time, not mid-run, when a link name is wrong."""
        try:
            self.relays.network.link(node_a, node_b)
        except KeyError:
            raise KeyError(f"no mesh link {node_a!r}--{node_b!r} to schedule against") from None

    def schedule_link_cut(self, time: float, node_a: str, node_b: str) -> None:
        """A fiber cut (or DoS takedown) of one mesh link at ``time``."""
        self._require_link(node_a, node_b)
        self.events.schedule_at(
            time,
            lambda: self.relays.network.cut_link(node_a, node_b),
            label=f"cut/{node_a}--{node_b}",
        )

    def schedule_link_restore(self, time: float, node_a: str, node_b: str) -> None:
        self._require_link(node_a, node_b)
        self.events.schedule_at(
            time,
            lambda: self.relays.network.restore_link(node_a, node_b),
            label=f"restore/{node_a}--{node_b}",
        )

    def schedule_attack(self, time: float, node_a: str, node_b: str, attack: object) -> None:
        """Interpose an eavesdropper on a link's photonic path at ``time``.

        Detection happens inside the next replenishment epoch that touches
        the link (measured QBER in Monte-Carlo mode, the analytic QBER model
        otherwise); a detected link is marked for the routing layer to avoid
        and stops yielding pad until the attack ends and it is restored.
        """
        self._require_link(node_a, node_b)
        self.events.schedule_at(
            time,
            lambda: self.replenisher.attach_attack(node_a, node_b, attack),
            label=f"attack/{node_a}--{node_b}",
        )

    def schedule_attack_end(self, time: float, node_a: str, node_b: str) -> None:
        self._require_link(node_a, node_b)
        self.events.schedule_at(
            time,
            lambda: self.replenisher.detach_attack(node_a, node_b),
            label=f"attack-end/{node_a}--{node_b}",
        )

    # ------------------------------------------------------------------ #
    # The serve loop
    # ------------------------------------------------------------------ #

    def serve(self, hours: float) -> SoakReport:
        """Operate the network for ``hours`` of simulated time.

        Single-shot: the report (and its pinned digest) describes one
        complete run from a freshly built service.  On return the events
        that never ran (the next epoch, later demands, waiter timeouts) are
        discarded: they close over this service, and a finished service
        must be freed as soon as its last reference goes.
        """
        if self._served:
            raise RuntimeError("serve() may run once; build a fresh service")
        if not (math.isfinite(hours) and hours > 0):
            raise ValueError(f"serve duration must be positive and finite, got {hours!r}")
        self._served = True
        horizon = hours * 3600.0

        # Per-tunnel workloads yield ``(time, pair)``; aggregate workloads
        # yield ``(time, pair, count)`` — a burst of ``count`` coincident
        # rekey demands modeled without per-tunnel objects.
        for item in self.workload.schedule(self.pairs, horizon):
            time, pair = item[0], item[1]
            count = item[2] if len(item) > 2 else 1
            self.events.schedule_at(
                time,
                lambda pair=pair, time=time, count=count: self._on_demand(
                    pair, time, count
                ),
                label=f"rekey/{pair[0]}--{pair[1]}",
            )
        self.events.schedule_at(0.0, self._on_epoch, label="epoch")
        if self.custody is not None:
            # Tick the custody layer at every contact-plan boundary (and at
            # the horizon, so final expiry is observed) — windows opening
            # between replenishment epochs must not go unused.
            for time in self.custody.tick_times(horizon):
                self.events.try_schedule_at(
                    time,
                    self._custody_tick,
                    label="custody-tick",
                )
        try:
            self.events.run_until(horizon)
            self._check_conservation()
            return self._build_report(horizon)
        finally:
            self.events.clear()

    # ---- demand side --------------------------------------------------- #

    def _on_demand(self, pair: Pair, demanded_at: float, count: int = 1) -> None:
        store = self.stores[pair]
        needed = self.config.rekey_draw_bits
        for _ in range(count):
            self.metrics.demands += 1
            try:
                reservation = store.reserve(needed, now=self.clock.now())
            except KeyStoreExhaustedError:
                self._enqueue_waiter(pair, demanded_at, needed)
                continue
            self._complete_rekey(pair, reservation, demanded_at)

    def _enqueue_waiter(self, pair: Pair, demanded_at: float, needed: int) -> None:
        self.metrics.starvation_events += 1
        waiter = RekeyWaiter(pair=pair, demanded_at=demanded_at, needed_bits=needed)
        waiter.timeout_event = self.events.schedule_after(
            self.config.rekey_timeout_seconds,
            lambda: self._on_waiter_timeout(waiter),
            label=f"rekey-timeout/{pair[0]}--{pair[1]}",
        )
        self._waiters[pair].append(waiter)
        # A waiter keeps its pair in the needy set even at high water.
        self._changed.add(pair)
        self._pressure(self.relays.preferred_path(*pair))

    def _on_waiter_timeout(self, waiter: RekeyWaiter) -> None:
        if waiter.resolved:
            return
        # Lazy deletion: the deque entry stays until a drain reaches it —
        # no O(n) remove on the timeout hot path.
        waiter.resolved = True
        waiter.timeout_event = None  # it ran; its callback closes over waiter
        self.metrics.rekeys_timed_out += 1
        self.gateways[waiter.pair].alice.statistics.negotiation_failures += 1

    def _drain_waiters(self, pair: Pair) -> None:
        """Serve parked demands FIFO while the store can cover them."""
        store = self.stores[pair]
        queue = self._waiters[pair]
        while queue:
            waiter = queue[0]
            if waiter.resolved:  # timed out; discard lazily
                queue.popleft()
                continue
            try:
                reservation = store.reserve(waiter.needed_bits, now=self.clock.now())
            except KeyStoreExhaustedError:
                break
            queue.popleft()
            waiter.resolved = True
            if waiter.timeout_event is not None:
                waiter.timeout_event.cancel()
                waiter.timeout_event = None
            self._complete_rekey(pair, reservation, waiter.demanded_at)

    def _complete_rekey(self, pair: Pair, reservation, demanded_at: float) -> None:
        now = self.clock.now()
        gateways = self.gateways[pair]
        phase1 = gateways.alice.ike.phase1
        if phase1 is None or phase1.expired(now):
            gateways.establish()
            self.metrics.phase1_reestablishments += 1
        store = self.stores[pair]
        try:
            with store.consuming(reservation, now=now):
                gateways.alice.rekey_now(self.POLICY_NAME)
        except NegotiationError:
            self.metrics.rekeys_failed += 1
            return
        self.metrics.rekeys_completed += 1
        self.metrics.rekey_latency.add(now - demanded_at)

    # ---- supply side --------------------------------------------------- #

    def _on_epoch(self) -> None:
        report = self.replenisher.run_epoch()
        self.metrics.epochs_run += 1
        self.metrics.pad_bits_banked += report.total_banked_bits
        if self.custody is not None:
            # Freshly banked pad may unblock parked bundles; move them
            # before demanding new transports.
            self.custody.tick(self.clock.now())
        self._deliver()
        self._check_conservation()
        self.events.schedule_after(
            self.config.replenishment.epoch_seconds, self._on_epoch, label="epoch"
        )

    def _custody_tick(self) -> None:
        self.custody.tick(self.clock.now())
        for pair in self.pairs:
            self._drain_waiters(pair)

    def _on_custody_delivered(self, bundle: "CustodyBundle") -> None:
        """A parked bundle reached its destination: bank it exactly as the
        transport that parked it would have been banked."""
        feed = self._parking.get((bundle.source, bundle.destination))
        if feed is None:
            return  # custody traffic outside this service's stores
        self._bank(feed, bundle.key, self.clock.now())
        if not feed.trunk:
            self._drain_waiters(feed.store.pair)
            self._arm_expiry(feed.store.pair)

    def _deliver(self) -> None:
        """Fill every trunk store, then every consumer store below its high
        water, each from its own supply (see :meth:`_feed_for`).

        Stores are visited in ``(-priority, pair)`` order, so contention for
        the shared pairwise pads resolves toward the store being drained
        hardest — and the visit order (hence the delivered-material digest)
        is independent of dict iteration and worker count.

        The order comes from the needy-store heap rather than a full sort:
        stores parked at high water with no waiters are not members, so an
        epoch's ordering cost follows the stores that actually need work.
        """
        now = self.clock.now()
        started = perf_counter()
        self._sweep_expiry(now)
        ordered = self._drain_needy()
        self.metrics.ordering_seconds += perf_counter() - started
        for feed in self._trunk_feeds:
            self._fill(feed, now)
        for pair in ordered:
            self._fill(self._feeds[pair], now)
            self._drain_waiters(pair)
            self._arm_expiry(pair)
        # Visits that changed nothing (e.g. starved with no deposit) stay
        # members until they truly reach high water.
        self._changed.update(ordered)

    def _fill(self, feed: _Feed, now: float) -> None:
        """Top one store up to its high-water mark, one supplied key (of no
        more whole bytes than it has room for) at a time.  Key already parked
        with the custody layer for this store counts toward the mark and the
        room: the delivery callback banks it on arrival.
        """
        store = feed.store
        parked = self._parked_bits(feed)
        while store.available_bits + parked < store.high_water_bits:
            room = store.capacity_bits - store.available_bits - parked
            bits = min(self.config.transport_key_bits, room // 8 * 8)
            if bits <= 0:
                break
            result = self._supply(feed, bits, now)
            if result.custody_accepted:
                # The custody layer took the key; the delivery callback
                # banks it whenever it arrives (possibly already), so the
                # demand is parked rather than starved.
                self.metrics.transports_parked += 1
                before, parked = parked, self._parked_bits(feed)
                if result.success or parked > before:
                    continue
                # Custody is evicting our own bundles as fast as we park
                # them (bounded store, full); more submissions this epoch
                # would only churn the store.
                break
            if not result.success:
                self.metrics.transports_failed += 1
                self._pressure(result.path)
                if store.below_low_water:
                    store.statistics.starved_epochs += 1
                break
            # A reroute is either an explicit mid-transport fallback or
            # a silent path change forced by a link the routing layer
            # now avoids (cut, eavesdropped, exhausted).
            if not feed.trunk and (
                result.rerouted or feed.last_path not in (None, result.path)
            ):
                self.metrics.reroutes += 1
            feed.last_path = result.path
            self._bank(feed, result.key, now)

    def _parked_bits(self, feed: _Feed) -> int:
        if self._parking.get(feed.store.pair) is not feed:
            return 0
        return self.custody.in_flight_bits(*feed.store.pair)

    def _bank(self, feed: _Feed, key: BitString, now: float) -> None:
        """Deposit one supplied key and account for it: what the store had
        room for is delivered (and digested), the rest dropped."""
        metrics = self.metrics
        banked = feed.store.deposit(key, now=now)
        metrics.key_bits_dropped += len(key) - banked
        if not banked:
            return
        if feed.trunk:
            metrics.trunk_keys_delivered += 1
            metrics.trunk_key_bits += banked
            return
        metrics.delivered_keys += 1
        metrics.delivered_key_bits += banked
        if banked < len(key):
            key = key[:banked]
        source, destination = feed.store.pair
        self._digest.update(f"{source}--{destination}|{banked}|".encode())
        self._digest.update(key.to_bytes())

    # ---- expiry sweeps -------------------------------------------------- #

    def _arm_expiry(self, pair: Pair) -> None:
        """Index ``pair``'s next block-expiry deadline (if any, and sooner
        than what is already armed)."""
        deadline = self.stores[pair].next_expiry_deadline()
        if deadline is None:
            return
        current = self._expiry_armed.get(pair)
        if current is not None and current <= deadline:
            return
        self._expiry_armed[pair] = deadline
        heapq.heappush(self._expiry_heap, (deadline, pair))

    def _sweep_expiry(self, now: float) -> None:
        """Expire aged key in deadline order — only pairs actually due.

        Due pairs are re-armed only once the heap holds no due entry: a store
        whose oldest block stays (a held reservation covers it, or it is due
        exactly at ``now``, which :meth:`KeyStore.expire` keeps) still has a
        deadline at or before ``now``, and re-arming it inside the loop would
        pop it again forever.  It is retried at the next sweep.
        """
        heap = self._expiry_heap
        due: List[Pair] = []
        while heap and heap[0][0] <= now:
            deadline, pair = heapq.heappop(heap)
            if self._expiry_armed.get(pair) != deadline:
                continue  # superseded by a later re-arm
            del self._expiry_armed[pair]
            due.append(pair)
        for pair in due:
            self.stores[pair].expire(now)
            self._arm_expiry(pair)

    # ---- the two supplies ------------------------------------------------ #

    def _supply(self, feed: _Feed, bits: int, now: float) -> KeyTransportResult:
        """The next ``bits`` of key for ``feed``'s store, as a plain
        transport result.  A transport between the store's own ends that
        fails outright while the store is low also pressures the path
        routing prefers now, on top of the failed one."""
        store, within = feed.store, feed.within
        if feed.source is not None:
            return self.replenisher.draw_from_trunk(feed.source, store.pair, bits, now)
        result = self.relays.transport_with_reroute(*store.pair, bits, now, within)
        if not (result.success or result.custody_accepted) and store.below_low_water:
            self._pressure(self.relays.preferred_path(*store.pair, within))
        return result

    # ---- pressure feedback ---------------------------------------------- #

    def _pressure(self, path: List[str]) -> None:
        """Feed demand for every hop of ``path`` back into replenishment."""
        for hop_a, hop_b in zip(path, path[1:]):
            self.replenisher.note_pressure(hop_a, hop_b)

    # ------------------------------------------------------------------ #
    # Networked delivery (repro.netkms)
    # ------------------------------------------------------------------ #

    def serve_network(self, host: str = "127.0.0.1", port: int = 0) -> "NetworkKmsServer":
        """A network front end over this service's per-pair stores.

        Returns an *unstarted* :class:`~repro.netkms.server.NetworkKmsServer`
        bound to the same :class:`KeyStore` objects the in-process gateways
        draw from — ``await server.start()`` inside an event loop brings it
        up (``port=0`` binds an ephemeral port).  Network consumers and the
        reservation contract keep the stores race-free between them; see
        :mod:`repro.netkms` for the protocol and its version negotiation.
        Its clock continues this service's: it reads the simulated time of
        this call when the server starts, and runs on in its event loop's
        seconds, so a store's timestamps and depletion rate never jump
        between the two.
        """
        from repro.netkms.server import NetworkKmsServer

        server = NetworkKmsServer(self.stores, host=host, port=port)
        server.time_at_start = self.clock.now()
        self._servers.append(server)
        return server

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def _demand_fault(self) -> Optional[str]:
        m, pending = self.metrics, self.pending_waiters
        if m.demands == m.rekeys_completed + m.rekeys_timed_out + m.rekeys_failed + pending:
            return None
        return (
            f"kms: {m.demands} demands, {m.rekeys_completed} completed, {m.rekeys_timed_out}"
            f" timed out, {m.rekeys_failed} failed, {pending} pending"
        )

    def conservation_fault(self) -> Optional[str]:
        """``None`` while every owner of key bits here (each store, the relay
        layer's pads, the custody layer, each :meth:`serve_network` front
        end) keeps its rule, the stores hold exactly the key delivered into
        them, and every demand is completed, timed out, failed or pending;
        otherwise the first broken rule's numbers.  Checked after every
        epoch and at the horizon."""
        custody = [self.custody] if self.custody is not None else []
        stores = [*self.stores.values(), *self.trunk_stores.values()]
        for owner in [*stores, self.relays, *self._servers, *custody]:
            fault = owner.conservation_fault()
            if fault is not None:
                return fault
        m = self.metrics
        for name, stores, delivered in (
            ("consumer", self.stores, m.delivered_key_bits),
            ("trunk", self.trunk_stores, m.trunk_key_bits),
        ):
            deposited = sum(store.statistics.bits_deposited for store in stores.values())
            if deposited != delivered:
                return f"kms: {delivered} bits delivered, {deposited} deposited in {name} stores"
        return self._demand_fault()

    def _check_conservation(self) -> None:
        fault = self.conservation_fault()
        if fault is not None:
            raise ConservationError(f"t={self.clock.now():g}s: {fault}")

    @property
    def pending_waiters(self) -> int:
        # Resolved entries may linger in the deques (lazy deletion) — count
        # only waiters still actually parked.
        return sum(
            sum(1 for waiter in queue if not waiter.resolved)
            for queue in self._waiters.values()
        )

    def delivered_digest(self) -> str:
        """The running sha256 over all delivered end-to-end key material."""
        return self._digest.hexdigest()

    def _build_report(self, horizon: float) -> SoakReport:
        from repro.dtn.transport import CustodyMetrics

        eavesdropped = tuple(
            sorted(
                (edge.node_a, edge.node_b)
                for edge in self.relays.network.links()
                if edge.eavesdropping_detected
            )
        )
        per_pair: Dict[str, Dict[str, float]] = {}
        for pair, store in self.stores.items():
            stats = store.statistics
            per_pair[f"{pair[0]}--{pair[1]}"] = {
                "available_bits": float(store.available_bits),
                "bits_deposited": float(stats.bits_deposited),
                "bits_consumed": float(stats.bits_consumed),
                "bits_expired": float(stats.bits_expired),
                "reservations_denied": float(stats.reservations_denied),
                "starved_epochs": float(stats.starved_epochs),
                "rekeys": float(self.gateways[pair].alice.statistics.negotiations),
            }
        per_trunk: Dict[str, Dict[str, float]] = {}
        for zone_pair, trunk in sorted(self.trunk_stores.items()):
            per_trunk[f"{zone_pair[0]}--{zone_pair[1]}"] = {
                "available_bits": float(trunk.available_bits),
                "bits_deposited": float(trunk.statistics.bits_deposited),
                "bits_consumed": float(trunk.statistics.bits_consumed),
                "reservations_denied": float(trunk.statistics.reservations_denied),
            }
        metrics, custody = self.metrics, self.custody
        custody_state = {} if custody is None else dict(
            custody_live=len(custody.bundles),
            custody_occupancy_peak_bits=custody.occupancy_peak_bits,
            custody_delivered_digest=custody.delivered_digest,
            custody_accounted=custody.conservation_fault() is None,
        )
        latency = metrics.rekey_latency
        scheduler_overhead = metrics.ordering_seconds + self.replenisher.selection_seconds
        return SoakReport(
            simulated_seconds=horizon,
            metrics=copy.deepcopy(metrics),
            custody=CustodyMetrics() if custody is None else copy.copy(custody.metrics),
            pending_waiters=self.pending_waiters,
            eavesdropped_links=eavesdropped,
            delivered_digest=self.delivered_digest(),
            keys_per_second=metrics.delivered_keys / horizon,
            key_bits_per_second=metrics.delivered_key_bits / horizon,
            rekey_latency_p50_seconds=latency.percentile(50),
            rekey_latency_p99_seconds=latency.percentile(99),
            rekey_latency_mean_seconds=latency.total / max(latency.count, 1),
            scheduler_overhead_seconds=scheduler_overhead,
            scheduler_overhead_per_epoch_seconds=scheduler_overhead / max(metrics.epochs_run, 1),
            per_pair=per_pair,
            **custody_state,
            zones=len(self.zone_plan.zones) if self.zone_plan else 0,
            per_trunk=per_trunk,
            completion_accounted=self._demand_fault() is None,
        )

    def __repr__(self) -> str:
        return (
            f"KeyManagementService({len(self.pairs)} pairs, "
            f"{self.relays.network!r}, epochs={self.metrics.epochs_run})"
        )
