"""Store-and-forward custody transport of OTP key material.

:class:`CustodyTransport` is the engine the forwarding policies drive: it
owns one bounded :class:`~repro.dtn.store.CustodyStore` per mesh node,
mints bundles, moves or replicates their copies across open contacts
(consuming pairwise pad exactly as live relay transport does — one
encrypt/decrypt per hop), and keeps terminal accounting exact: every
submitted bundle ends in exactly one of ``delivered`` / ``expired`` /
``evicted``, with no leak states and no copies left in any store once the
transport drains (:meth:`CustodyTransport.conservation_fault`).  It keeps
live bundles only: of one that ended it keeps the counts, and the digest
of a delivered one.

Determinism contract
--------------------
* Bundle ``n``'s key material comes from the labeled stream
  ``dtn/bundle/<n>`` — a pure function of the custody seed and the bundle
  index, independent of topology, timing or route.
* The delivered digest is *order-independent* (a hash over the sorted
  per-bundle digests), so a run that delivers the same bundles later — or
  by flooding instead of by plan — produces the identical digest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.dtn.contact import ContactGraphSelector, ContactSchedule
from repro.dtn.policies import ForwardingPolicy, build_policy
from repro.dtn.store import DELIVERED, EVICTED, EXPIRED, CustodyBundle, CustodyStore
from repro.network.graph import component, hop_distances
from repro.network.relay import TrustedRelayNetwork, weak_callback
from repro.network.routing import RoutingError
from repro.util.bits import BitString
from repro.util.latency import LatencyHistogram
from repro.util.rng import DeterministicRNG


@dataclass
class CustodyMetrics:
    """Lifetime accounting across the whole custody transport."""

    bundles_submitted: int = 0
    bundles_delivered: int = 0
    bundles_expired: int = 0
    bundles_evicted: int = 0
    #: Copy movements (single-copy hops) and replications (new copies).
    copy_moves: int = 0
    copies_made: int = 0
    #: Redundant copies dropped after delivery, eviction of a non-last
    #: copy, or expiry of a non-last copy.
    duplicate_copies_purged: int = 0
    pad_bits_consumed: int = 0
    #: Hops declined because the pairwise pool could not cover the bundle.
    pad_shortages: int = 0

    @property
    def terminal_total(self) -> int:
        return self.bundles_delivered + self.bundles_expired + self.bundles_evicted


class CustodyTransport:
    """Custody banking plus policy-driven forwarding over a contact plan."""

    def __init__(
        self,
        relays: TrustedRelayNetwork,
        schedule: Optional[ContactSchedule] = None,
        rng: Optional[DeterministicRNG] = None,
        policy: "str | ForwardingPolicy" = "scheduled",
        ttl_seconds: float = 3600.0,
        capacity_bits: int = 1 << 20,
    ):
        if not (math.isfinite(ttl_seconds) and ttl_seconds > 0):
            raise ValueError(f"ttl_seconds must be finite and positive, got {ttl_seconds!r}")
        #: The mesh's pads, not the relay network itself: a network that
        #: enables custody holds this transport, so a back-reference would
        #: make the two a reference cycle.
        self.pads = relays.pairwise_pads
        self.network = relays.network
        self.selector = ContactGraphSelector(
            relays.network, schedule=schedule, metric=relays.selector.metric
        )
        self.rng = rng or DeterministicRNG(0)
        self.policy = build_policy(policy)
        self.ttl_seconds = float(ttl_seconds)
        self.metrics = CustodyMetrics()
        self.stores: Dict[str, CustodyStore] = {
            name: CustodyStore(name, capacity_bits)
            for name in sorted(relays.network.graph.nodes)
        }
        #: The live bundles, by id (so in id order); a bundle leaves when it
        #: reaches its terminal state.
        self.bundles: Dict[int, CustodyBundle] = {}
        #: End-to-end latency of the delivered bundles, in constant memory.
        self.delivery_latency = LatencyHistogram()
        #: Live bundle bits per ``(source, destination)``, kept where a bundle's
        #: state changes.
        self._live_bits: Dict[Tuple[str, str], int] = {}
        self._next_bundle_id = 0
        self._bundle_digests: List[str] = []
        self._on_delivered: Callable[[], Optional[Callable[[CustodyBundle], None]]] = lambda: None
        #: Per destination, the layout version its hop distances were taken
        #: at and the distances themselves.
        self._distances: Dict[str, Tuple[int, Dict[str, int]]] = {}

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def bind(self, on_delivered: Callable[[CustodyBundle], None]) -> None:
        """Register the delivery callback (the KMS deposits keys here).

        A bound method is held weakly, as the relay network's pad listeners
        are: a service binding its own method must stay free to be dropped.
        Any other callable is held strongly.
        """
        self._on_delivered = weak_callback(on_delivered)

    def static_distance(self, node: str, destination: str) -> float:
        """Hop distance over the full (fault-free) topology, ``inf`` when the
        two nodes are statically disconnected.  A destination's distances
        are taken once per layout version, so an added link or node is seen."""
        version = self.network.route_state()[0]
        cached = self._distances.get(destination)
        if cached is None or cached[0] != version:
            cached = (version, hop_distances(self.network.graph, destination))
            self._distances[destination] = cached
        return cached[1].get(node, math.inf)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def locations(self, bundle: CustodyBundle) -> List[str]:
        """Nodes currently holding a copy of ``bundle``, sorted."""
        return [
            name
            for name in sorted(self.stores)
            if self.stores[name].holds(bundle.bundle_id)
        ]

    def in_flight_bits(self, source: str, destination: str) -> int:
        """Bits of live custody material submitted for ``source -> destination``
        (what a caller may count against a replenishment target while the
        bundles are still in flight)."""
        return self._live_bits.get((source, destination), 0)

    @property
    def drained(self) -> bool:
        """No live bundles remain anywhere."""
        return not self.bundles

    def conservation_fault(self) -> Optional[str]:
        """``None`` while every bundle submitted is delivered, expired,
        evicted or still live, and a drained transport holds no copy;
        otherwise the transport's numbers."""
        m, live = self.metrics, len(self.bundles)
        copies = sum(len(store) for store in self.stores.values())
        if m.bundles_submitted == m.terminal_total + live and (live or not copies):
            return None
        return (
            f"custody: {m.bundles_submitted} bundles submitted, {m.bundles_delivered} delivered,"
            f" {m.bundles_expired} expired, {m.bundles_evicted} evicted, {live} live,"
            f" {copies} copies held"
        )

    @property
    def occupancy_peak_bits(self) -> int:
        """The largest instantaneous occupancy any single store reached."""
        if not self.stores:
            return 0
        return max(store.stats.occupancy_peak_bits for store in self.stores.values())

    @property
    def delivered_digest(self) -> str:
        """Order-independent digest over all delivered key material."""
        outer = hashlib.sha256()
        for item in sorted(self._bundle_digests):
            outer.update(item.encode())
            outer.update(b"\n")
        return outer.hexdigest()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        source: str,
        destination: str,
        key_bits: int,
        now: float,
        within: Optional[frozenset] = None,
    ) -> CustodyBundle:
        """Mint a bundle for ``source -> destination`` and bank it.

        The bundle is banked at the source, then immediately forwarded as
        far as the contacts open *now* allow — all the way to delivery when
        a live path happens to exist.  ``within`` confines its copies, and
        the pad they spend, to those nodes (the zone its transport was
        confined to).  A statically disconnected (or unknown) destination
        is a :class:`RoutingError`: custody buys time, not topology.
        """
        if key_bits <= 0 or key_bits % 8:
            raise ValueError("key length must be a positive multiple of 8 bits")
        graph = self.network.graph
        for name in (source, destination):
            if name not in graph:
                raise RoutingError(
                    f"unknown node {name!r} in route {source!r} -> {destination!r}"
                )
        if math.isinf(self.static_distance(source, destination)):
            reachable = sorted(component(graph, source))
            raise RoutingError(
                f"no possible QKD path from {source!r} to {destination!r} even "
                f"with every link up; {len(reachable)} node(s) reachable from "
                f"{source!r}: {', '.join(reachable)}"
            )
        bundle_id = self._next_bundle_id
        self._next_bundle_id += 1
        key = BitString.random(
            key_bits, self.rng.fork_labeled(f"dtn/bundle/{bundle_id}")
        )
        bundle = CustodyBundle(
            bundle_id=bundle_id,
            source=source,
            destination=destination,
            key=key,
            created_at=now,
            expires_at=now + self.ttl_seconds,
            seen={source},
            within=within,
        )
        self.bundles[bundle_id] = bundle
        self._live_bits[source, destination] = self.in_flight_bits(source, destination) + key_bits
        self.metrics.bundles_submitted += 1
        if source == destination:
            self._deliver(bundle, now)
            return bundle
        self._bank(bundle, source, now)
        if bundle.live:
            self.policy.forward(self, bundle, now)
        return bundle

    # ------------------------------------------------------------------ #
    # Copy movement (the primitives policies drive)
    # ------------------------------------------------------------------ #

    def move_copy(self, bundle: CustodyBundle, node_a: str, node_b: str, now: float) -> bool:
        """Move the copy at ``node_a`` one hop to ``node_b`` (single-copy
        forwarding).  Delivers on arrival at the destination."""
        return self._carry(bundle, node_a, node_b, now, keep=False)

    def replicate_copy(self, bundle: CustodyBundle, node_a: str, node_b: str, now: float) -> bool:
        """Copy the bundle from ``node_a`` to ``node_b``, keeping the
        original (epidemic spread).  Delivers on arrival at the destination."""
        return self._carry(bundle, node_a, node_b, now, keep=True)

    def _carry(
        self, bundle: CustodyBundle, node_a: str, node_b: str, now: float, keep: bool
    ) -> bool:
        """Carry a copy from ``node_a`` across one open link — the mesh
        pads' :meth:`~repro.network.relay.PairwisePads.cross_hop`, the same
        primitive live transport spends pad through — and account for it.
        Returns ``False``, consuming nothing, when ``node_a`` holds no copy
        of a live bundle, the link is closed, or its pool cannot cover the
        bundle.
        """
        if not bundle.live or not self.stores[node_a].holds(bundle.bundle_id):
            return False
        if not self.selector.edge_open(node_a, node_b, now):
            return False
        key_bytes = bundle.key.to_bytes()
        if self.pads.cross_hop(node_a, node_b, key_bytes) is None:
            self.metrics.pad_shortages += 1
            return False
        bits = len(key_bytes) * 8
        bundle.hops += 1
        bundle.pad_bits_consumed += bits
        self.metrics.pad_bits_consumed += bits
        bundle.seen.add(node_b)
        if keep:
            self.metrics.copies_made += 1
        else:
            self.stores[node_a].remove(bundle.bundle_id)
            self.metrics.copy_moves += 1
        if node_b == bundle.destination:
            self._deliver(bundle, now)
        else:
            self._bank(bundle, node_b, now)
        return True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _bank(self, bundle: CustodyBundle, node: str, now: float) -> None:
        for victim in self.stores[node].bank(bundle):
            self._copy_dropped(victim, EVICTED, now)

    def _copy_dropped(self, victim: CustodyBundle, reason: str, now: float) -> None:
        """Account for one copy leaving a store without moving on.

        Only the *last* copy of a live bundle is terminal; dropping a
        redundant copy (epidemic duplicates, copies of already-delivered
        bundles) is bookkeeping, not a lost key.
        """
        if not victim.live or self.locations(victim):
            self.metrics.duplicate_copies_purged += 1
            return
        self._retire(victim, reason)
        if reason == EVICTED:
            self.metrics.bundles_evicted += 1
        else:
            self.metrics.bundles_expired += 1

    def _retire(self, bundle: CustodyBundle, state: str) -> None:
        """Move a live bundle to its terminal ``state``, and let it go."""
        bundle.state = state
        del self.bundles[bundle.bundle_id]
        self._live_bits[bundle.source, bundle.destination] -= bundle.key_bits

    def _deliver(self, bundle: CustodyBundle, now: float) -> None:
        self._retire(bundle, DELIVERED)
        bundle.delivered_at = now
        self.metrics.bundles_delivered += 1
        self.delivery_latency.add(now - bundle.created_at)
        digest = hashlib.sha256()
        digest.update(
            f"{bundle.bundle_id}|{bundle.source}|{bundle.destination}"
            f"|{bundle.key_bits}|".encode()
        )
        digest.update(bundle.key.to_bytes())
        self._bundle_digests.append(digest.hexdigest())
        # Purge redundant copies eagerly: delivered material never lingers
        # in custody, so TTL expiry can never invade it.
        for node in self.locations(bundle):
            self.stores[node].remove(bundle.bundle_id)
            self.metrics.duplicate_copies_purged += 1
        on_delivered = self._on_delivered()
        if on_delivered is not None:
            on_delivered(bundle)

    # ------------------------------------------------------------------ #
    # The clock face
    # ------------------------------------------------------------------ #

    def tick(self, now: float) -> None:
        """Advance the custody layer to ``now``: expire overdue copies,
        then let the policy forward every live bundle (in id order)."""
        for name in sorted(self.stores):
            for victim in self.stores[name].take_expired(now):
                self._copy_dropped(victim, EXPIRED, now)
        for bundle in list(self.bundles.values()):
            if bundle.live:
                self.policy.forward(self, bundle, now)

    def tick_times(self, until: float) -> List[float]:
        """The instants the custody layer should tick at, up to ``until``:
        every contact-plan boundary plus ``until`` itself (so final expiry
        and the last contact are both observed)."""
        times: List[float] = []
        if self.selector.schedule is not None:
            times = [
                t for t in self.selector.schedule.boundary_times(until) if t <= until
            ]
        if not times or times[-1] < until:
            times.append(until)
        return times

    def run_until(self, until: float, start: float = 0.0) -> None:
        """Drive the transport over every tick time in ``(start, until]``
        (standalone use; the KMS schedules ticks on its own event loop)."""
        for time in self.tick_times(until):
            if time > start:
                self.tick(time)

    def __repr__(self) -> str:
        m = self.metrics
        return (
            f"CustodyTransport(policy={self.policy.name!r}, "
            f"submitted={m.bundles_submitted}, delivered={m.bundles_delivered}, "
            f"expired={m.bundles_expired}, evicted={m.bundles_evicted})"
        )


__all__ = ["CustodyMetrics", "CustodyTransport"]
