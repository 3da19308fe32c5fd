"""Custody bundles and the bounded per-relay custody store.

When no live path exists, key material does not die — it is *banked*: a
relay accepts custody of an OTP-encrypted key bundle and holds it until a
contact window lets it move closer to its destination.  Custody is a
liability as well as a service, so the store is explicitly bounded in both
dimensions the DTN literature bounds it in:

* **time** — every bundle carries an expiry (``created_at + ttl``); expired
  bundles are dropped and counted, never delivered;
* **space** — the store holds at most ``capacity_bits`` of bundle payload;
  banking beyond that evicts existing bundles *deterministically* (closest
  expiry first, bundle id as the tiebreak), each eviction counted.

The store is plain bounded storage; bundle lifecycle (which copy is the
last, what terminal state an eviction implies) is the
:class:`~repro.dtn.transport.CustodyTransport`'s job — a store never
decides a bundle's fate, it only reports what it dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.util.bits import BitString

#: Terminal bundle states (``""`` while in custody / in flight).
DELIVERED = "delivered"
EXPIRED = "expired"
EVICTED = "evicted"


class CustodyError(Exception):
    """Raised on custody contract violations (oversized bundle, bad node)."""


@dataclass
class CustodyBundle:
    """One end-to-end key in store-and-forward flight.

    The key material is drawn from the labeled stream ``dtn/bundle/<id>``
    at submission, so it is a pure function of ``(custody seed, bundle
    id)`` — the property that makes delivered material digest-identical
    between an always-connected run and an intermittent one that delivers
    the same bundles later.
    """

    bundle_id: int
    source: str
    destination: str
    key: BitString
    created_at: float
    expires_at: float
    #: ``""`` while live, then one of :data:`DELIVERED` / :data:`EXPIRED`
    #: / :data:`EVICTED`.
    state: str = ""
    delivered_at: Optional[float] = None
    #: Copy moves made on behalf of this bundle (all copies, all hops).
    hops: int = 0
    #: Pairwise pad spent moving this bundle's copies, in bits.
    pad_bits_consumed: int = 0
    #: Nodes that ever held a copy (the duplicate-suppression set).
    seen: Set[str] = field(default_factory=set)
    #: The only nodes its copies may visit (its zone); ``None``: any node.
    within: Optional[frozenset] = None

    @property
    def key_bits(self) -> int:
        return len(self.key)

    @property
    def live(self) -> bool:
        return self.state == ""

    def expired_by(self, now: float) -> bool:
        return now >= self.expires_at


@dataclass
class CustodyStoreStats:
    """Lifetime accounting for one node's custody store."""

    bundles_banked: int = 0
    bits_banked: int = 0
    bundles_evicted: int = 0
    bits_evicted: int = 0
    bundles_expired: int = 0
    bits_expired: int = 0
    occupancy_peak_bits: int = 0


class CustodyStore:
    """Bounded custody storage for one node of the mesh."""

    def __init__(self, node: str, capacity_bits: int = 1 << 20):
        if capacity_bits <= 0:
            raise ValueError("custody capacity must be positive")
        self.node = node
        self.capacity_bits = capacity_bits
        self.stats = CustodyStoreStats()
        self._bundles: Dict[int, CustodyBundle] = {}

    # ------------------------------------------------------------------ #
    # Levels
    # ------------------------------------------------------------------ #

    @property
    def occupancy_bits(self) -> int:
        return sum(b.key_bits for b in self._bundles.values())

    def __len__(self) -> int:
        return len(self._bundles)

    def holds(self, bundle_id: int) -> bool:
        return bundle_id in self._bundles

    def bundle_ids(self) -> List[int]:
        """Held bundle ids in ascending order (the deterministic scan order)."""
        return sorted(self._bundles)

    # ------------------------------------------------------------------ #
    # Banking / removal
    # ------------------------------------------------------------------ #

    def bank(self, bundle: CustodyBundle) -> List[CustodyBundle]:
        """Accept custody of ``bundle``; returns the bundles evicted for room.

        Eviction is deterministic: while the store would overflow, the held
        bundle closest to expiry goes first (``(expires_at, bundle_id)``
        order) — it is the one most likely to die unconsummated anyway.  A
        bundle larger than the whole store is a contract violation
        (:class:`CustodyError`), not an eviction storm.
        """
        if bundle.key_bits > self.capacity_bits:
            raise CustodyError(
                f"bundle {bundle.bundle_id} ({bundle.key_bits} bits) exceeds "
                f"custody store capacity at {self.node!r} ({self.capacity_bits} bits)"
            )
        if bundle.bundle_id in self._bundles:
            raise CustodyError(
                f"bundle {bundle.bundle_id} already in custody at {self.node!r}"
            )
        evicted: List[CustodyBundle] = []
        occupancy = self.occupancy_bits
        while occupancy + bundle.key_bits > self.capacity_bits:
            victim_id = min(
                self._bundles,
                key=lambda bid: (self._bundles[bid].expires_at, bid),
            )
            victim = self._bundles.pop(victim_id)
            occupancy -= victim.key_bits
            self.stats.bundles_evicted += 1
            self.stats.bits_evicted += victim.key_bits
            evicted.append(victim)
        self._bundles[bundle.bundle_id] = bundle
        self.stats.bundles_banked += 1
        self.stats.bits_banked += bundle.key_bits
        occupancy += bundle.key_bits
        if occupancy > self.stats.occupancy_peak_bits:
            self.stats.occupancy_peak_bits = occupancy
        return evicted

    def remove(self, bundle_id: int) -> CustodyBundle:
        """Release custody of one bundle (it moved on, was purged, ...)."""
        try:
            return self._bundles.pop(bundle_id)
        except KeyError:
            raise CustodyError(
                f"bundle {bundle_id} is not in custody at {self.node!r}"
            ) from None

    def take_expired(self, now: float) -> List[CustodyBundle]:
        """Remove and return every bundle past its expiry, in id order."""
        expired = [
            self._bundles.pop(bid)
            for bid in self.bundle_ids()
            if self._bundles[bid].expired_by(now)
        ]
        for bundle in expired:
            self.stats.bundles_expired += 1
            self.stats.bits_expired += bundle.key_bits
        return expired

    def __repr__(self) -> str:
        return (
            f"CustodyStore({self.node!r}: {len(self._bundles)} bundles, "
            f"{self.occupancy_bits}/{self.capacity_bits} bits)"
        )


__all__ = [
    "DELIVERED",
    "EVICTED",
    "EXPIRED",
    "CustodyBundle",
    "CustodyError",
    "CustodyStore",
    "CustodyStoreStats",
]
