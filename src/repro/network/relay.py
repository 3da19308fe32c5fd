"""Trusted-relay key transport (the "key transport network" of section 8).

"After relays have established pairwise agreed-to keys along an end-to-end
point ... they may employ these key pairs to securely transport a key 'hop by
hop' from one endpoint to the other, being onetime-pad encrypted and decrypted
with each pairwise key as it proceeds from one relay to the next.  In this
approach, the end-to-end key will appear in the clear within the relays'
memories proper, but will always be encrypted when passing across a link."

The model keeps a per-link pairwise key pool (filled at the link's estimated
secret-key rate) and transports end-to-end keys along routed paths, consuming
pad from every hop and recording which relays held the key in the clear — the
trust exposure the paper identifies as the architecture's prime weakness.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.otp import OneTimePad, PadExhaustedError
from repro.network.routing import PathSelector, RoutingError, frozen_within
from repro.network.topology import NodeKind, QKDNetwork
from repro.runtime.farm import resolve_workers
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

if TYPE_CHECKING:  # imported lazily at runtime; custody is opt-in
    from repro.dtn.transport import CustodyTransport


@dataclass
class KeyTransportResult:
    """Outcome of transporting one end-to-end key across the relay mesh."""

    success: bool
    path: List[str] = field(default_factory=list)
    key: Optional[BitString] = None
    #: Relays that held the key in the clear (the trust exposure).
    relays_exposed: List[str] = field(default_factory=list)
    #: Pairwise key bits consumed per hop.
    pad_bits_consumed: int = 0
    failure_reason: str = ""
    rerouted: bool = False
    #: The hop (node pair) whose pairwise key ran out, when that was the cause.
    failed_hop: Optional[Tuple[str, str]] = None
    #: Set when the key was banked with the custody layer instead of failing
    #: outright (see :meth:`TrustedRelayNetwork.enable_custody`).
    custody_accepted: bool = False
    #: The node holding the custody copy nearest the destination (or the
    #: destination itself when custody delivered instantly).
    custodian: Optional[str] = None
    bundle_id: Optional[int] = None


def weak_callback(callback: Callable) -> Callable[[], Optional[Callable]]:
    """A reference to ``callback`` that does not keep a bound method's
    object alive: calling it returns ``callback``, or ``None`` once that
    object is gone.  Any other callable (a function, a builtin method such
    as ``list.append``) is held strongly."""
    if inspect.ismethod(callback):
        return weakref.WeakMethod(callback)
    return lambda: callback


def _pad_key(node_a: str, node_b: str) -> Tuple[str, str]:
    return tuple(sorted((node_a, node_b)))


class PairwisePads(dict):
    """A mesh's pairwise one-time pads, keyed by sorted node pair, and the
    subscribers told whenever one's level changes.

    The relay network and its custody layer both spend pad through
    :meth:`cross_hop`, so both hold this rather than each other: the relay
    network owns its custody layer, and a back-reference would make the
    two a reference cycle.

    Pad enters only through :meth:`bank` and leaves only through
    :meth:`cross_hop`.  Both announce the change (the kms scheduler's
    indexed dispatch order is only exact if none goes unannounced) and
    count what they move: the two counters of
    :meth:`TrustedRelayNetwork.conservation_fault`.

    Every link of ``network`` has a pad: one added after these pads were
    made gets an empty one the first time it is looked up.
    """

    def __init__(self, network: QKDNetwork):
        super().__init__(
            (_pad_key(edge.node_a, edge.node_b), OneTimePad()) for edge in network.links()
        )
        self._network = network
        self._listeners: List[Callable[[], Optional[Callable[[Tuple[str, str]], None]]]] = []
        self.bits_banked = 0
        self.bits_spent = 0

    def __missing__(self, key: Tuple[str, str]) -> OneTimePad:
        if not self._network.graph.has_edge(*key):
            raise KeyError(key)
        pad = self[key] = OneTimePad()
        return pad

    def pad_for(self, node_a: str, node_b: str) -> OneTimePad:
        return self[_pad_key(node_a, node_b)]

    def add_listener(self, listener: Callable[[Tuple[str, str]], None]) -> None:
        """See :meth:`TrustedRelayNetwork.add_pad_listener`."""
        self._listeners.append(weak_callback(listener))

    def notify(self, node_a: str, node_b: str) -> None:
        """Call every live listener with the sorted pair; forget dead ones."""
        key = _pad_key(node_a, node_b)
        pruned = False
        for ref in self._listeners:
            listener = ref()
            if listener is None:
                pruned = True
            else:
                listener(key)
        if pruned:
            self._listeners = [ref for ref in self._listeners if ref() is not None]

    def bank(self, node_a: str, node_b: str, material: bytes) -> None:
        """See :meth:`TrustedRelayNetwork.bank_pad`."""
        self.pad_for(node_a, node_b).add_key_material(material)
        self.bits_banked += 8 * len(material)
        self.notify(node_a, node_b)

    def cross_hop(self, node_a: str, node_b: str, payload: bytes) -> Optional[bytes]:
        """See :meth:`TrustedRelayNetwork.cross_hop`."""
        pad = self.pad_for(node_a, node_b)
        if pad.available_bytes < len(payload):
            return None
        hop_pad_bytes = pad.peek(len(payload))
        ciphertext = pad.encrypt(payload)
        self.bits_spent += 8 * len(payload)
        self.notify(node_a, node_b)
        return (
            int.from_bytes(ciphertext, "big") ^ int.from_bytes(hop_pad_bytes, "big")
        ).to_bytes(len(payload), "big")


def sequential_pad_material(rng: DeterministicRNG, n_bytes: int) -> bytes:
    """``n_bytes`` of pad from ``rng``'s own stream in one draw.

    Byte ``i`` is the top byte of the ``i``-th 32-bit Mersenne Twister
    word, and exactly ``n_bytes`` words are consumed: the same bytes, and
    the same generator state after, as one ``getrandbits(8)`` per byte
    (CPython fills ``getrandbits(32 n)`` with n words, least significant
    first, and ``getrandbits(8)`` is one word's top byte).
    """
    return rng.getrandbits(32 * n_bytes).to_bytes(4 * n_bytes, "little")[3::4]


def pad_material_from_seed(job: Tuple[int, int]) -> bytes:
    """Pairwise pad material for one link, from its own labeled stream.

    ``job`` is ``(seed, n_bytes)``.  Both this module's labeled refill and
    the kms replenishment scheduler's analytic epochs call it; the two must
    bank byte-identical material for a given labeled seed, so there is
    exactly one implementation.
    """
    seed, n_bytes = job
    if n_bytes <= 0:
        return b""
    rng = DeterministicRNG(seed)
    return rng.getrandbits(8 * n_bytes).to_bytes(n_bytes, "big")


class TrustedRelayNetwork:
    """Key transport over a mesh of trusted relays."""

    def __init__(
        self,
        network: QKDNetwork,
        rng: Optional[DeterministicRNG] = None,
    ):
        self.network = network
        self.rng = rng or DeterministicRNG(0)
        self.selector = PathSelector(network)
        #: Pairwise one-time-pad pools per link, keyed by a sorted node pair,
        #: and the pad-level listeners (see :meth:`add_pad_listener`).
        self.pairwise_pads = PairwisePads(network)
        #: Every transport attempt, in order, each without its key: the key
        #: is the caller's, and a log that held it would keep every delivered
        #: key alive in the clear for the mesh's life.
        self.transports: List[KeyTransportResult] = []
        #: Opt-in disruption tolerance (see :meth:`enable_custody`).
        self.custody: Optional["CustodyTransport"] = None
        #: Counts parallel refills so each one derives fresh per-link streams.
        self._refill_epoch = 0

    @classmethod
    def for_mesh(
        cls,
        n_endpoints: int = 4,
        n_relays: int = 4,
        link_length_km: float = 10.0,
        rng: Optional[DeterministicRNG] = None,
        prefill_seconds: float = 0.0,
        workers: Optional[int] = None,
    ) -> "TrustedRelayNetwork":
        """Build a metro-style relay mesh and its key-transport layer in one
        call (the assembly the examples and the :mod:`repro.api` facade use).

        ``prefill_seconds`` optionally lets every link distill pairwise key
        before the network is handed back, so it is immediately usable;
        ``workers`` is passed to that prefill as its stream selector (see
        :meth:`run_links_for`, which refuses a NaN, infinite or negative
        duration).  Zero means no prefill.
        """
        rng = rng or DeterministicRNG(0)
        network = QKDNetwork.relay_mesh(
            n_endpoints=n_endpoints,
            n_relays=n_relays,
            link_length_km=link_length_km,
            rng=rng.fork("topology"),
        )
        relays = cls(network, rng=rng.fork("transport"))
        # Zero means no prefill and takes no refill epoch; any other value,
        # NaN and negatives included, goes to run_links_for, which checks it.
        if prefill_seconds != 0:
            relays.run_links_for(prefill_seconds, workers=workers)
        return relays

    # ------------------------------------------------------------------ #
    # Pairwise key replenishment
    # ------------------------------------------------------------------ #

    def pad_for(self, node_a: str, node_b: str) -> OneTimePad:
        return self.pairwise_pads.pad_for(node_a, node_b)

    def add_pad_listener(self, listener: Callable[[Tuple[str, str]], None]) -> None:
        """Subscribe to pad-level changes: ``listener`` is called with a
        sorted node pair whenever that link's pad is consumed or banked —
        the hook the kms scheduler's lazy-deletion heap rides so it never
        has to rescan all links.

        A bound method is held weakly: the network outlives the schedulers
        that subscribe to it, and a subscription must not keep one alive.
        Once its object is freed the listener is skipped and forgotten.
        Any other callable (a function, ``list.append``) is held strongly.
        """
        self.pairwise_pads.add_listener(listener)

    def bank_pad(self, node_a: str, node_b: str, material: bytes) -> None:
        """Add pairwise pad material to one link and announce the change."""
        if material:
            self.pairwise_pads.bank(node_a, node_b, material)

    def run_links_for(self, seconds: float, workers: Optional[int] = None) -> None:
        """Let every usable link distill pairwise key for ``seconds`` seconds.

        The amount added per link is its analytic secret-key rate times the
        duration — the steady-state behaviour of each link's protocol engine
        without Monte-Carlo cost, which is what the network-scale experiments
        need.

        ``workers`` selects the stream the material is drawn from, nothing
        else (no pool runs either way).  ``None``: the network's single
        sequential stream — links in ``network.links()`` order, one draw per
        link that gets material, each pad byte the top byte of one 32-bit
        Mersenne Twister word (:func:`sequential_pad_material`; byte for byte
        what one ``getrandbits(8)`` per byte drew).  Any worker count: every
        link's material comes from its own labeled fork
        (``pad/<epoch>/<node-a>--<node-b>``), applied in link order — the
        result depends only on the network seed, the refill epoch and the
        link names, never on the count.  Both streams are pinned, so both
        stay.

        ``seconds`` must be finite and non-negative on either stream; NaN,
        an infinity or a negative duration raises :class:`ValueError`
        before any link is touched.
        """
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ValueError(f"duration must be finite and non-negative, got {seconds}")
        if workers is None:
            for edge in self.network.links():
                if not edge.usable:
                    continue
                new_bytes = int(edge.secret_key_rate_bps * seconds) // 8
                if new_bytes <= 0:
                    continue
                material = sequential_pad_material(self.rng, new_bytes)
                self.bank_pad(edge.node_a, edge.node_b, material)
            return

        resolve_workers(workers)
        epoch = self._refill_epoch
        self._refill_epoch += 1
        for edge in self.network.links():
            if not edge.usable:
                continue
            new_bytes = int(edge.secret_key_rate_bps * seconds) // 8
            if new_bytes <= 0:
                continue
            node_a, node_b = _pad_key(edge.node_a, edge.node_b)
            seed = self.rng.fork_labeled(f"pad/{epoch}/{node_a}--{node_b}").seed
            self.bank_pad(node_a, node_b, pad_material_from_seed((seed, new_bytes)))

    def pairwise_key_available_bits(self, node_a: str, node_b: str) -> int:
        return self.pad_for(node_a, node_b).available_bytes * 8

    def conservation_fault(self) -> Optional[str]:
        """``None`` while every pad bit banked (prefill, refills,
        :meth:`bank_pad`) is still resident in a pad or was spent as hop pad
        by :meth:`cross_hop` — for a live transport or a custody hop alike;
        otherwise the relay layer's numbers.  A pad belongs to its node pair,
        not to the link edge, so re-adding a link keeps its pad."""
        pads = self.pairwise_pads
        resident = 8 * sum(pad.available_bytes for pad in pads.values())
        if pads.bits_banked == resident + pads.bits_spent:
            return None
        return (
            f"relays: {pads.bits_banked} pad bits banked, {resident} resident,"
            f" {pads.bits_spent} spent as hop pad"
        )

    # ------------------------------------------------------------------ #
    # Disruption tolerance (opt-in)
    # ------------------------------------------------------------------ #

    def enable_custody(
        self,
        rng: Optional[DeterministicRNG] = None,
        policy: str = "scheduled",
        ttl_seconds: float = 3600.0,
        capacity_bits: int = 1 << 20,
    ) -> "CustodyTransport":
        """Attach a store-and-forward custody layer to this mesh.

        Once enabled, :meth:`transport_with_reroute` no longer fails a key
        outright when the mesh offers no live path: the key is banked at
        the furthest reachable custodian and forwarded as links come back
        (live mode, see :mod:`repro.dtn`).  Custody randomness comes from
        ``rng``'s labeled streams (``dtn/bundle/<n>``), never from this
        network's own stream, so enabling custody does not perturb
        live-transport key material.
        """
        from repro.dtn.transport import CustodyTransport

        self.custody = CustodyTransport(
            self,
            rng=rng or DeterministicRNG(0),
            policy=policy,
            ttl_seconds=ttl_seconds,
            capacity_bits=capacity_bits,
        )
        return self.custody

    # ------------------------------------------------------------------ #
    # End-to-end key transport
    # ------------------------------------------------------------------ #

    def cross_hop(self, node_a: str, node_b: str, payload: bytes) -> Optional[bytes]:
        """Carry ``payload`` across one link — the only code that spends
        pairwise pad.  It is OTP-encrypted onto the wire and decrypted at the
        far end with the same pad bytes (both ends hold identical pools; the
        model keeps one), and the pad change is announced.  Returns what
        arrives, or ``None`` — consuming and announcing nothing — when the
        pool cannot cover the payload.
        """
        return self.pairwise_pads.cross_hop(node_a, node_b, payload)

    def preferred_path(
        self, source: str, destination: str, within: Optional[Iterable[str]] = None
    ) -> List[str]:
        """The path routing would pick from ``source`` to ``destination`` now
        (empty when there is none)."""
        try:
            return self.selector.find_path(source, destination, within=within)
        except RoutingError:
            return []

    def transport_key(
        self,
        source: str,
        destination: str,
        key_bits: int = 256,
        within: Optional[Iterable[str]] = None,
    ) -> KeyTransportResult:
        """Deliver a fresh end-to-end key from ``source`` to ``destination``.

        The key is generated at the source, then one-time-pad wrapped across
        each hop in turn; every intermediate relay decrypts and re-encrypts
        it, so it appears in the relay's memory in the clear.  Any hop whose
        pairwise pool cannot cover the key aborts the transport.  ``within``
        confines routing to a node subset (zone-scoped transport).
        """
        if key_bits <= 0 or key_bits % 8:
            raise ValueError("key length must be a positive multiple of 8 bits")
        try:
            path = self.selector.find_path(source, destination, within=within)
        except RoutingError as exc:
            result = KeyTransportResult(success=False, failure_reason=str(exc))
            self.transports.append(result)
            return result

        key = BitString.random(key_bits, self.rng)
        result = KeyTransportResult(success=False, path=path)
        # Walk the path hop by hop; whatever arrives at the far end of one
        # hop is what crosses the next.
        in_flight = key.to_bytes()
        for node_a, node_b in zip(path, path[1:]):
            arrived = self.cross_hop(node_a, node_b, in_flight)
            if arrived is None:
                result.failed_hop = (node_a, node_b)
                result.failure_reason = (
                    f"pairwise key exhausted on hop {node_a}--{node_b} "
                    f"({self.pad_for(node_a, node_b).available_bytes} bytes available)"
                )
                break
            result.pad_bits_consumed += len(in_flight) * 8
            in_flight = arrived
            if self.network.node(node_b).kind is NodeKind.TRUSTED_RELAY:
                result.relays_exposed.append(node_b)
        else:
            result.success, result.key = True, key
        self.transports.append(dataclasses.replace(result, key=None))
        return result

    def transport_with_reroute(
        self,
        source: str,
        destination: str,
        key_bits: int = 256,
        now: float = 0.0,
        within: Optional[Iterable[str]] = None,
    ) -> KeyTransportResult:
        """Transport a key, falling back to alternative paths on failure.

        This is the resilience property the mesh buys: if the preferred path
        fails (cut link, eavesdropping, exhausted pairwise key), the transport
        is retried over whatever usable capacity remains.  With custody
        enabled (:meth:`enable_custody`) there is a second fallback: a key
        that cannot move end to end *now* is banked at the furthest
        reachable custodian and store-and-forwarded as contacts open —
        ``now`` timestamps the custody submission.  ``within`` confines
        routing, every retry and a custody bundle's copies to a node subset.
        """
        within = frozen_within(within)
        first = self.transport_key(source, destination, key_bits, within=within)
        if first.success:
            return first

        # Temporarily exclude hops whose pairwise key is exhausted and retry
        # over whatever capacity remains; restore the exclusions afterwards
        # (an exhausted hop is not broken, it is merely out of key for now).
        excluded: List[Tuple[str, str]] = []
        last = first
        try:
            while last.failed_hop is not None:
                node_a, node_b = last.failed_hop
                link = self.network.link(node_a, node_b)
                if not link.operational:
                    break
                self.network.suspend_link(node_a, node_b)
                excluded.append((node_a, node_b))
                retry = self.transport_key(source, destination, key_bits, within=within)
                if retry.success:
                    retry.rerouted = self.transports[-1].rerouted = True
                    return retry
                last = retry
        finally:
            for node_a, node_b in excluded:
                self.network.resume_link(node_a, node_b)

        last.failure_reason += " (no usable alternative path)"
        if self.custody is not None:
            custody_result = self._bank_in_custody(
                source, destination, key_bits, now, last, within
            )
            if custody_result is not None:
                return custody_result
        return last

    def _bank_in_custody(
        self,
        source: str,
        destination: str,
        key_bits: int,
        now: float,
        failed: KeyTransportResult,
        within: Optional[frozenset],
    ) -> Optional[KeyTransportResult]:
        """Bank a key the live mesh could not move, its copies confined
        ``within`` as the transport was; ``None`` when even custody cannot
        help (statically disconnected destination)."""
        from repro.dtn.store import DELIVERED

        try:
            bundle = self.custody.submit(source, destination, key_bits, now, within)
        except RoutingError:
            return None
        if bundle.state == DELIVERED:
            # Custody's hop-by-hop forwarding found a way through after all
            # (e.g. contacts opened between the routing decision and now).
            return KeyTransportResult(
                success=True,
                key=bundle.key,
                pad_bits_consumed=bundle.pad_bits_consumed,
                rerouted=True,
                custody_accepted=True,
                custodian=destination,
                bundle_id=bundle.bundle_id,
            )
        locations = self.custody.locations(bundle)
        custodian = min(
            locations,
            key=lambda node: (
                self.custody.static_distance(node, destination),
                node,
            ),
        )
        return KeyTransportResult(
            success=False,
            failure_reason=(
                failed.failure_reason
                + f"; banked in custody as bundle {bundle.bundle_id} "
                f"at {custodian!r}"
            ),
            pad_bits_consumed=bundle.pad_bits_consumed,
            custody_accepted=True,
            custodian=custodian,
            bundle_id=bundle.bundle_id,
        )

    # ------------------------------------------------------------------ #
    # Path-pad accounting (zoned kms delivery)
    # ------------------------------------------------------------------ #

    def path_pad_shortage(
        self, paths: Sequence[Sequence[str]], n_bytes: int
    ) -> Optional[Tuple[str, str]]:
        """The first hop (across all ``paths``) that cannot cover ``n_bytes``
        of pad, or ``None`` when every hop can — the all-or-nothing precheck
        for a segmented (trunk + zone legs) delivery."""
        for path in paths:
            for node_a, node_b in zip(path, path[1:]):
                if self.pad_for(node_a, node_b).available_bytes < n_bytes:
                    return _pad_key(node_a, node_b)
        return None

    def spend_path_pad(self, paths: Sequence[Sequence[str]], payload: bytes) -> int:
        """Carry ``payload`` across every hop of the given paths (one
        :meth:`cross_hop` each, exactly as live transport does), returning
        the total pad bits consumed.

        The caller prechecks with :meth:`path_pad_shortage`; the zoned kms
        uses this for the intra-zone legs of an inter-zone delivery, whose
        key material comes from a trunk store rather than a fresh draw.
        """
        consumed = 0
        for path in paths:
            for node_a, node_b in zip(path, path[1:]):
                if self.cross_hop(node_a, node_b, payload) is None:
                    raise PadExhaustedError(
                        f"pairwise key exhausted on hop {node_a}--{node_b}"
                    )
                consumed += len(payload) * 8
        return consumed
