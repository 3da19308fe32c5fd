"""The QKD-keyed VPN gateway (paper Figs 2, 10, 11).

A :class:`VPNGateway` is one of the "cryptographic gateways" at the edge of a
private enclave: plaintext ("red") traffic enters, the Security Policy
Database decides how it must be protected, the gateway finds or negotiates a
Security Association for it, and ESP processing emits protected ("black")
traffic toward the peer gateway.  Key material for the SAs comes from the
gateway's QKD key pool through the IKE daemon's QKD extension.

:class:`GatewayPair` wires two gateways together back-to-back (with the same
synchronised key pools a real QKD link delivers to both ends) and gives the
examples and benchmarks a single object that can push traffic through the
tunnel, advance simulated time, and trigger key rollover — the complete
"VPN between private enclaves, with user traffic protected by ... quantum
cryptography" of the paper's abstract.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.core.keypool import KeyPool
from repro.ipsec.esp import EspError, EspProcessor
from repro.ipsec.ike import IKEConfig, IKEDaemon, NegotiationError
from repro.ipsec.packets import ESPPacket, IPPacket
from repro.ipsec.sad import SecurityAssociation, SecurityAssociationDatabase
from repro.ipsec.spd import PolicyAction, SecurityPolicy, SecurityPolicyDatabase
from repro.sim.clock import SimClock
from repro.util.rng import DeterministicRNG


@dataclass
class GatewayStatistics:
    """Traffic and key accounting for one gateway."""

    packets_sent: int = 0
    packets_received: int = 0
    packets_bypassed: int = 0
    packets_discarded: int = 0
    bytes_protected: int = 0
    negotiations: int = 0
    negotiation_failures: int = 0
    rollovers: int = 0
    decryption_failures: int = 0


class VPNGateway:
    """One enclave-edge cryptographic gateway."""

    def __init__(
        self,
        name: str,
        address: str,
        peer_address: str,
        key_pool: KeyPool,
        clock: Optional[SimClock] = None,
        rng: Optional[DeterministicRNG] = None,
    ):
        self.name = name
        self.address = address
        self.peer_address = peer_address
        self.key_pool = key_pool
        self.clock = clock or SimClock()
        self.rng = rng or DeterministicRNG(0)

        self.spd = SecurityPolicyDatabase()
        self.sad = SecurityAssociationDatabase()
        self.ike = IKEDaemon(
            IKEConfig(gateway_name=name, address=address, peer_address=peer_address),
            key_pool=key_pool,
            sad=self.sad,
            rng=self.rng.fork("ike"),
        )
        self.esp = EspProcessor(self.rng.fork("esp"))
        self.statistics = GatewayStatistics()
        self._peer: Optional["weakref.ref[VPNGateway]"] = None

    # ------------------------------------------------------------------ #
    # Wiring and policy
    # ------------------------------------------------------------------ #

    @property
    def peer(self) -> Optional["VPNGateway"]:
        """The gateway at the far end of the tunnel (``None`` until
        :meth:`connect_peer`, or once it is gone).

        Each side holds the other weakly — whoever wires the two (a
        :class:`GatewayPair`) owns both — so a connected pair is no
        reference cycle and is freed as soon as its owner drops it.
        """
        return None if self._peer is None else self._peer()

    def connect_peer(self, peer: "VPNGateway") -> None:
        self._peer = weakref.ref(peer)
        peer._peer = weakref.ref(self)

    def add_policy(self, policy: SecurityPolicy) -> None:
        self.spd.add(policy)

    # ------------------------------------------------------------------ #
    # Key management
    # ------------------------------------------------------------------ #

    def establish_control_channel(self) -> None:
        """Run IKE Phase 1 with the peer gateway."""
        peer = self.peer
        if peer is None:
            raise RuntimeError("gateway has no peer connected")
        self.ike.establish_phase1(peer.ike, now=self.clock.now())

    def _ensure_outbound_sa(self, policy: SecurityPolicy) -> SecurityAssociation:
        """Find a live outbound SA for the policy, negotiating one if needed."""
        peer = self.peer
        if peer is None:
            raise RuntimeError("gateway has no peer connected")
        now = self.clock.now()
        sa = self.sad.outbound_sa(self.name, peer.name, now, policy_name=policy.name)
        if sa is not None and not sa.expired(now):
            return sa
        # Retire anything stale on both ends, then negotiate afresh.
        retired_here = self.sad.retire_expired(now)
        peer.sad.retire_expired(now)
        if retired_here:
            self.statistics.rollovers += 1
        try:
            outbound, _inbound = self.ike.negotiate_phase2(peer.ike, policy, now=now)
        except NegotiationError:
            self.statistics.negotiation_failures += 1
            raise
        self.statistics.negotiations += 1
        return outbound

    def rekey_now(self, policy_name: str) -> SecurityAssociation:
        """Force an immediate rollover for a policy (used by the rekey timer)."""
        peer = self.peer
        if peer is None:
            raise RuntimeError("gateway has no peer connected")
        policy = self.spd.policy_by_name(policy_name)
        now = self.clock.now()
        for sa in list(self.sad.by_spi.values()):
            if sa.policy_name == policy.name:
                self.sad.retire(sa.spi)
        for sa in list(peer.sad.by_spi.values()):
            if sa.policy_name == policy.name:
                peer.sad.retire(sa.spi)
        self.statistics.rollovers += 1
        outbound, _ = self.ike.negotiate_phase2(peer.ike, policy, now=now)
        self.statistics.negotiations += 1
        return outbound

    # ------------------------------------------------------------------ #
    # Traffic path
    # ------------------------------------------------------------------ #

    def send(self, packet: IPPacket) -> Optional[ESPPacket]:
        """Process an outbound plaintext packet from the red side.

        Returns the ESP packet placed on the black network (or None for
        bypassed/discarded traffic).
        """
        policy = self.spd.lookup(packet.source, packet.destination)
        if policy is None or policy.action is PolicyAction.DISCARD:
            self.statistics.packets_discarded += 1
            return None
        if policy.action is PolicyAction.BYPASS:
            self.statistics.packets_bypassed += 1
            return None

        sa = self._ensure_outbound_sa(policy)
        esp = self.esp.encapsulate(packet, sa, self.address, self.peer_address)
        self.statistics.packets_sent += 1
        self.statistics.bytes_protected += len(packet.payload)
        return esp

    def receive(self, esp: ESPPacket) -> IPPacket:
        """Process an inbound ESP packet from the black side."""
        sa = self.sad.lookup_spi(esp.spi)
        if sa is None:
            self.statistics.decryption_failures += 1
            raise EspError(f"no SA installed for SPI 0x{esp.spi:08x}")
        try:
            packet = self.esp.decapsulate(esp, sa)
        except EspError:
            self.statistics.decryption_failures += 1
            raise
        self.statistics.packets_received += 1
        return packet

    def __repr__(self) -> str:
        return (
            f"VPNGateway({self.name}, SAs={self.sad.active_count}, "
            f"sent={self.statistics.packets_sent}, key={self.key_pool.available_bits} bits)"
        )


class GatewayPair:
    """Two gateways joined by both a QKD link's key pools and a black network."""

    def __init__(
        self,
        alice_pool: KeyPool,
        bob_pool: KeyPool,
        clock: Optional[SimClock] = None,
        rng: Optional[DeterministicRNG] = None,
        alice_name: str = "alice-gw",
        bob_name: str = "bob-gw",
        alice_address: str = "192.1.99.34",
        bob_address: str = "192.1.99.35",
    ):
        self.clock = clock or SimClock()
        rng = rng or DeterministicRNG(0)
        self.alice = VPNGateway(
            alice_name, alice_address, bob_address, alice_pool, self.clock, rng.fork("alice")
        )
        self.bob = VPNGateway(
            bob_name, bob_address, alice_address, bob_pool, self.clock, rng.fork("bob")
        )
        self.alice.connect_peer(self.bob)

    @classmethod
    def from_engine(
        cls,
        engine,
        clock: Optional[SimClock] = None,
        rng: Optional[DeterministicRNG] = None,
        **kwargs,
    ) -> "GatewayPair":
        """Wire a gateway pair onto a QKD protocol engine's two key pools.

        ``engine`` is a :class:`repro.core.engine.QKDProtocolEngine` (typed
        loosely to keep this module independent of the engine); its Alice and
        Bob pools become the gateways' key sources, which is exactly the
        paper's "VPN / OPC interface" hand-off.
        """
        return cls(engine.alice_pool, engine.bob_pool, clock=clock, rng=rng, **kwargs)

    # ------------------------------------------------------------------ #

    def add_symmetric_policy(self, policy: SecurityPolicy) -> None:
        """Install the policy at Alice and its mirror image at Bob."""
        self.alice.add_policy(policy)
        mirrored = SecurityPolicy(
            name=f"{policy.name}-reverse",
            source_network=policy.destination_network,
            destination_network=policy.source_network,
            action=policy.action,
            cipher_suite=policy.cipher_suite,
            key_bits=policy.key_bits,
            lifetime_seconds=policy.lifetime_seconds,
            lifetime_kilobytes=policy.lifetime_kilobytes,
            qkd_bits_per_rekey=policy.qkd_bits_per_rekey,
        )
        self.bob.add_policy(mirrored)

    def establish(self) -> None:
        """Bring up the control channel (IKE Phase 1) between the gateways."""
        self.alice.establish_control_channel()

    def transmit(self, packet: IPPacket, from_alice: bool = True) -> Optional[IPPacket]:
        """Push one packet through the tunnel and return what the far side delivered."""
        sender = self.alice if from_alice else self.bob
        receiver = self.bob if from_alice else self.alice
        esp = sender.send(packet)
        if esp is None:
            return None
        try:
            return receiver.receive(esp)
        except EspError:
            return None
