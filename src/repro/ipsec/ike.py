"""The IKE daemon with the paper's QKD key-agreement extension.

IKE (RFC 2409) negotiates Security Associations in two phases: Phase 1
establishes an authenticated control channel between the two gateways
("ISAKMP SA"); Phase 2 ("quick mode") negotiates the SAs that actually
protect traffic, deriving their key material (KEYMAT) from a pseudo-random
function keyed by Phase-1 secrets.

The paper's rapid-reseeding extension "include[s] distilled QKD bits into the
IKE Phase 2 hash, so that keys protecting IPsec Security Associations (SAs)
are derived from QKD", and a companion extension negotiates blocks of QKD
bits ("Qblocks") for use as a one-time pad.  Fig 12 of the paper shows the
racoon log of the first negotiation that ever did this; :meth:`IKEDaemon`
emits log lines of the same shape so that experiment E7 can regenerate the
figure's content from a live negotiation.

The model abstracts away wire formats and retransmission; what it keeps is
the negotiation state machine, the Qblock offer/reply accounting against both
ends' key pools, the KEYMAT derivation, SA installation, lifetimes and
rollover, and the failure modes the paper calls out (negotiation timeout when
QKD bits accumulate too slowly; undetected key mismatch when the two pools
have diverged).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.keypool import KeyPool
from repro.crypto.otp import OneTimePad
from repro.crypto.sha1 import hmac_sha1, prf_expand
from repro.ipsec.sad import SecurityAssociation, SecurityAssociationDatabase
from repro.ipsec.spd import QBLOCK_BITS, CipherSuite, NegotiationError, SecurityPolicy
from repro.util.rng import DeterministicRNG

#: Lifetime of the Phase-1 (ISAKMP) SA.
PHASE1_LIFETIME_SECONDS = 3600.0

#: The racoon log keeps its latest lines only, as a rotated syslog does: a
#: daemon that rekeys every minute for as long as it runs must not grow.
LOG_LINES_KEPT = 256


class NegotiationTimeout(NegotiationError):
    """Raised when QKD key accumulates too slowly for the IKE timeout.

    The paper notes that standard IKE Phase-2 timeouts ("less than 10
    seconds") "may be too small for systems employing QKD since it may take a
    while to accumulate enough bits for a successful negotiation".
    """


@dataclass
class IKEConfig:
    """Configuration of one gateway's IKE daemon."""

    gateway_name: str
    address: str
    peer_address: str
    preshared_key: bytes = b"darpa-quantum-network"


@dataclass
class QkdKeyNegotiation:
    """Record of one Phase-2 negotiation's QKD accounting (the Qblock exchange)."""

    negotiation_id: int
    offered_qblocks: int
    granted_qblocks: int
    qkd_bits_used: int
    entropy_bits: float
    keymat_bytes: int
    cipher_suite: CipherSuite
    timed_out: bool = False


@dataclass
class Phase1State:
    """The ISAKMP (control channel) SA between the two daemons."""

    established_at: float
    skeyid: bytes
    lifetime_seconds: float
    initiator: str
    responder: str

    def expired(self, now: float) -> bool:
        return (now - self.established_at) >= self.lifetime_seconds


class IKEDaemon:
    """One gateway's IKE daemon (the modified 'racoon' of the paper)."""

    def __init__(
        self,
        config: IKEConfig,
        key_pool: KeyPool,
        sad: SecurityAssociationDatabase,
        rng: Optional[DeterministicRNG] = None,
    ):
        self.config = config
        self.key_pool = key_pool
        self.sad = sad
        self.rng = rng or DeterministicRNG(0)
        self.phase1: Optional[Phase1State] = None
        #: The latest Phase-2 negotiation this daemon took part in (either
        #: side), and the QKD bits all of them drew from its pool.
        self.last_negotiation: Optional[QkdKeyNegotiation] = None
        self.qkd_bits_consumed = 0
        self.log_lines: Deque[str] = deque(maxlen=LOG_LINES_KEPT)
        self._next_negotiation_id = 1
        self._next_spi = self.rng.randint(0x0100_0000, 0x0FFF_FFFF)

    # ------------------------------------------------------------------ #
    # Logging (racoon-style, so Fig 12 can be regenerated)
    # ------------------------------------------------------------------ #

    def _log(self, source: str, text: str) -> None:
        line = f"{self.config.gateway_name} racoon: INFO: {source}: {text}"
        self.log_lines.append(line)

    # ------------------------------------------------------------------ #
    # Phase 1
    # ------------------------------------------------------------------ #

    def establish_phase1(self, peer: "IKEDaemon", now: float = 0.0) -> Phase1State:
        """Main-mode Phase 1 with pre-shared-key authentication.

        Both daemons must be configured with the same pre-shared key; the
        derived SKEYID keys the Phase-2 PRF on both sides.
        """
        if self.config.preshared_key != peer.config.preshared_key:
            raise NegotiationError("phase 1 failed: pre-shared keys do not match")
        initiator_nonce = self.rng.getrandbits(128).to_bytes(16, "big")
        responder_nonce = peer.rng.getrandbits(128).to_bytes(16, "big")
        skeyid = hmac_sha1(self.config.preshared_key, initiator_nonce + responder_nonce)

        state = Phase1State(
            established_at=now,
            skeyid=skeyid,
            lifetime_seconds=PHASE1_LIFETIME_SECONDS,
            initiator=self.config.gateway_name,
            responder=peer.config.gateway_name,
        )
        self.phase1 = state
        peer.phase1 = state
        self._log(
            "isakmp.c:939:isakmp_ph1begin_i()",
            f"initiate new phase 1 negotiation: {self.config.address}[500]<=>{self.config.peer_address}[500]",
        )
        peer._log(
            "isakmp.c:1046:isakmp_ph1begin_r()",
            f"respond new phase 1 negotiation: {peer.config.address}[500]<=>{peer.config.peer_address}[500]",
        )
        self._log("isakmp.c:2432:log_ph1established()", "ISAKMP-SA established")
        peer._log("isakmp.c:2432:log_ph1established()", "ISAKMP-SA established")
        return state

    # ------------------------------------------------------------------ #
    # Phase 2 with the QKD (Qblock) extension
    # ------------------------------------------------------------------ #

    def _allocate_spi(self) -> int:
        self._next_spi += self.rng.randint(1, 0xFFFF)
        return self._next_spi

    def _qblocks_for_policy(self, policy: SecurityPolicy) -> int:
        """How many Qblocks the initiator offers for one rekey of this policy."""
        blocks = (policy.qkd_bits_per_rekey + QBLOCK_BITS - 1) // QBLOCK_BITS
        return max(blocks, 1)

    def negotiate_phase2(
        self,
        peer: "IKEDaemon",
        policy: SecurityPolicy,
        now: float = 0.0,
    ) -> Tuple[SecurityAssociation, SecurityAssociation]:
        """Run quick mode and install a fresh SA pair (one per direction).

        Both daemons draw the *same number* of bits from their (synchronised)
        key pools, which is how the real extension keeps the two ends keyed
        identically without ever sending key bits over the wire.

        If the pools hold fewer bits than the negotiation needs, it times out
        and raises :class:`NegotiationTimeout`: the caller waits for key and
        retries (the KMS bounds that wait with its rekey timeout).
        """
        if self.phase1 is None or peer.phase1 is None:
            raise NegotiationError("phase 2 attempted before phase 1 is established")
        if self.phase1.expired(now):
            raise NegotiationError("phase 1 SA has expired; renegotiate it first")

        negotiation_id = self._next_negotiation_id
        self._next_negotiation_id += 1

        self._log(
            "isakmp.c:939:isakmp_ph2begin_i()",
            f"initiate new phase 2 negotiation: {self.config.address}[0]<=>{self.config.peer_address}[0]",
        )
        peer._log(
            "isakmp.c:1046:isakmp_ph2begin_r()",
            f"respond new phase 2 negotiation: {peer.config.address}[0]<=>{peer.config.peer_address}[0]",
        )

        use_qkd = policy.cipher_suite is not CipherSuite.AES_CLASSICAL
        if use_qkd:
            peer._log(
                "proposal.c:1023:set_proposal_from_policy()",
                "RESPONDER setting QPFS encmodesv 1",
            )

        # ---- Qblock offer / reply -------------------------------------- #
        offered_qblocks = self._qblocks_for_policy(policy) if use_qkd else 0
        needed_bits = offered_qblocks * QBLOCK_BITS
        if policy.cipher_suite is CipherSuite.ONE_TIME_PAD:
            # An OTP SA additionally needs pad material proportional to the
            # traffic it will protect before the next rollover; the policy's
            # Qblock request already sizes that.
            needed_bits = max(needed_bits, policy.qkd_bits_per_rekey)

        if use_qkd:
            shortfall = max(
                needed_bits - min(self.key_pool.available_bits, peer.key_pool.available_bits),
                0,
            )
            if shortfall > 0:
                negotiation = QkdKeyNegotiation(
                    negotiation_id=negotiation_id,
                    offered_qblocks=offered_qblocks,
                    granted_qblocks=0,
                    qkd_bits_used=0,
                    entropy_bits=0.0,
                    keymat_bytes=0,
                    cipher_suite=policy.cipher_suite,
                    timed_out=True,
                )
                self._record(peer, negotiation)
                self._log(
                    "isakmp.c:1766:isakmp_ph2expire()",
                    "phase 2 negotiation failed: not enough QKD key material before timeout",
                )
                raise NegotiationTimeout(
                    f"needed {needed_bits} QKD bits, short by {shortfall}"
                )

            granted_qblocks = offered_qblocks
            qkd_bits = self.key_pool.draw_bits(needed_bits)
            peer_bits = peer.key_pool.draw_bits(needed_bits)
            peer._log(
                "bbn-qkd-qpd.c:1047:qke_create_reply()",
                f"reply {granted_qblocks} Qblocks {QBLOCK_BITS} bits "
                f"{float(needed_bits):.6f} entropy (offer is {offered_qblocks} Qblocks)",
            )
        else:
            granted_qblocks = 0
            qkd_bits = None
            peer_bits = None

        # ---- Nonces and KEYMAT derivation -------------------------------- #
        initiator_nonce = self.rng.getrandbits(128).to_bytes(16, "big")
        responder_nonce = peer.rng.getrandbits(128).to_bytes(16, "big")
        spi_out = self._allocate_spi()
        spi_in = peer._allocate_spi()

        keymat_bytes = policy.key_bits // 8 + 20  # cipher key + HMAC-SHA1 key
        if policy.cipher_suite is CipherSuite.ONE_TIME_PAD:
            keymat_bytes = 20  # only an integrity key; confidentiality is the pad

        # KEYMAT is a pure function of (SKEYID, seed), and while the two pools
        # are in step the peer's two derivations have the local two's inputs
        # byte for byte — so each distinct input is expanded once per
        # negotiation: two seeds when synchronised, four when the pools have
        # diverged.  The seeds are equally long and differ only in QBITS and
        # SPI, so one ``prf_expand`` per SKEYID expands them in lock-step.
        def keymat_input(skeyid: bytes, qkd_material, spi: int) -> Tuple[bytes, bytes]:
            seed = (
                (qkd_material.to_bytes() if qkd_material is not None else b"")
                + initiator_nonce
                + responder_nonce
                + spi.to_bytes(4, "big")
            )
            return skeyid, seed

        inputs = [
            keymat_input(self.phase1.skeyid, qkd_bits, spi_out),
            keymat_input(peer.phase1.skeyid, peer_bits, spi_out),
            keymat_input(self.phase1.skeyid, qkd_bits, spi_in),
            keymat_input(peer.phase1.skeyid, peer_bits, spi_in),
        ]
        seeds_by_skeyid: Dict[bytes, List[bytes]] = {}
        for skeyid, seed in dict.fromkeys(inputs):
            seeds_by_skeyid.setdefault(skeyid, []).append(seed)
        derived: Dict[Tuple[bytes, bytes], bytes] = {}
        for skeyid, seeds in seeds_by_skeyid.items():
            for seed, keymat in zip(seeds, prf_expand(skeyid, tuple(seeds), keymat_bytes)):
                derived[skeyid, seed] = keymat
        keymat_out_local, keymat_out_peer, keymat_in_local, keymat_in_peer = (
            derived[each] for each in inputs
        )

        if use_qkd:
            for daemon in (self, peer):
                daemon._log(
                    "oakley.c:473:oakley_compute_keymat_x()",
                    f"KEYMAT using {needed_bits // 8} bytes QBITS",
                )

        # A real deployment has no way to compare keymat directly; if the two
        # pools have diverged the SAs silently disagree and traffic fails
        # until rollover (the IKE blind spot the paper describes).  The model
        # preserves that behaviour by installing whatever each side derived.
        key_bits = policy.key_bits

        def split_pad_material(bits):
            """Halve the negotiated bits: one pad per traffic direction.

            Pad material may never be reused, so the two directions of the
            tunnel each get their own half of the negotiated Qblocks.
            """
            if bits is None:
                return None, None
            midpoint = (len(bits) // 2 // 8) * 8  # byte-align the split
            return bits[:midpoint], bits[midpoint:]

        local_pad_out, local_pad_in = split_pad_material(qkd_bits)
        peer_pad_out, peer_pad_in = split_pad_material(peer_bits)

        def build_sa(
            spi: int, source: str, destination: str, keymat: bytes, pad_bits
        ) -> SecurityAssociation:
            pad = None
            if policy.cipher_suite is CipherSuite.ONE_TIME_PAD:
                pad = OneTimePad(pad_bits.to_bytes() if pad_bits is not None else b"")
            return SecurityAssociation(
                spi=spi,
                source_gateway=source,
                destination_gateway=destination,
                cipher_suite=policy.cipher_suite,
                encryption_key=keymat[: key_bits // 8],
                authentication_key=keymat[-20:],
                created_at=now,
                lifetime_seconds=policy.lifetime_seconds,
                lifetime_kilobytes=policy.lifetime_kilobytes,
                pad=pad,
                negotiation_id=negotiation_id,
                policy_name=policy.name,
            )

        sa_outbound_local = build_sa(
            spi_out, self.config.gateway_name, peer.config.gateway_name, keymat_out_local, local_pad_out
        )
        sa_outbound_peer = build_sa(
            spi_out, self.config.gateway_name, peer.config.gateway_name, keymat_out_peer, peer_pad_out
        )
        sa_inbound_local = build_sa(
            spi_in, peer.config.gateway_name, self.config.gateway_name, keymat_in_local, local_pad_in
        )
        sa_inbound_peer = build_sa(
            spi_in, peer.config.gateway_name, self.config.gateway_name, keymat_in_peer, peer_pad_in
        )

        self.sad.install(sa_outbound_local)
        self.sad.install(sa_inbound_local)
        peer.sad.install(sa_outbound_peer)
        peer.sad.install(sa_inbound_peer)

        for daemon, outbound, inbound in (
            (self, sa_outbound_local, sa_inbound_local),
            (peer, sa_outbound_peer, sa_inbound_peer),
        ):
            daemon._log(
                "pfkey.c:1107:pk_recvupdate()",
                f"IPsec-SA established: ESP/Tunnel {self.config.address}->{self.config.peer_address} "
                f"spi={outbound.spi}(0x{outbound.spi:x})",
            )
            daemon._log(
                "pfkey.c:1319:pk_recvadd()",
                f"IPsec-SA established: ESP/Tunnel {self.config.peer_address}->{self.config.address} "
                f"spi={inbound.spi}(0x{inbound.spi:x})",
            )

        negotiation = QkdKeyNegotiation(
            negotiation_id=negotiation_id,
            offered_qblocks=offered_qblocks,
            granted_qblocks=granted_qblocks,
            qkd_bits_used=needed_bits if use_qkd else 0,
            entropy_bits=float(needed_bits if use_qkd else 0),
            keymat_bytes=keymat_bytes,
            cipher_suite=policy.cipher_suite,
        )
        self._record(peer, negotiation)
        return sa_outbound_local, sa_inbound_local

    def _record(self, peer: "IKEDaemon", negotiation: QkdKeyNegotiation) -> None:
        """Account one negotiation on both daemons (a timed-out one drew nothing)."""
        for daemon in (self, peer):
            daemon.last_negotiation = negotiation
            daemon.qkd_bits_consumed += negotiation.qkd_bits_used

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return f"IKEDaemon({self.config.gateway_name}, qkd_bits={self.qkd_bits_consumed})"
