"""Security Associations and the SAD.

A Security Association (SA) is a one-way agreement between the two gateways:
an SPI, a cipher suite, key material, and a lifetime.  "Every security
association has a maximum lifetime which governs how long the key material
for that association can be used.  This lifetime can be expressed either in
time (seconds) or in data encrypted (kilobytes) ...  Every time the lifetime
expires, a new security association must be negotiated and it will bring with
it fresh key material.  This is sometimes termed 'key rollover'." (paper §7)

For one-time-pad SAs the "key material" is a dedicated pad pool that both
gateways fill from negotiated QKD bits; the SA is also exhausted (and must
roll over) when the pad runs out, which the gateway benchmarks exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.otp import OneTimePad
from repro.crypto.sha1 import HmacSha1
from repro.ipsec.spd import CipherSuite


@dataclass
class SecurityAssociation:
    """One unidirectional SA."""

    spi: int
    source_gateway: str
    destination_gateway: str
    cipher_suite: CipherSuite
    encryption_key: bytes = b""
    authentication_key: bytes = b""
    created_at: float = 0.0
    lifetime_seconds: float = 60.0
    lifetime_kilobytes: int = 0
    #: Pad pool for one-time-pad SAs (unused for AES suites).
    pad: Optional[OneTimePad] = None
    #: Which IKE phase-2 negotiation created this SA, for the Fig 12 style log.
    negotiation_id: int = -1
    #: Name of the SPD policy this SA serves; traffic for a different policy
    #: must never reuse it (each tunnel has "its own set of cryptographic
    #: algorithms, keys, rekey rates, and so forth").
    policy_name: str = ""

    sequence_number: int = 0
    bytes_protected: int = 0
    packets_protected: int = 0
    #: Highest sequence number accepted by the receiver (simple anti-replay).
    highest_received_sequence: int = 0
    #: ``authentication_key``'s keyed HMAC state, absorbed when the first
    #: packet needs it and gone with the SA.
    _hmac: Optional[HmacSha1] = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #

    def authenticate(self, data: bytes) -> bytes:
        """HMAC-SHA1 of ``data`` under this SA's authentication key.

        The key's two pad blocks are hashed for the first packet only, so
        the key must not change once traffic has flowed — fresh key material
        arrives as a new SA.
        """
        if self._hmac is None:
            self._hmac = HmacSha1(self.authentication_key)
        return self._hmac.digest(data)


    def next_sequence(self) -> int:
        self.sequence_number += 1
        return self.sequence_number

    def record_traffic(self, payload_bytes: int) -> None:
        self.bytes_protected += payload_bytes
        self.packets_protected += 1

    def accept_sequence(self, sequence: int) -> bool:
        """Anti-replay: accept only strictly increasing sequence numbers."""
        if sequence <= self.highest_received_sequence:
            return False
        self.highest_received_sequence = sequence
        return True

    # ------------------------------------------------------------------ #
    # Lifetime management
    # ------------------------------------------------------------------ #

    def time_expired(self, now: float) -> bool:
        return (now - self.created_at) >= self.lifetime_seconds

    def volume_expired(self) -> bool:
        if self.lifetime_kilobytes <= 0:
            return False
        return self.bytes_protected >= self.lifetime_kilobytes * 1024

    def pad_exhausted(self) -> bool:
        if self.cipher_suite is not CipherSuite.ONE_TIME_PAD or self.pad is None:
            return False
        return self.pad.available_bytes == 0

    def expired(self, now: float) -> bool:
        """Whether this SA may no longer protect traffic."""
        return self.time_expired(now) or self.volume_expired() or self.pad_exhausted()

    def __repr__(self) -> str:
        return (
            f"SA(spi=0x{self.spi:08x}, {self.source_gateway}->{self.destination_gateway}, "
            f"{self.cipher_suite.value}, protected={self.bytes_protected}B)"
        )


@dataclass
class SecurityAssociationDatabase:
    """The SAD: SAs indexed by SPI plus lookup by traffic direction."""

    by_spi: Dict[int, SecurityAssociation] = field(default_factory=dict)

    def install(self, sa: SecurityAssociation) -> None:
        if sa.spi in self.by_spi:
            raise ValueError(f"an SA with SPI 0x{sa.spi:08x} is already installed")
        self.by_spi[sa.spi] = sa

    def lookup_spi(self, spi: int) -> Optional[SecurityAssociation]:
        return self.by_spi.get(spi)

    def outbound_sa(
        self,
        source_gateway: str,
        destination_gateway: str,
        now: float,
        policy_name: Optional[str] = None,
    ) -> Optional[SecurityAssociation]:
        """The freshest unexpired SA for the given direction (and policy), if any."""
        candidates = [
            sa
            for sa in self.by_spi.values()
            if sa.source_gateway == source_gateway
            and sa.destination_gateway == destination_gateway
            and not sa.expired(now)
            and (policy_name is None or sa.policy_name == policy_name)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda sa: sa.created_at)

    def retire(self, spi: int) -> None:
        self.by_spi.pop(spi, None)

    def retire_expired(self, now: float) -> List[SecurityAssociation]:
        """Remove every expired SA; returns the ones retired."""
        expired = [sa for sa in self.by_spi.values() if sa.expired(now)]
        for sa in expired:
            self.retire(sa.spi)
        return expired
