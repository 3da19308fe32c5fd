"""IP and ESP packet models.

The simulation does not push real packets through a kernel; it models the
fields the VPN data path actually manipulates — addresses for SPD selector
matching, payloads for encryption, and the ESP header fields (SPI, sequence
number) the receiving gateway needs to find the right Security Association
and enforce anti-replay.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass


@dataclass
class IPPacket:
    """A plaintext IP datagram as seen on the red (clear) side of a gateway."""

    source: str
    destination: str
    payload: bytes
    protocol: str = "tcp"
    identifier: int = 0

    def __post_init__(self) -> None:
        # Validate addresses early so policy lookups never see junk.
        ipaddress.ip_address(self.source)
        ipaddress.ip_address(self.destination)

    def __repr__(self) -> str:
        return (
            f"IPPacket({self.source} -> {self.destination}, "
            f"{len(self.payload)} bytes, proto={self.protocol})"
        )


@dataclass
class ESPPacket:
    """An ESP tunnel-mode packet as seen on the black (protected) side.

    ``ciphertext`` carries the encrypted inner IP packet; ``auth_tag`` is the
    integrity check value computed over the ESP header and ciphertext.
    """

    spi: int
    sequence: int
    ciphertext: bytes
    auth_tag: bytes
    outer_source: str
    outer_destination: str
    iv: bytes = b""
    #: Cipher suite label recorded for reporting (the receiver uses the SA,
    #: looked up by SPI, as the authoritative source).
    cipher: str = ""

    def header_bytes(self) -> bytes:
        """The authenticated ESP header fields (SPI and sequence number)."""
        return self.spi.to_bytes(4, "big") + self.sequence.to_bytes(4, "big")

    def __repr__(self) -> str:
        return (
            f"ESPPacket(spi=0x{self.spi:08x}, seq={self.sequence}, "
            f"{len(self.ciphertext)} bytes, cipher={self.cipher})"
        )
