"""ESP tunnel-mode packet processing.

The encryption path of the VPN gateway: given an outbound plaintext packet
and the Security Association chosen for it, produce the ESP packet that goes
onto the untrusted network; given an inbound ESP packet, verify and decrypt
it back into the original plaintext packet.  Three cipher suites are
supported, matching the SPD's :class:`CipherSuite`:

* AES (QKD-reseeded or classical) in CBC mode with an HMAC-SHA1 integrity
  check value, the conventional ESP construction;
* the one-time-pad extension, where the payload is XORed with pad bytes from
  the SA's negotiated QKD pad pool and integrity still comes from HMAC-SHA1
  (the pad protects confidentiality; an information-theoretic MAC could be
  substituted by a policy that cares).
"""

from __future__ import annotations

import hmac
import json
from typing import Optional

from repro.crypto.aes import AES
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.otp import PadExhaustedError
from repro.ipsec.packets import ESPPacket, IPPacket
from repro.ipsec.sad import SecurityAssociation
from repro.ipsec.spd import CipherSuite
from repro.util.rng import DeterministicRNG

#: Length of the truncated HMAC-SHA1 integrity check value, per RFC 2404.
ICV_BYTES = 12


class EspError(Exception):
    """Raised when an ESP packet fails authentication, replay or decryption."""


def _serialise_inner(packet: IPPacket) -> bytes:
    header = json.dumps(
        {
            "src": packet.source,
            "dst": packet.destination,
            "proto": packet.protocol,
            "id": packet.identifier,
        },
        sort_keys=True,
    ).encode()
    return len(header).to_bytes(2, "big") + header + packet.payload


def _deserialise_inner(data: bytes) -> IPPacket:
    header_length = int.from_bytes(data[:2], "big")
    header = json.loads(data[2 : 2 + header_length].decode())
    payload = data[2 + header_length :]
    return IPPacket(
        source=header["src"],
        destination=header["dst"],
        payload=payload,
        protocol=header["proto"],
        identifier=header["id"],
    )


class EspProcessor:
    """Encapsulates and decapsulates ESP packets for one gateway."""

    def __init__(self, rng: Optional[DeterministicRNG] = None):
        self.rng = rng or DeterministicRNG(0)
        self.authentication_failures = 0
        self.replay_rejections = 0
        self.pad_failures = 0

    # ------------------------------------------------------------------ #
    # Outbound
    # ------------------------------------------------------------------ #

    def encapsulate(
        self,
        packet: IPPacket,
        sa: SecurityAssociation,
        outer_source: str,
        outer_destination: str,
    ) -> ESPPacket:
        """Protect a plaintext packet under the given SA."""
        inner = _serialise_inner(packet)
        sequence = sa.next_sequence()

        if sa.cipher_suite is CipherSuite.ONE_TIME_PAD:
            if sa.pad is None:
                raise EspError("one-time-pad SA has no pad pool")
            try:
                ciphertext = sa.pad.encrypt(inner)
            except PadExhaustedError as exc:
                self.pad_failures += 1
                raise EspError(f"one-time pad exhausted: {exc}") from exc
            iv = b""
        else:
            iv = self.rng.getrandbits(128).to_bytes(16, "big")
            cipher = AES(sa.encryption_key)
            ciphertext = cbc_encrypt(cipher, inner, iv)

        header = sa.spi.to_bytes(4, "big") + sequence.to_bytes(4, "big")
        tag = sa.authenticate(header + iv + ciphertext)[:ICV_BYTES]

        sa.record_traffic(len(packet.payload))
        return ESPPacket(
            spi=sa.spi,
            sequence=sequence,
            ciphertext=ciphertext,
            auth_tag=tag,
            outer_source=outer_source,
            outer_destination=outer_destination,
            iv=iv,
            cipher=sa.cipher_suite.value,
        )

    # ------------------------------------------------------------------ #
    # Inbound
    # ------------------------------------------------------------------ #

    def decapsulate(self, esp: ESPPacket, sa: SecurityAssociation) -> IPPacket:
        """Verify and decrypt an inbound ESP packet under the given SA."""
        expected = sa.authenticate(esp.header_bytes() + esp.iv + esp.ciphertext)[:ICV_BYTES]
        if not hmac.compare_digest(expected, esp.auth_tag):
            self.authentication_failures += 1
            raise EspError(
                f"integrity check failed for SPI 0x{esp.spi:08x} "
                "(corrupted packet, or the two gateways' keys disagree)"
            )
        if not sa.accept_sequence(esp.sequence):
            self.replay_rejections += 1
            raise EspError(f"replayed or reordered sequence number {esp.sequence}")

        if sa.cipher_suite is CipherSuite.ONE_TIME_PAD:
            if sa.pad is None:
                raise EspError("one-time-pad SA has no pad pool")
            try:
                inner = sa.pad.decrypt(esp.ciphertext)
            except PadExhaustedError as exc:
                self.pad_failures += 1
                raise EspError(f"one-time pad exhausted: {exc}") from exc
        else:
            cipher = AES(sa.encryption_key)
            try:
                inner = cbc_decrypt(cipher, esp.ciphertext, esp.iv)
            except ValueError as exc:
                self.authentication_failures += 1
                raise EspError(f"decryption failed: {exc}") from exc

        try:
            return _deserialise_inner(inner)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise EspError(f"inner packet is not parseable after decryption: {exc}") from exc
