"""The Security Policy Database (SPD).

RFC 2401's SPD decides, for every packet, whether it must be protected,
bypassed or discarded, and with what parameters.  The paper's extensions add
per-tunnel policy about *how* QKD key material is used: "policy mechanisms to
specify when either of these extensions should be used, on a per-tunnel
basis" — i.e. whether a tunnel uses conventional AES with continual QKD
reseeding, or a pure one-time pad, along with key sizes, rekey intervals and
SA lifetimes.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

#: Size of one negotiated Qblock in bits, matching the paper's Fig 12
#: ("reply 1 Qblocks 1024 bits"); a policy's ``qkd_bits_per_rekey`` is
#: offered in whole Qblocks.
QBLOCK_BITS = 1024


class NegotiationError(Exception):
    """Raised when a policy's Phase-2 negotiation cannot complete."""


class PolicyAction(enum.Enum):
    """What to do with a matching packet."""

    PROTECT = "protect"
    BYPASS = "bypass"
    DISCARD = "discard"


class CipherSuite(enum.Enum):
    """How a protected tunnel uses its key material (the paper's two extensions)."""

    #: Conventional symmetric cipher (AES) whose keys are derived from QKD
    #: bits and refreshed continually — the "rapid-reseeding" extension.
    AES_QKD_RESEED = "aes-qkd-reseed"
    #: Every payload byte is XORed with fresh QKD bits — the one-time-pad
    #: extension ("Vernam cipher").
    ONE_TIME_PAD = "one-time-pad"
    #: Plain IKE-derived AES with no QKD at all (the conventional baseline the
    #: benchmarks compare against).
    AES_CLASSICAL = "aes-classical"


@dataclass
class SecurityPolicy:
    """One SPD entry."""

    name: str
    source_network: str
    destination_network: str
    action: PolicyAction = PolicyAction.PROTECT
    cipher_suite: CipherSuite = CipherSuite.AES_QKD_RESEED
    #: AES key size in bits for the AES suites.
    key_bits: ClassVar[int] = 128
    #: SA lifetime in seconds ("key rollover" interval); the paper reseeds the
    #: AES keys "about once a minute".
    lifetime_seconds: float = 60.0
    #: SA lifetime in kilobytes of protected traffic (0 disables the limit).
    lifetime_kilobytes: int = 0
    #: QKD bits requested per Phase-2 negotiation (the Qblock size offered).
    qkd_bits_per_rekey: int = 1024

    def __post_init__(self) -> None:
        ipaddress.ip_network(self.source_network)
        ipaddress.ip_network(self.destination_network)
        if self.lifetime_seconds <= 0:
            raise ValueError("SA lifetime must be positive")
        if self.lifetime_kilobytes < 0:
            raise ValueError("kilobyte lifetime must be non-negative")
        if self.qkd_bits_per_rekey <= 0:
            raise ValueError("Qblock size must be positive")

    def matches(self, source: str, destination: str) -> bool:
        """Does this policy cover a packet with the given addresses?"""
        return ipaddress.ip_address(source) in ipaddress.ip_network(
            self.source_network
        ) and ipaddress.ip_address(destination) in ipaddress.ip_network(
            self.destination_network
        )


@dataclass
class SecurityPolicyDatabase:
    """An ordered list of policies; first match wins, default is DISCARD.

    Defaulting to discard (rather than bypass) mirrors the fail-closed posture
    a cryptographic gateway for sensitive enclaves must take.
    """

    policies: List[SecurityPolicy] = field(default_factory=list)

    def add(self, policy: SecurityPolicy) -> None:
        if any(existing.name == policy.name for existing in self.policies):
            raise ValueError(f"a policy named {policy.name!r} already exists")
        self.policies.append(policy)

    def lookup(self, source: str, destination: str) -> Optional[SecurityPolicy]:
        """The first policy matching the packet, or None (treated as discard)."""
        for policy in self.policies:
            if policy.matches(source, destination):
                return policy
        return None

    def policy_by_name(self, name: str) -> SecurityPolicy:
        for policy in self.policies:
            if policy.name == name:
                return policy
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.policies)
