"""Authentication of the QKD protocol traffic (paper section 5).

"Authentication must be performed on an ongoing basis for all key management
traffic, since Eve may insert herself into the conversation between Alice and
Bob at any stage."  The approach is the one sketched in the original BB84
paper: Alice and Bob pre-share a small secret key; every batch of protocol
messages is tagged with a Wegman-Carter universal hash selected by bits from
that shared pool; and "a small number" of each batch of freshly distilled QKD
bits is fed back to replenish the pool, so the system can keep authenticating
indefinitely — unless an adversary manages to force the pool to exhaustion
(the denial-of-service concern the paper raises, checked by the E11 claims
in ``tests/test_paper_claims.py``).

:class:`AuthenticatedChannel` wraps a protocol transcript at one endpoint.
Two channels built from the same pre-shared secret verify each other's tags;
a man-in-the-middle who alters any message causes verification to fail with
overwhelming probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.keypool import KeyBlock, KeyPool
from repro.core.messages import AuthenticationTagMessage
from repro.crypto.wegman_carter import AuthenticationError, WegmanCarterAuthenticator
from repro.util.bits import BitString


@dataclass
class AuthenticationStatistics:
    """Bookkeeping of one endpoint's authentication.

    The batch counts are kept here; the secret-bit count is the channel
    pool's own counter, read through.  ``secret_bits_consumed`` is every pad
    a tag or a verification drew: the pool's ``bits_consumed`` less the
    Toeplitz seed the authenticator drew once, when it was built.  Every bit
    fed back after the pre-shared secret is the pool's ``bits_added``.
    """

    pool: KeyPool = field(repr=False)
    seed_bits: int = field(repr=False)
    batches_tagged: int = 0
    batches_verified: int = 0
    verification_failures: int = 0

    @property
    def secret_bits_consumed(self) -> int:
        return self.pool.bits_consumed - self.seed_bits


class AuthenticatedChannel:
    """Tags and verifies batches of protocol messages at one endpoint."""

    #: Default size of the pre-positioned shared secret, in bits.  The paper
    #: only requires it be "small"; 4 kbit is enough to bootstrap the first
    #: few protocol batches before QKD replenishment takes over.
    DEFAULT_PRESHARED_BITS = 4096

    def __init__(self, preshared_secret: BitString):
        # The pre-shared secret is the pool's starting content, not an
        # addition: ``bits_added`` counts replenishment only.
        self.pool = KeyPool("authentication", [KeyBlock(preshared_secret, block_id=0)])
        self.authenticator = WegmanCarterAuthenticator(self.pool)
        # All the pool has paid so far is the authenticator's seed.
        self.statistics = AuthenticationStatistics(self.pool, seed_bits=self.pool.bits_consumed)

    # ------------------------------------------------------------------ #

    @classmethod
    def paired(cls, preshared_secret: BitString):
        """Build the two endpoints of an authenticated public channel.

        Both are constructed from identical pre-shared bits, so their pools
        (and therefore their hash selections and pads) stay in lock step.
        """
        return cls(preshared_secret), cls(preshared_secret)

    # ------------------------------------------------------------------ #
    # Tagging and verification
    # ------------------------------------------------------------------ #

    def tag_payload(
        self, payload: bytes, covered_messages: int
    ) -> AuthenticationTagMessage:
        """Tag an already-serialized transcript (callers that tag and verify
        the same log can serialize it once and reuse the bytes)."""
        tag = self.authenticator.tag(payload)
        self.statistics.batches_tagged += 1
        return AuthenticationTagMessage(
            covered_messages=covered_messages, tag_bits=tag.to_list()
        )

    def verify_payload(
        self, payload: bytes, tag_message: AuthenticationTagMessage
    ) -> None:
        """Verify a peer's tag over an already-serialized transcript."""
        self.statistics.batches_verified += 1
        try:
            self.authenticator.verify(payload, tag_message.tag)
        except AuthenticationError:
            self.statistics.verification_failures += 1
            raise

    # ------------------------------------------------------------------ #
    # Pool replenishment
    # ------------------------------------------------------------------ #

    def replenish(self, fresh_bits: BitString) -> None:
        """Feed a slice of freshly distilled key back into the secret pool."""
        self.pool.add_bits(fresh_bits)

    def __repr__(self) -> str:
        return (
            f"AuthenticatedChannel(available={self.pool.available_bits} bits, "
            f"tagged={self.statistics.batches_tagged}, "
            f"failures={self.statistics.verification_failures})"
        )
